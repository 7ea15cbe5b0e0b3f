"""Outside-in tracing of the orbitcount layers.

The tracer patches the names that callers actually look up (module globals
such as ``oracle.hnf`` and class attributes such as ``Poly.__mul__``) with
wrappers defined here, so the library itself is untouched.  Two kinds of
wrapper exist:

* span wrappers, at layer boundaries (``hnf``, ``solve_affine``, the scans),
  record one span per call -- or one per ``next()`` for generators -- as
  (name, start, end, parent) in flat in-memory arrays;
* counting wrappers, on the per-element methods of ``GF`` and ``Poly`` that
  run millions of times, keep only a call count (and, for ``Poly.__mul__``,
  the summed busy time), because a span each would cost more than the call.

``restore()`` puts every original object back; untraced runs never install
anything.
"""

from __future__ import annotations

import functools
import gzip
import itertools
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.calls = {}  # name -> call count (span wrappers)
        self.items = {}  # name -> items yielded (generator wrappers)
        self.extra = {}  # name -> counter set by post hooks
        self._counters = {}  # name -> itertools.count (counting wrappers)
        self._busy_ns = {}  # name -> [ns] (timed counting wrappers)
        self._patched = []  # (owner, attr, original)

    # -- patching -------------------------------------------------------------

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return self._ids[name]

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, name, owners, attr, generator=False, post=None):
        """Replace ``owner.attr`` for each owner by one span wrapper.

        ``post(args, result)`` runs after each call of a plain function.
        """
        fn = getattr(owners[0], attr)
        nid = self._nid(name)
        wrapper = (self._gen_wrapper if generator else self._fn_wrapper)(fn, name, nid, post)
        for owner in owners:
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the same object as {name}")
            self._patch(owner, attr, wrapper)

    def count(self, name, cls, attr, timed=False):
        """Count the calls of ``cls.attr``; with ``timed`` also sum their time."""
        fn = cls.__dict__[attr]
        counter = self._counters[name] = itertools.count()
        tick = counter.__next__
        if timed:
            acc = self._busy_ns[name] = [0]

            def wrapper(*args, _f=fn, _tick=tick, _acc=acc, _now=perf_counter_ns):
                _tick()
                t0 = _now()
                out = _f(*args)
                _acc[0] += _now() - t0
                return out

        else:

            def wrapper(*args, _f=fn, _tick=tick):
                _tick()
                return _f(*args)

        self._patch(cls, attr, functools.wraps(fn)(wrapper))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- span recording -------------------------------------------------------

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0)
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0):
        self.span_end[idx] = perf_counter_ns()
        self.span_start[idx] = t0
        self._stack.pop()

    def _fn_wrapper(self, fn, name, nid, post):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = self._open(nid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
            if post is not None:
                post(args, out)
            return out

        return functools.wraps(fn)(wrapper)

    def _gen_wrapper(self, fn, name, nid, post):
        calls, items = self.calls, self.items
        items[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                t0 = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, t0)
                items[name] += 1
                yield item

        return functools.wraps(fn)(wrapper)

    def bump(self, name, by=1):
        self.extra[name] = self.extra.get(name, 0) + by

    # -- aggregation ----------------------------------------------------------

    def summary(self):
        """Per name: calls, items, busy seconds (outermost spans of that name
        only, so recursion is not counted twice) and self seconds (span time
        minus the time covered by child spans)."""
        n = len(self.span_name)
        child_ns = [0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        busy = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            self_ns[nid] += dur - child_ns[i]
            p = parents[i]
            while p >= 0 and names[p] != nid:
                p = parents[p]
            if p < 0:
                busy[nid] += dur
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {
                "calls": self.calls[name],
                "items": self.items.get(name, 0),
                "busy_s": busy[nid] / 1e9,
                "self_s": self_ns[nid] / 1e9,
            }
        for name, counter in self._counters.items():
            entry = {"calls": next(counter), "items": 0, "self_s": 0.0}
            entry["busy_s"] = self._busy_ns[name][0] / 1e9 if name in self._busy_ns else 0.0
            out[name] = entry
        return out

    def write_spans(self, path):
        """Write every span as one CSV line: name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[i]]},{self.span_start[i]},"
                    f"{self.span_end[i]},{self.span_parent[i]}\n"
                )
