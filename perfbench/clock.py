"""Battery time normalised for host CPU contention.

On a shared host the same battery takes 1.0x to 1.8x as long from one
minute to the next, because other guests compete for the physical core; the
process's own CPU time inflates by the same factor, so it is no cure, and no
hardware counters are exposed to the guest.  ``ContentionClock`` measures
the contention while the battery runs instead: every ``INTERVAL_S`` of wall
time a SIGALRM handler times a fixed pure-Python reference loop (no
orbitcount code, so a change to the library cannot move it).  A window's
normalised time is its wall time scaled by ``REF_NS`` over the mean
reference-loop time inside the window, i.e. the window's length in units of
the reference loop, expressed in seconds of a core on which the loop takes
``REF_NS`` (its uncontended time on the 2-vCPU Intel Xeon guest the benchmark
was defined on).

The correction is partial: under heavy load the batteries slowed 15-20% more
than the loop did, so normalised times still read that much higher then; the
raw wall time would read up to 80% higher.  (A tuple-and-object loop, alone
or mixed in, over-corrected some workloads by more.)

No thread or process is started; the handler runs in the main thread
between bytecodes and costs about 0.5% of the wall time it samples (that
time also lands inside whatever span is open in a traced battery).
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

INTERVAL_S = 0.005
REF_LOOP = 300
REF_NS = 23_000


def _reference_loop():
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc * 31 + i) % 1000003
    return acc


class ContentionClock:
    def __init__(self):
        self.at = []  # sample start, ns
        self.took = []  # reference loop time, ns
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter_ns()
        _reference_loop()
        self.at.append(t0)
        self.took.append(perf_counter_ns() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_ref_ns(self, start_ns, end_ns):
        """Mean reference-loop time of the samples taken in the window, padded
        by one interval on each side so that short windows hold samples."""
        pad = int(INTERVAL_S * 1e9)
        lo = bisect_left(self.at, start_ns - pad)
        hi = bisect_right(self.at, end_ns + pad)
        return statistics.fmean(self.took[lo:hi]) if hi > lo else REF_NS

    def normalised_s(self, start_ns, end_ns):
        return (end_ns - start_ns) / 1e9 * REF_NS / self.mean_ref_ns(start_ns, end_ns)
