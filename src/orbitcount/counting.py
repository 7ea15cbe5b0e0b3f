"""Closed-form counting formulas and the companion recursions.

Everything returns exact Python integers, so no grid point can overflow.
The recursion family (p/q/r) recomputes the closed forms along an entirely
different route and is the basis for the formula-vs-recursion cross checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .errors import BoundTooSmall, InvalidParams, PreconditionViolation
from .fields import factorize


@dataclass(frozen=True)
class CountReport:
    """One unit of verification output: a formula value and, when an oracle
    ran, the oracle value and whether the two agree."""

    params: dict
    formula_value: int
    oracle_value: int | None = None
    match: bool | None = None

    def __post_init__(self):
        if (self.oracle_value is None) != (self.match is None):
            raise InvalidParams("oracle_value and match must be present together")
        if self.oracle_value is not None and self.match != (
            self.formula_value == self.oracle_value
        ):
            raise InvalidParams("match flag inconsistent with values")

    @classmethod
    def compare(cls, params, formula_value, oracle_value):
        return cls(params, formula_value, oracle_value, formula_value == oracle_value)

    def to_json(self) -> dict:
        out = {"params": self.params, "formula_value": str(self.formula_value)}
        if self.oracle_value is not None:
            out["oracle_value"] = str(self.oracle_value)
            out["match"] = self.match
        return out


def _check_nq(n: int, q: int):
    if n < 1 or q < 2:
        raise InvalidParams(f"need n >= 1 and q >= 2, got n={n}, q={q}")
    if len(factorize(q)) != 1:
        raise InvalidParams(f"q = {q} is not a prime power, so F_q does not exist")


def gl_count(n: int, q: int) -> int:
    """Order of the group of invertible n x n matrices over F_q."""
    _check_nq(n, q)
    out = 1
    qn = q**n
    for i in range(n):
        out *= qn - q**i
    return out


def orbit_count_formula(n: int, q: int, t: int, k: int) -> int:
    """Number of degree-<=k matrices inside one left orbit whose determinant
    has degree t.  Only defined for k >= t."""
    _check_nq(n, q)
    if t < 0:
        raise InvalidParams(f"determinant degree must be >= 0, got {t}")
    if k < t:
        raise BoundTooSmall(f"k = {k} < t = {t}: no closed form applies")
    return gl_count(n, q) * q ** ((n - 1) * (n * k - t))


def _compositions(t: int, n: int):
    """All ordered n-tuples of nonnegative integers summing to t."""
    if n == 1:
        yield (t,)
        return
    for first in range(t + 1):
        for rest in _compositions(t - first, n - 1):
            yield (first,) + rest


def c_nt(n: int, q: int, t: int) -> int:
    """Number of canonical forms with determinant degree t: the sum of
    q^(t_1 + 2 t_2 + ... + n t_n) over compositions of t into n parts, which
    is the u^t coefficient of prod_{i=1..n} 1/(1 - q^i u), that is
    q^t times the Gaussian binomial [n + t - 1 choose t]_q."""
    _check_nq(n, q)
    if t < 0:
        raise InvalidParams(f"t must be >= 0, got {t}")
    s = min(t, n - 1)  # [n + t - 1 choose t]_q = [n + t - 1 choose n - 1]_q
    num = prod(q ** (n + t - 1 - s + j) - 1 for j in range(1, s + 1))
    return q**t * (num // prod(q**j - 1 for j in range(1, s + 1)))


def total_count_formula(n: int, q: int, t: int, k: int) -> int:
    """Count of all nonsingular degree-<=k matrices with determinant degree
    exactly t (every orbit together)."""
    return c_nt(n, q, t) * orbit_count_formula(n, q, t, k)


# -- the unipotent-at-zero family -------------------------------------------


def _check_bounds(bounds, q: int):
    bounds = tuple(bounds)
    if not bounds or any(b < 0 for b in bounds):
        raise InvalidParams(f"bounds must be a nonempty tuple of ints >= 0: {bounds}")
    _check_nq(len(bounds), q)
    return bounds


def p_count_formula(bounds, q: int) -> int:
    """Closed form q^((n-1) * sum(bounds)) for the number of unimodular
    matrices with constant term I and per-column degree bounds."""
    bounds = _check_bounds(bounds, q)
    return q ** ((len(bounds) - 1) * sum(bounds))


@lru_cache(maxsize=None)
def _p_recursive(bounds: tuple, q: int) -> int:
    # count is invariant under permuting the bounds (constant conjugation),
    # so keep them sorted descending; the recursion is walked as a loop, one
    # step per unit of the bounds, so large bounds never reach the stack limit
    bounds = sorted(bounds, reverse=True)
    acc = 1
    while len(bounds) > 1 and sum(bounds) != 0:
        if bounds[-1] == 0:
            bounds.pop()
            acc *= q ** sum(bounds)
        else:
            acc *= q ** (len(bounds) - 1)
            bounds[0] -= 1
            bounds.sort(reverse=True)
    return acc


def p_count_recursive(bounds, q: int) -> int:
    """The same count as p_count_formula, evaluated by the recursion: peel a
    zero bound off, otherwise decrement the largest bound and scale by
    q^(n-1)."""
    return _p_recursive(_check_bounds(bounds, q), q)


def _check_tail(i: int, bounds, lo: int):
    """Preconditions for the leading-layer-dependence counts: the bounds from
    position i (1-based) onward must be non-increasing and all >= 1."""
    n = len(bounds)
    if not lo <= i <= n:
        raise PreconditionViolation(f"index i = {i} outside [{lo}, {n}]")
    tail = bounds[i - 1 :]
    if any(b < 1 for b in tail):
        raise PreconditionViolation(f"trailing bounds must be >= 1: {tail}")
    if any(tail[j] < tail[j + 1] for j in range(len(tail) - 1)):
        raise PreconditionViolation(f"trailing bounds must be non-increasing: {tail}")


def _dec(bounds, j: int):
    """bounds with the (1-based) j-th entry decremented."""
    out = list(bounds)
    out[j - 1] -= 1
    return tuple(out)


@lru_cache(maxsize=None)
def _r_recursive(i: int, bounds: tuple, q: int) -> int:
    n = len(bounds)
    if i == n:
        return _p_recursive(_dec(bounds, n), q)
    return sum(_q_recursive(j, bounds, q) for j in range(i, n + 1))


@lru_cache(maxsize=None)
def _q_recursive(i: int, bounds: tuple, q: int) -> int:
    n = len(bounds)
    if i == n:
        return _p_recursive(_dec(bounds, n), q)
    dec = _dec(bounds, i)
    return q ** (n - i) * (_p_recursive(dec, q) - _r_recursive(i + 1, dec, q))


def r_count_recursive(i: int, bounds, q: int) -> int:
    """Count of matrices in the unipotent-at-zero family whose top coefficient
    layers from column i onward are linearly dependent."""
    bounds = _check_bounds(bounds, q)
    _check_tail(i, bounds, 2)
    return _r_recursive(i, bounds, q)


def q_count_recursive(i: int, bounds, q: int) -> int:
    """Count with layers from column i dependent but from column i+1 on
    independent (exact dependence boundary at column i)."""
    bounds = _check_bounds(bounds, q)
    _check_tail(i, bounds, 1)
    return _q_recursive(i, bounds, q)


def clear_caches():
    """Drop all memo tables (used by purity tests)."""
    _p_recursive.cache_clear()
    _r_recursive.cache_clear()
    _q_recursive.cache_clear()
