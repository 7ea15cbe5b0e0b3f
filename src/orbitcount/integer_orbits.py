"""Integer-matrix companion: left and two-sided orbit classes of 2x2 integer
matrices with fixed determinant, norm-ball censuses, and the asymptotic
density constant for determinant surfaces.

Every matrix here is 2x2, so the determinant and the Hermite and Smith forms
are closed forms in the four entries; any other shape raises
UnsupportedDimension.

All matrix arithmetic is exact; norm thresholds compare the squared Frobenius
norm against T^2 so no square roots are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParams,
    MissingZetaValue,
    NonPositiveDeterminant,
    SingularMatrix,
    UnsupportedDimension,
)
from .fields import factorize
from .oracle import _budget

IntMatrix = tuple  # nested tuple of exact ints, row-major


def det_int(m) -> int:
    """Determinant ad - bc. Every shape other than 2x2 raises
    UnsupportedDimension; hnf_int and snf_int take this guard through here."""
    if len(m) != 2 or any(len(row) != 2 for row in m):
        raise UnsupportedDimension(f"only 2x2 integer matrices are supported, got {len(m)} rows")
    (a, b), (c, d) = m
    return a * d - b * c


def frobenius_sq(m) -> int:
    return sum(v * v for row in m for v in row)


def _ext_gcd(a: int, c: int):
    """(g, x, y) with g = gcd(a, c) and x*a + y*c == g, by the extended
    Euclidean algorithm."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while c:
        q, r = divmod(a, c)
        a, c = c, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hnf_int(m) -> IntMatrix:
    """Canonical representative of the left orbit under determinant-one
    integer matrices: [[g1, (x*b + y*d) mod (D/g1)], [0, D/g1]] for
    m = [[a, b], [c, d]] with D = det(m) > 0, g1 = gcd(a, c) and any Bezout
    pair x*a + y*c = g1.

    The determinant-one matrix [[x, y], [-c/g1, a/g1]] maps m to
    [[g1, x*b + y*d], [0, D/g1]], and adding a multiple of the second row
    reduces the corner. Upper triangular forms with positive diagonal and
    corner in [0, D/g1) are unique in their orbit, so the form classifies left
    SL-orbits, not just GL-orbits.
    """
    D = det_int(m)
    if D <= 0:
        raise NonPositiveDeterminant(f"det = {D} must be positive")
    (a, b), (c, d) = m
    g1, x, y = _ext_gcd(a, c)
    return ((g1, (x * b + y * d) % (D // g1)), (0, D // g1))


def snf_int(m) -> IntMatrix:
    """Smith normal form diag(g, |det|/g) with g the gcd of the four entries:
    the invariant of two-sided unimodular equivalence."""
    D = det_int(m)
    if D == 0:
        raise SingularMatrix("Smith form requested for a singular matrix")
    (a, b), (c, d) = m
    g = math.gcd(a, b, c, d)
    return ((g, 0), (0, abs(D) // g))


# -- enumeration -------------------------------------------------------------


def enumerate_det_norm(n: int, det_value: int, T: int, budget=None):
    """Yield every n x n integer matrix with the given determinant and
    squared Frobenius norm <= T^2, exactly once, in a deterministic order.

    Only n = 2 is supported.  For each a, the (b, c) of the ball form one
    numpy block, walked in (b, c) order: for a != 0 it keeps the (b, c) whose
    d = (det + b*c)/a is an integer inside the ball; for a = 0 it keeps the
    (b, c) with b*c = -det, and d runs free within the ball.  A det with
    2|det| > T^2 has no matrix in the ball and yields nothing.
    """
    if n != 2:
        raise UnsupportedDimension("only 2x2 enumeration is supported")
    if T < 1:
        raise InvalidParams(f"T must be >= 1, got {T}")
    _budget(budget).check(2 * T + 1, [3], "norm-ball scan")
    if 2 * abs(det_value) > T * T:  # |ad - bc| <= (a^2 + b^2 + c^2 + d^2) / 2
        return
    for a in range(-T, T + 1):
        r = math.isqrt(T * T - a * a)
        b, c = np.ogrid[-r : r + 1, -r : r + 1]
        rest = T * T - a * a - b * b - c * c  # the room left for d^2
        if a:
            num = det_value + b * c
            d = num // a
            keep = (rest >= 0) & (num % a == 0) & (d * d <= rest)
            for (i, j), dd in zip(np.argwhere(keep).tolist(), d[keep].tolist()):
                yield ((a, i - r), (j - r, dd))
            continue
        keep = (rest >= 0) & (b * c == -det_value)
        for (i, j), room in zip(np.argwhere(keep).tolist(), rest[keep].tolist()):
            dmax = math.isqrt(room)
            for dd in range(-dmax, dmax + 1):
                yield ((0, i - r), (j - r, dd))


@dataclass(frozen=True)
class RatioReport:
    det_value: int
    ladder: tuple  # of T values
    class_counts: dict  # T -> {snf diagonal -> count}
    hnf_counts: dict  # T -> {hnf form -> count}

    def to_json(self) -> dict:
        def fmt_cls(d):
            return {repr(list(map(list, k))): str(v) for k, v in sorted(d.items())}

        return {
            "det": self.det_value,
            "ladder": list(self.ladder),
            "two_sided_classes": {str(T): fmt_cls(d) for T, d in self.class_counts.items()},
            "left_classes": {str(T): fmt_cls(d) for T, d in self.hnf_counts.items()},
        }


def orbit_ratio_experiment(det_value: int, T: int, ladder=None, budget=None) -> RatioReport:
    """Census of the determinant surface inside nested norm balls, bucketed by
    two-sided (Smith) class and by left (Hermite) class."""
    if det_value <= 0:
        raise NonPositiveDeterminant("the experiment needs det > 0")
    ladder = tuple(sorted(set(ladder or ()) | {T}))
    if ladder[0] < 1:
        raise InvalidParams(f"ladder rungs must be >= 1, got {ladder[0]}")
    class_counts = {L: {} for L in ladder}
    hnf_counts = {L: {} for L in ladder}
    thresholds = [(L, L * L) for L in ladder]
    for m in enumerate_det_norm(2, det_value, max(ladder), budget):
        s = snf_int(m)
        h = hnf_int(m)
        nsq = frobenius_sq(m)
        for L, L2 in thresholds:
            if nsq <= L2:
                class_counts[L][s] = class_counts[L].get(s, 0) + 1
                hnf_counts[L][h] = hnf_counts[L].get(h, 0) + 1
    return RatioReport(det_value, ladder, class_counts, hnf_counts)


def count_det_norm(det_value: int, T: int, budget=None) -> int:
    """N(T) for the whole determinant surface."""
    return sum(1 for _ in enumerate_det_norm(2, det_value, T, budget))


def hnf_classes_for_det(det_value: int, budget=None):
    """Direct enumeration of the canonical left-class representatives with the
    given positive determinant: [[a, b], [0, d]], a*d = det, 0 <= b < d.
    There are sigma(det) of them, checked against the budget first; a det
    that ``factorize`` cannot factor is refused too."""
    if det_value <= 0:
        raise NonPositiveDeterminant("need det > 0")
    sigma = math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factorize(det_value).items())
    _budget(budget).check(sigma, [1], "left class listing")
    out = []
    for d in range(1, det_value + 1):
        if det_value % d:
            continue
        a = det_value // d
        for b in range(d):
            out.append(((a, b), (0, d)))
    return out


# -- asymptotic constant -----------------------------------------------------


def drs_constant(n: int, k: int, zeta_values: dict | None = None) -> float:
    """The density constant c for the asymptotics N(T) ~ c * T^(n^2 - n) of
    integer matrices with determinant k in the Frobenius norm ball."""
    if n < 2 or k < 1:
        raise InvalidParams(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    zetas = {2: math.pi**2 / 6}
    if zeta_values:
        zetas.update(zeta_values)
    zeta_prod = 1.0
    for j in range(2, n + 1):
        if j not in zetas:
            raise MissingZetaValue(f"zeta({j}) must be supplied for n = {n}")
        zeta_prod *= zetas[j]
    lead = math.pi ** (n * n / 2) / (
        math.gamma((n * n - n + 2) / 2) * math.gamma(n / 2) * zeta_prod
    )
    divisor_part = 1.0
    for p, a in factorize(k).items():
        for i in range(1, n):
            divisor_part *= (p ** (a + i) - 1) / (p**i - 1)
    return lead * k ** (1 - n) * divisor_part
