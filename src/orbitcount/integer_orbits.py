"""Integer-matrix companion: left and two-sided orbit classes of 2x2 integer
matrices with fixed determinant, norm-ball censuses, and the asymptotic
density constant for determinant surfaces.

Every matrix here is 2x2, so the determinant and the Hermite and Smith forms
are closed forms in the four entries; any other shape raises
UnsupportedDimension.

All matrix arithmetic is exact; norm thresholds compare the squared Frobenius
norm against T^2, and the square roots that bound a row of the ball are
floored exactly.
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


def _bezout_table(T: int):
    """Arrays g, u of shape (T + 1, T): for 1 <= m <= T and 0 <= r < T,
    g[m, r] = gcd(r, m) and u[m, r] * r == g[m, r] (mod m).  The extended
    Euclidean algorithm of ``_ext_gcd`` runs on every pair at once, each
    step on the pairs whose remainder is still nonzero."""
    m, r = np.meshgrid(np.arange(T + 1), np.arange(T), indexing="ij")
    old, cur = r.ravel(), m.ravel()
    u, s = np.ones_like(old), np.zeros_like(old)
    live = np.flatnonzero(cur)
    while live.size:
        o, c = old[live], cur[live]
        q = o // c
        old[live], cur[live] = c, o - q * c
        uo, so = u[live], s[live]
        u[live], s[live] = so, uo - q * so
        live = live[cur[live] != 0]
    return old.reshape(m.shape), u.reshape(m.shape)


def _isqrt(n):
    """Elementwise floor square root of an int64 array with entries in
    [0, 2^52): the float root is off by at most one there."""
    s = np.sqrt(n).astype(np.int64)
    s -= s * s > n
    return s + ((s + 1) * (s + 1) <= n)


def _runs(n):
    """For run lengths n: the run of each element and its offset k = 0, 1,
    ..., n - 1 within the run."""
    run = np.repeat(np.arange(n.size), n)
    return run, np.arange(run.size) - (np.cumsum(n) - n)[run]


def _ball_blocks(det_value: int, T: int, budget=None):
    """Every 2x2 integer matrix with determinant det_value and squared
    Frobenius norm <= T^2, as int64 arrays (a, b, c, d): one block per row
    value a, ascending, each block in (b, c, d) order.

    For a != 0, b*c = -det (mod |a|) is solved per b: it has a solution iff
    g = gcd(b, |a|) divides det, and then c runs through one residue class
    mod |a|/g, so only those c are visited; d = (det + b*c)/a is exact and
    a norm filter keeps the points of the ball.  For a = 0 the (b, c) with
    b*c = -det come from one grid mask and d runs free within the ball.  A
    det with 2|det| > T^2 has no matrix in the ball and yields nothing.
    """
    if T < 1:
        raise InvalidParams(f"T must be >= 1, got {T}")
    _budget(budget).check(2 * T + 1, [3], "norm-ball scan")
    if 2 * abs(det_value) > T * T:  # |ad - bc| <= (a^2 + b^2 + c^2 + d^2) / 2
        return
    D = det_value
    gcds, invs = _bezout_table(T)
    for a in range(-T, T + 1):
        room = T * T - a * a
        r = math.isqrt(room)
        if a == 0:
            b, c = np.ogrid[-r : r + 1, -r : r + 1]
            i, j = np.nonzero((b * b + c * c <= room) & (b * c == -D))
            b, c = i - r, j - r
            dmax = _isqrt(room - b * b - c * c)
            run, k = _runs(2 * dmax + 1)
            yield np.zeros_like(k), b[run], c[run], k - dmax[run]
            continue
        m = abs(a)
        b = np.arange(-r, r + 1)
        b = b[D % gcds[m, b % m] == 0]
        g, u = gcds[m, b % m], invs[m, b % m]
        step = m // g
        c0 = (-(D // g) % step) * (u % step) % step  # b*c = -det (mod m) iff c = c0 (mod step)
        cmax = _isqrt(room - b * b)
        cmin = (c0 + cmax) % step - cmax  # the least such c >= -cmax
        run, k = _runs(np.maximum((cmax - cmin) // step + 1, 0))
        b, c = b[run], cmin[run] + k * step[run]
        d = (D + b * c) // a
        keep = b * b + c * c + d * d <= room
        yield np.full(np.count_nonzero(keep), a), b[keep], c[keep], d[keep]


def enumerate_det_norm(n: int, det_value: int, T: int, budget=None):
    """Yield every n x n integer matrix with the given determinant and
    squared Frobenius norm <= T^2, exactly once, as nested tuples of Python
    ints in a deterministic order.

    Only n = 2 is supported.  The points come from the norm-ball block walk
    (``_ball_blocks``): row value a ascending, and within a row (b, c, d)
    in lexicographic order.
    """
    if n != 2:
        raise UnsupportedDimension("only 2x2 enumeration is supported")
    for block in _ball_blocks(det_value, T, budget):
        for a, b, c, d in zip(*(v.tolist() for v in block)):
            yield ((a, b), (c, d))


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


def _block_classes(a, b, c, d, det_value: int, bezout):
    """The closed forms of ``snf_int`` and ``hnf_int`` on one nonempty block
    of the ball walk (a is constant, det_value > 0): arrays (g, g1, corner),
    g the content of the four entries, so the Smith form is
    diag(g, det/g), and the Hermite form [[g1, corner], [0, det/g1]] with
    g1 = gcd(a, c) and corner = (x*b + y*d) mod det/g1 for the Bezout pair
    x*a + y*c = g1 read off ``bezout = _bezout_table(T)``."""
    g = np.gcd(np.gcd(a, b), np.gcd(c, d))
    a0 = int(a[0])
    if a0:
        gcds, invs = bezout
        m = abs(a0)
        g1, y = gcds[m, c % m], invs[m, c % m]
        x = (g1 - y * c) // a0  # y*c = g1 (mod a), so exact
    else:
        g1, x, y = np.abs(c), 0, np.sign(c)
    return g, g1, (x * b + y * d) % (det_value // g1)


def orbit_ratio_experiment(det_value: int, T: int, ladder=None, budget=None) -> RatioReport:
    """Census of the determinant surface inside nested norm balls, bucketed by
    two-sided (Smith) class and by left (Hermite) class.

    Each block of the ball walk is classified in numpy (``_block_classes``)
    and each point gets its rung, the least ladder value L with norm <= L^2.
    One packed key (class, rung) per point is counted with ``np.unique``, and
    a count at a rung also counts at every larger rung.  g and g1 divide a
    nonzero entry, so both are <= max(ladder) = T', and the keys stay below
    T'^4 / 2, inside int64 for every T' < 65000; the walk's (T' + 1) x T'
    Bezout table outgrows memory long before that.
    """
    if det_value <= 0:
        raise NonPositiveDeterminant("the experiment needs det > 0")
    ladder = tuple(sorted(set(ladder or ()) | {T}))
    if ladder[0] < 1:
        raise InvalidParams(f"ladder rungs must be >= 1, got {ladder[0]}")
    D, top, rungs = det_value, ladder[-1], len(ladder)
    smith, left = {}, {}
    bezout = None
    for a, b, c, d in _ball_blocks(D, top, budget):
        if not a.size:
            continue
        if bezout is None:  # built once the walk's own checks have passed
            bezout, squares = _bezout_table(top), np.array([L * L for L in ladder])
        g, g1, corner = _block_classes(a, b, c, d, D, bezout)
        rung = np.searchsorted(squares, a * a + b * b + c * c + d * d)
        for tally, key in ((smith, g), (left, g1 * (D + 1) + corner)):
            keys, counts = np.unique(key * rungs + rung, return_counts=True)
            for k, n in zip(keys.tolist(), counts.tolist()):
                tally[k] = tally.get(k, 0) + n

    def ladder_counts(tally, form):
        out = {L: {} for L in ladder}
        for key, n in sorted(tally.items()):
            cls, i = divmod(key, rungs)
            cls = form(cls)
            for L in ladder[i:]:
                out[L][cls] = out[L].get(cls, 0) + n
        return out

    def hermite(key):
        g1, corner = divmod(key, D + 1)
        return ((g1, corner), (0, D // g1))

    return RatioReport(
        D, ladder,
        ladder_counts(smith, lambda g: ((g, 0), (0, D // g))),
        ladder_counts(left, hermite),
    )


def count_det_norm(det_value: int, T: int, budget=None) -> int:
    """N(T) for the whole determinant surface: the sizes of the ball walk's
    blocks, added up."""
    return sum(a.size for a, _, _, _ in _ball_blocks(det_value, T, budget))


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
