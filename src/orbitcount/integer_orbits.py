"""Integer-matrix companion: left and two-sided orbit classes of 2x2 integer
matrices with fixed determinant, norm-ball censuses, and the asymptotic
density constant for determinant surfaces.

Every matrix here is 2x2, so the determinant and the Hermite and Smith forms
are closed forms in the four entries; any other shape raises
UnsupportedDimension.

All matrix arithmetic is exact; norm thresholds compare the squared Frobenius
norm against T^2, and the square roots that bound a row of the ball are
floored exactly.

The norm ball is walked in numpy blocks, one per slab of consecutive row
values (``_ball_blocks``), and the ratio census classifies each block in one
pass.  ``count_det_norm`` walks no matrix: it counts the ball along the
quadric route, two sums of two squares, and the walk is its cross-check.
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


# The ball walk cuts its rows into slabs of about this many (a, b) pairs and
# yields one block per slab: enough that a slab's numpy calls pay off, few
# enough that a classified slab (about a dozen int64 arrays of its candidates,
# some 24k of them at T = 200) stays near 2 MB.
_SLAB_PAIRS = 1 << 11


def _ball_is_nonempty(det_value: int, T: int, budget) -> bool:
    """The refusals of every norm-ball count, made before any array is built:
    T < 1 raises InvalidParams and the (2T + 1)^3 scan is checked against
    the budget.  False when 2|det| > T^2, which leaves the ball without a
    matrix, since |ad - bc| <= (a^2 + b^2 + c^2 + d^2) / 2."""
    if T < 1:
        raise InvalidParams(f"T must be >= 1, got {T}")
    _budget(budget).check(2 * T + 1, [3], "norm-ball scan")
    return 2 * abs(det_value) <= T * T


def _ball_blocks(D: int, T: int, bezout):
    """Every 2x2 integer matrix with determinant D and squared Frobenius
    norm <= T^2, as int64 arrays (a, b, c, d): one block per slab of
    consecutive rows a, with fewer than ``_SLAB_PAIRS`` (a, b) pairs besides
    its last row (the row a = 0 is a slab of its own), the points in order
    of a ascending, then (b, c, d).  Each slab's candidate lines are solved
    in one pass (``_slab_lines``, ``_row0_lines``), then expanded and
    norm-filtered in one more; bezout is ``_bezout_table(T)``.  The caller
    makes the refusals of ``_ball_is_nonempty`` first."""
    gcds, invs = bezout
    rows = np.arange(-T, T + 1)
    bmax = _isqrt(T * T - rows * rows)
    pairs = 2 * bmax + 1
    slab = (np.cumsum(pairs) - pairs) // _SLAB_PAIRS
    cuts = sorted({*np.flatnonzero(np.diff(slab, prepend=-1)).tolist(), T, T + 1, 2 * T + 1})
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == T:
            lines = _row0_lines(D, T)
        else:
            run, k = _runs(pairs[lo:hi])
            lines = _slab_lines(D, T, rows[lo:hi][run], k - bmax[lo:hi][run], gcds, invs)
        yield _line_points(T, *lines)


def _slab_lines(D: int, T: int, a, b, gcds, invs):
    """The lines of the pairs (a, b), a != 0, solved at once: b*c = -D
    (mod |a|) has a solution iff g = gcd(b, |a|) divides D, and then c runs
    through one residue class mod |a|/g; d = (D + b*c)/a is exact and moves
    by sign(a)*b/g per step of c.  The candidates are the points of that
    line with |c|, |d| <= isqrt(T^2 - a^2 - b^2), the square around the
    ball's disk, found by floor division alone."""
    m = np.abs(a)
    g, u = gcds[m, b % m], invs[m, b % m]
    step = m // g
    c0 = (-(D // g) % step) * (u % step) % step  # b*c = -D (mod m) iff c = c0 (mod step)
    cmax = _isqrt(T * T - a * a - b * b)
    c = (c0 + cmax) % step - cmax  # the least such c >= -cmax
    d, dd = (D + b * c) // a, b // g * np.sign(a)
    # k runs over the c with |c| <= cmax, cut to the k with |d| <= cmax too
    nc = (cmax - c) // step + 1
    sd, e = np.sign(dd), np.maximum(np.abs(dd), 1)
    first = np.maximum(-((cmax + sd * d) // e), 0)
    n = np.where(sd == 0, nc, np.minimum((cmax - sd * d) // e + 1, nc)) - first
    live = (D % g == 0) & (n > 0)
    return tuple(v[live] for v in (a, b, c + first * step, d + first * dd, step, dd, n))


def _row0_lines(D: int, T: int):
    """The lines of the row a = 0: the (b, c) with b*c = -D come from one
    grid mask, and d runs free within the ball."""
    b, c = np.ogrid[-T : T + 1, -T : T + 1]
    i, j = np.nonzero((b * b + c * c <= T * T) & (b * c == -D))
    b, c = i - T, j - T
    dmax = _isqrt(T * T - b * b - c * c)
    z = np.zeros_like(b)
    return z, b, c, -dmax, z, z + 1, 2 * dmax + 1


def _line_points(T: int, a, b, c, d, dc, dd, n):
    """The points of the ball on a table of candidate lines, in line order."""
    run, k = _runs(n)
    a, b = a[run], b[run]
    c, d = c[run] + k * dc[run], d[run] + k * dd[run]
    keep = a * a + b * b + c * c + d * d <= T * T
    return a[keep], b[keep], c[keep], d[keep]


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
    if not _ball_is_nonempty(det_value, T, budget):
        return
    for block in _ball_blocks(det_value, T, _bezout_table(T)):
        a, b, c, d = (v.tolist() for v in block)
        yield from zip(zip(a, b), zip(c, d))


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
    """The closed forms of ``hnf_int`` and ``snf_int`` on one nonempty block
    of the ball walk (det_value > 0; the rows a may differ from point to
    point): arrays (g, g1, corner).  The Hermite form is
    [[g1, corner], [0, det/g1]] with g1 = gcd(a, c) and
    corner = (x*b + y*d) mod det/g1 for a Bezout pair x*a + y*c = g1: for
    a != 0 it is read off ``bezout = _bezout_table(T)`` at [|a|, c mod |a|],
    for a = 0 it is (x, y) = (0, sign c).  The Smith form is diag(g, det/g)
    with g the content of the four entries, which a left unimodular factor
    keeps, so g = gcd(g1, corner, det/g1)."""
    gcds, invs = bezout
    zero = a == 0
    m = np.maximum(np.abs(a), 1)  # a = 0 reads a dummy entry, replaced below
    r = c % m
    g1 = np.where(zero, np.abs(c), gcds[m, r])
    y = np.where(zero, np.sign(c), invs[m, r])
    x = (g1 - y * c) // np.where(zero, 1, a)  # y*c = g1 (mod a), so exact; 0 if a = 0
    corner = (x * b + y * d) % (det_value // g1)
    return np.gcd(np.gcd(g1, corner), det_value // g1), g1, corner


def orbit_ratio_experiment(det_value: int, T: int, ladder=None, budget=None) -> RatioReport:
    """Census of the determinant surface inside nested norm balls, bucketed by
    two-sided (Smith) class and by left (Hermite) class.

    Each block of the ball walk, one slab of rows, is classified in one
    numpy pass (``_block_classes``) and each point gets its rung, the least
    ladder value L with norm <= L^2.  One packed key (class, rung) per point
    is counted with one ``np.unique`` per form and block, and a count at a
    rung also counts at every larger rung.  g and g1 divide a nonzero entry,
    so both are <= max(ladder) = T', and the keys stay below T'^4 / 2,
    inside int64 for every T' < 65000; the walk's (T' + 1) x T' Bezout
    table outgrows memory long before that.
    """
    if det_value <= 0:
        raise NonPositiveDeterminant("the experiment needs det > 0")
    ladder = tuple(sorted(set(ladder or ()) | {T}))
    if ladder[0] < 1:
        raise InvalidParams(f"ladder rungs must be >= 1, got {ladder[0]}")
    D, top, rungs = det_value, ladder[-1], len(ladder)
    smith, left = {}, {}
    blocks = ()
    if _ball_is_nonempty(D, top, budget):  # the walk's refusals come before any array
        bezout = _bezout_table(top)  # one table for the walk and the classes
        squares, blocks = np.array([L * L for L in ladder]), _ball_blocks(D, top, bezout)
    for a, b, c, d in blocks:
        if not a.size:
            continue
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
    """N(T) for the whole determinant surface, along the quadric route; no
    matrix is walked.

    With u = a + d, v = a - d, s = b + c and w = b - c, ad - bc = D is
    u^2 + w^2 - (v^2 + s^2) = 4D with u = v and s = w (mod 2), and the
    squared norm is (u^2 + v^2 + s^2 + w^2)/2.  A row swap negates the
    determinant and keeps the norm, so N_D = N_|D|, and N_|D|(T) is the sum
    over parities (alpha, beta) and 0 <= Q <= T^2 - 2|D| of
    R(Q + 4|D|) R(Q), R(n) counting x^2 + y^2 = n with x = alpha and
    y = beta (mod 2): O(T^2) numpy work.  It refuses what the ball walk
    refuses (``_ball_is_nonempty``), and the walk is its cross-check.
    """
    if not _ball_is_nonempty(det_value, T, budget):
        return 0
    D, T2 = abs(det_value), T * T
    top = T2 + 2 * D  # the largest u^2 + w^2 in the ball
    r = math.isqrt(top)
    side = np.arange(-r, r + 1)
    Q = np.arange(T2 - 2 * D + 1)
    total = 0
    for alpha in (0, 1):
        x = side[side % 2 == alpha]
        for beta in (0, 1):
            y = side[side % 2 == beta]
            norms = ((x * x)[:, None] + y * y).ravel()
            R = np.bincount(norms[norms <= top], minlength=top + 1)
            total += int(R[Q + 4 * D] @ R[Q])
    return total


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
    # the divisor part over k^(n-1) as one exact ratio: each factor alone
    # overflows a float once k does
    num = den = 1
    for p, a in factorize(k).items():
        for i in range(1, n):
            num *= p ** (a + i) - 1
            den *= p**i - 1
    return lead * (num / (den * k ** (n - 1)))
