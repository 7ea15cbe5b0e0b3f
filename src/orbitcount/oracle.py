"""Exhaustive enumeration ground truth for every counting formula.

Every enumeration is exact and refuses up front, on exponents, when it would
exceed the budget.  The orbit census counts each matrix at the position of
its canonical form in the walk of canonical forms, in one array read back
with the walk's own decoder (``_forms``); the determinant census counts
each prefix's completions by degree from one echelon of its cofactor span;
the unipotent family of Lemma 2 and the orbit-side member counter
(``_member_counts``) are solved by one line solve (``_line_systems``).  All
of them compute over F_q[x] in numpy batches on the field's tables, take
every determinant and cofactor from ``polymat._minors``, reduce every batch
of systems with ``linalg.rref``, and take their batches from
``fields.digits`` over a range of indices or from ``_solutions`` over an
affine space.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, chain, product

import numpy as np

from . import counting
from .counting import _compositions, gl_count
from .errors import (
    BudgetExceeded,
    InvalidParams,
    NotSquare,
    PreconditionViolation,
    SingularMatrix,
)
from .fields import GF, digits, field_of_order, tables
from .linalg import affine_solutions, consistent, rref, solution_count
# oracle calls none of these three itself (nor det); the traced benchmark
# run (perfbench/layers.py) patches each under this module's name as well,
# so the names stay importable from here
from .linalg import iter_affine_space, rank, solve_affine
from .poly import NEG_INF, Poly, _trim
from .polymat import PolyMatrix, _hermite, _mac, _minors, det, hnf

DEFAULT_MAX_ITEMS = 10**8


@dataclass(frozen=True)
class EnumerationBudget:
    max_items: int = DEFAULT_MAX_ITEMS

    def __post_init__(self):
        if self.max_items < 1:
            raise InvalidParams(f"budget must be >= 1, got {self.max_items}")

    def check(self, q: int, exponents, what: str):
        """Refuse a scan of sum(q**e for e in exponents) items over the budget.

        Exponents are compared first: q >= 2**b with b = bit length of q
        minus 1, so q**e exceeds max_items once e*b reaches the bit length of
        max_items; no power past the budget is ever built, and the refused
        cost prints as q^e.
        """
        limit = self.max_items.bit_length()
        b = q.bit_length() - 1
        cost = 0
        for e in exponents:
            if e * b >= limit or cost + q**e > self.max_items:
                term = f"{q}^{e}" if e != 1 else str(q)
                shown = f"{cost} + {term}" if cost else term
                raise BudgetExceeded(f"{what}: {shown} items exceed budget {self.max_items}")
            cost += q**e


def _budget(budget) -> EnumerationBudget:
    return budget if budget is not None else EnumerationBudget()


def _field(q) -> GF:
    return q if isinstance(q, GF) else field_of_order(q)


# -- polynomial and matrix enumeration ---------------------------------------


def iter_polys(q, max_deg):
    """Yield each polynomial of degree <= max_deg exactly once.

    ``max_deg = NEG_INF`` yields only the zero polynomial.
    """
    fld = _field(q)
    if max_deg == NEG_INF:
        yield Poly.zero(fld)
        return
    if max_deg < 0:
        raise InvalidParams(f"max_deg must be >= 0 or NEG_INF, got {max_deg}")
    width = max_deg + 1
    for idx in range(fld.q**width):
        yield Poly(fld, digits(idx, fld.q, width))


def _decode_matrix(fld: GF, rows: int, cols: int, width: int, idx: int) -> PolyMatrix:
    size = rows * cols * width
    coeffs = digits(idx, fld.q, size)
    entries = [Poly(fld, coeffs[e : e + width]) for e in range(0, size, width)]
    return PolyMatrix([entries[i * cols : (i + 1) * cols] for i in range(rows)])


def iter_matrices(q, n: int, k: int):
    """All n x n matrices with entry degrees <= k, in index order: row-major
    over entries, little-endian coefficient digits ((0, 0)'s constant lowest)."""
    fld = _field(q)
    for idx in range(fld.q ** (n * n * (k + 1))):
        yield _decode_matrix(fld, n, n, k + 1, idx)


# -- ambient scans -----------------------------------------------------------
#
# The scans visit every n x n matrix M = [M1 | c] of entry degree <= k,
# grouped by its first n - 1 columns M1 (the prefix).  The orbit scans
# (orbit_census, count_orbit_bruteforce) reduce each prefix once, by hnf's
# kernel polymat._hermite on its coefficient lists, to u @ M1 = [H1; 0]
# with H1 canonical.  For each last column c let y = u @ c and w = y_n.  Row
# n of u @ M vanishes on the prefix columns, so reducing the last column
# leaves H1 alone: M is singular iff w = 0 (or the prefix is rank-deficient),
# and otherwise its canonical form is [H1, y' mod h; 0, h] with h = monic(w)
# and y' the first n - 1 entries of y, and deg det M = deg det H1 + deg w.
# This is the column-wise Hermite reduction of Storjohann, Algorithms for
# Matrix Canonical Forms (ETH 2000).
#
# A leaf is one (prefix, last column) pair.  A batch is one index range of
# prefixes, decoded by _prefix_entries, whose completions fill _CENSUS_LEAVES
# leaves (or one prefix).  Its full-rank prefixes (with the H1 asked for) are
# finished together, each one's u broadcast against a slice of the q^(n(k+1))
# last columns, so y is computed for the whole batch at once.  The leaves are
# then grouped by d = deg w; h is monic, so each quotient digit of y' mod h is
# the top remainder coefficient, and the long division is a _mac with negated
# terms.
#
# A leaf's form [H1, y' mod h; 0, h] is named by its position in the walk
# of canonical forms (see _forms): its run is H1's composition and d,
# and in the run y' mod h takes the lowest digits, then H1's cells above its
# diagonal, h's low coefficients, and H1's diagonal.  So a position is a
# term of H1 and d (_h1_terms) plus the leaf's digits.  One int64 array
# counts every form with t <= n k, and each position counted is decoded once.
#
# The determinant census needs no canonical form, and counts per prefix.
# det [M1 | c] = sum_i c_i C_i, C_i the cofactors of M1 along column n, so
# as c runs over its q^N values (N = n(k+1)) det M takes each value of W =
# span{x^d C_i : i < n, d <= k} exactly q^(N - r) times, r = dim W.  One
# rref of the N spanning polynomials, coefficients from degree nk down, gives
# each pivot row its own leading degree; with pivot degrees p_1 < ... < p_r,
# W holds (q - 1) q^(j - 1) values of degree p_j, and the zero value is
# q^(N - r) singular completions.  A rank-deficient prefix has C = 0, so r =
# 0.  A batch of prefixes is decoded from its indices, takes its cofactors
# from one _minors call and is reduced by one rref.

_LEAF_CHUNK = 1 << 16  # unipotent-family members, or system entries, per numpy batch
# leaves per orbit-census batch: the finish holds a few coefficient arrays
# (n, D, L) of one byte per entry, and wider batches raise the peak memory,
# not the speed
_CENSUS_LEAVES = 1 << 12


def _prefix_entries(q: int, n: int, width: int, idx):
    """The first n - 1 columns of the matrices idx (an index array, digits as
    in _decode_matrix): an array (n, n - 1, L) of entry indices, entry (i, j)
    being base-q^width digit i (n - 1) + j, whose base-q digits are its
    coefficients."""
    return np.array(digits(idx, q**width, n * (n - 1))).reshape(n, n - 1, len(idx))


def _images(tbl, u, batch):
    """r @ c for every leaf: u is an array (R, n, Du, P) holding R witness
    rows of each of P prefixes, and batch (n, width, C) holds C last
    columns.  Returns an array (R, D, P·C) of little-endian coefficients,
    leaf p·C + j being prefix p with column j."""
    depth = batch.shape[1] + u.shape[2] - 1
    out = np.zeros((len(u), depth, u.shape[3], batch.shape[2]), dtype=batch.dtype)
    for y, row in zip(out, u):
        for e, c in zip(row, batch[:, :, None]):
            # with one prefix each coefficient stays a field element (a row
            # lookup in _mac); one that is 0 for every prefix is skipped
            coeffs = [int(v[0]) if len(v) == 1 else v[:, None] if v.any() else 0 for v in e]
            _mac(tbl, y, coeffs, c)
    return out.reshape(len(u), depth, -1)


def _degrees(w):
    """The degree of each column of a coefficient array (D, L); -1 for 0."""
    nonzero = w != 0
    top = len(w) - 1 - np.argmax(nonzero[::-1], axis=0)
    return np.where(nonzero.any(axis=0), top, -1)


def _h1_terms(q: int, h1, start: dict, top: int):
    """The terms of H1 (rows of coefficient tuples), start being each run's
    first position: an int64 array (top + 1, 2), per d the position of [H1,
    0; 0, x^d] and the weight of h's constant term (0 past t = top)."""
    n, parts = len(h1) + 1, [len(row[j]) - 1 for j, row in enumerate(h1)]
    above, pos = sum(j * tj for j, tj in enumerate(parts)), 0  # H1's digits above its diagonal
    for i, j in _cells(n - 1):  # H1's position in its own run
        pos = pos * q ** parts[j] + sum(c * q**e for e, c in enumerate(h1[i][j][: parts[j]]))
    diag, rest = divmod(pos, q**above)
    out = np.zeros((top + 1, 2), dtype=np.int64)
    for d in range(top + 1 - sum(parts)):
        w = q ** ((n - 1) * d)  # the weight of y' mod h's digits, the lowest
        out[d] = start[(*parts, d)] + w * (rest + diag * q ** (above + d)), w * q**above
    return out


def _leaf_keys(fld: GF, u, batch, terms):
    """The canonical form of each leaf of a batch (u and batch as in
    _images), in leaf order: an int64 array of positions (see above), -1
    for a singular leaf.  terms is an int64 array (P, D, 2), the _h1_terms of
    each prefix."""
    add, mul, neg, inv = tbl = tables(fld)
    y = _images(tbl, u, batch)
    w = y[-1]
    deg = _degrees(w)
    # the leaves of prefix p read row d of its terms; at d = 0, h = 1 and y' mod h = 0
    base, weight = terms[np.arange(len(terms))[:, None], deg.reshape(len(terms), -1)].reshape(-1, 2).T
    out = np.where(deg < 0, -1, base)
    for d in (np.flatnonzero(np.bincount(deg + 1)[2:]) + 1).tolist():
        sel = np.flatnonzero(deg == d)
        low = mul[inv[w[d, sel]], w[:d, sel]]  # monic(w) below x^d: (d, Lg)
        r = y[:-1, :, sel]
        minus = neg[low]
        for j in range(len(w) - 1, d - 1, -1):
            # take r[j] x^(j - d) h off r; r[j] itself is not read again
            r[:, j - d : j] = add[r[:, j - d : j], mul[r[:, j, None], minus]]
        # h's low coefficients at weight, and y' mod h, row n - 2 first, lowest
        residues = r[::-1, :d].reshape(-1, len(sel))
        out[sel] += weight[sel] * (fld.q ** np.arange(d, dtype=np.int64) @ low)
        out[sel] += fld.q ** np.arange(len(residues), dtype=np.int64) @ residues
    return out


def _check_scan(fld: GF, n: int, k: int, budget, what: str):
    """Refuse a scan of every n x n matrix of entry degree <= k for bad n or
    k, or over the budget: q^(n^2 (k+1)) items."""
    if n < 1 or k < 0:
        raise InvalidParams(f"{what} needs n >= 1 and k >= 0, got n = {n}, k = {k}")
    _budget(budget).check(fld.q, [n * n * (k + 1)], what)


def _census(fld: GF, n: int, k: int, budget, what: str, h1=None):
    """One walk over every n x n matrix of entry degree <= k: ``(buckets,
    singular)`` as in orbit_census.  With h1 given, only prefixes with that
    H1 are completed."""
    _check_scan(fld, n, k, budget, what)
    q, width = fld.q, k + 1
    total = q ** (n * width)
    chunk = _CENSUS_LEAVES
    per = max(1, chunk // total)  # prefixes per batch
    # the forms with t <= n k; the scan's budget check makes these powers cheap
    comps, firsts = _runs(q, n, range(n * k + 1))
    if firsts[-1] >= 1 << 63:
        raise BudgetExceeded(f"{what}: form indices up to {firsts[-1]} exceed the 64-bit index")
    start = dict(zip(comps, firsts))
    dtype = tables(fld)[0].dtype
    tally, terms, singular = np.zeros(0, dtype=np.int64), {}, 0  # sized by the first batch

    def columns(lo):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.intp)
        return np.array(digits(idx, q, n * width), dtype=dtype).reshape(n, width, -1)

    # decoded once if they fit in a batch, else per slice: one batch is held at most
    whole = columns(0) if total <= chunk else None
    # every entry's trimmed coefficients, by entry index (n = 1 has no entry)
    polys = [_trim(digits(e, q, width)) for e in range(q**width if n > 1 else 0)]
    prefixes = q ** (n * (n - 1) * width)
    for lo in range(0, prefixes, per):
        idx = np.arange(lo, min(lo + per, prefixes), dtype=np.int64)
        group = []  # the batch's full-rank prefixes with the H1 asked for: (h1, u)
        for entries in _prefix_entries(q, n, width, idx).transpose(2, 0, 1).tolist():
            try:
                h, u, _, _ = _hermite(fld, [[polys[e] for e in row] for row in entries])
            except SingularMatrix:
                singular += total
                continue
            h = tuple(tuple(map(tuple, row)) for row in h[: n - 1])
            # every completion of a prefix with another H1 lies in another orbit
            if h1 is None or h == h1:
                group.append((h, u))
        if not group:
            continue
        if not len(tally):
            tally = np.zeros(firsts[-1], dtype=np.int64)
        du = max(len(e) for p in group for row in p[1] for e in row)
        u = np.zeros((n, n, du, len(group)), dtype=dtype)
        for i, p in enumerate(group):
            for r, row in enumerate(p[1]):
                for c, e in enumerate(row):
                    u[r, c, : len(e), i] = e
        for h in {p[0] for p in group} - terms.keys():
            terms[h] = _h1_terms(q, h, start, n * k)
        at = np.array([terms[p[0]] for p in group])
        for j in range(0, total, chunk):
            keys = _leaf_keys(fld, u, columns(j) if whole is None else whole, at)
            singular += int(np.count_nonzero(keys < 0))
            np.add.at(tally, keys[keys >= 0], 1)
    at = np.flatnonzero(tally)
    keys = _forms(n, comps, firsts, at.tolist(), _cell_values(q, comps))
    return dict(zip(keys, tally[at].tolist())), singular


def count_orbit_bruteforce(rep: PolyMatrix, k: int, budget=None) -> int:
    """Scan every degree-<=k matrix and count those in the left orbit of rep
    (equal canonical form)."""
    if not rep.is_square():
        raise NotSquare(f"{rep.rows}x{rep.cols}")
    target = hnf(rep).h.key()
    h1 = tuple(row[:-1] for row in target[:-1])
    return _census(rep.field, rep.rows, k, budget, "orbit scan", h1)[0].get(target, 0)


def orbit_census(q, n: int, k: int, budget=None):
    """One full scan, bucketed by canonical form.

    Returns ``(buckets, singular)`` where buckets maps the canonical-form
    structural key to the number of degree-<=k matrices in that orbit.
    """
    return _census(_field(q), n, k, budget, "orbit census")


@dataclass(frozen=True)
class DetDegreeCensus:
    n: int
    q: int
    k: int
    buckets: dict = dc_field(default_factory=dict)  # det degree -> count
    singular: int = 0

    def total(self) -> int:
        return self.singular + sum(self.buckets.values())

    def to_json(self) -> dict:
        out = {str(t): str(c) for t, c in sorted(self.buckets.items())}
        out["singular"] = str(self.singular)
        return {"n": self.n, "q": self.q, "k": self.k, "buckets": out}


def _det_degree_counts(fld: GF, n: int, k: int, idx) -> dict:
    """The determinant degrees of every completion of the prefixes idx (an
    index array, digits as in _decode_matrix), counted: ``{degree: count}``,
    degree None for the singular ones (see above)."""
    q, width = fld.q, k + 1
    size, top = n * width, n * k  # spanning polynomials x^d C_i, and their top degree
    # the coefficients of each entry, column by column: an array (n - 1, n, width, L)
    entries = np.array(digits(_prefix_entries(q, n, width, idx), q, width)).transpose(2, 1, 0, 3)
    minors = _minors(tables(fld), entries, len(idx))
    # row i width + d of each system holds x^d C_i, from degree top down (C_i
    # up to its sign, which leaves the span alone): an array (top + 1, size, L)
    g = np.zeros((top + 1, size, len(idx)), dtype=np.intp)
    for i in range(n):
        cof = minors[tuple(range(i)) + tuple(range(i + 1, n))][::-1]
        for d in range(width):
            g[k - d : top + 1 - d, i * width + d] = cof
    _, ranks, pivots = rref(g.transpose(2, 1, 0), top + 1, fld)
    lead = pivots[:, ::-1]  # (L, top + 1): the leading degrees of W, lowest first
    fiber = size - ranks  # each value of W is the determinant of q^fiber completions
    # the j-th lowest leading degree is that of (q - 1) q^(j - 1) values of W,
    # so of (q - 1) q^(fiber + j - 1) completions
    below = np.cumsum(lead, axis=1) - 1 + fiber[:, None]
    counts = {None: solution_count(q, fiber)}
    for t in np.flatnonzero(lead.any(axis=0)).tolist():
        counts[t] = (q - 1) * solution_count(q, below[lead[:, t], t])
    return counts


def census_by_det_degree(n: int, q, k: int, budget=None) -> DetDegreeCensus:
    """Bucket counts by determinant degree over all degree-<=k matrices,
    counted per prefix, in batches of about _LEAF_CHUNK system entries."""
    fld = _field(q)
    _check_scan(fld, n, k, budget, "determinant census")
    q, width = fld.q, k + 1
    chunk = max(1, _LEAF_CHUNK // (n * width * (n * k + 1)))
    prefixes = q ** (n * (n - 1) * width)
    buckets = {}
    for lo in range(0, prefixes, chunk):
        idx = np.arange(lo, min(lo + chunk, prefixes), dtype=np.int64)
        for t, count in _det_degree_counts(fld, n, k, idx).items():
            buckets[t] = buckets.get(t, 0) + count
    singular = buckets.pop(None)
    return DetDegreeCensus(n, q, k, buckets, singular)


# -- determinants affine in one line -----------------------------------------
#
# det V is linear in any one line c of V (a row, or a column): det V is the
# sum over j of V_cj C_j, C_j being (-1)^(c+j) times the minor of the other
# lines on the columns other than j.  So when line c is base + sum_b x_b
# directions[b], with constant base and directions, det V is constant iff
# the coefficients of degree >= 1 of sum_b x_b directions[b]·C equal those
# of -base·C: one affine system in the x_b per choice of the other lines.


def _check_cofactors(budget: EnumerationBudget, n: int, what: str):
    """Refuse the line solves of n x n matrices when their cofactor
    expansion, the n 2^(n-1) products of ``polymat._minors`` per batch, is
    over the budget: checked on exponents, before any minor is built."""
    budget.check(2, [n - 1] * n, f"{what} (cofactor products)")


def _line_systems(fld: GF, lines, c: int, segments, size: int):
    """The systems of a batch of size matrices whose line c is base + sum_b
    x_b directions[b], reduced by one ``rref``: ``(reduced, ranks, pivots,
    ok)``, ok marking the consistent ones.  lines are the other n - 1 lines,
    each n coefficient lists as in polymat._mac.  segments are ``(lo, hi,
    base, directions)``: matrices lo..hi - 1 of the batch take line c from
    base, an array (n, E) of coefficients, and directions, an array (nb, n,
    E); every segment has the same nb and E (pad with zero directions, which
    add a free column that no system pivots on)."""
    add, mul, neg, _ = tbl = tables(fld)
    _, _, base, directions = segments[0]  # the shapes of every segment
    n, nb = len(lines) + 1, len(directions)
    minors = _minors(tbl, lines, size)
    cofs = [minors[tuple(range(j)) + tuple(range(j + 1, n))] for j in range(n)]
    cofs = [neg[m] if (c + j) % 2 else m for j, m in enumerate(cofs)]
    # g[b] holds the coefficients of directions[b]·C, and g[nb] those of
    # -base·C: a sum of cofactors, each scaled and shifted by one nonzero
    # coefficient (b, j, e) of the segment's vectors; the first of each b is
    # written
    g = np.zeros((nb + 1, base.shape[1] - 1 + max(map(len, cofs)), size), dtype=add.dtype)
    for lo, hi, base, directions in segments:
        vecs = np.concatenate([directions, neg[base][None]])
        part, cut = g[..., lo:hi], [m[:, lo:hi] for m in cofs]
        last = None
        for b, j, e, a in zip(*(x.tolist() for x in (*np.nonzero(vecs), vecs[vecs != 0]))):
            term = cut[j] if a == 1 else mul[a][cut[j]]
            at = slice(e, e + len(term))
            part[b, at] = add[part[b, at], term] if b == last else term
            last = b
    # a degree that no system of the batch reaches holds no pivot and no
    # inconsistency: its row is dropped before the elimination
    g = g[:, 1:]
    reduced, ranks, pivots = rref(g[:, g.any(axis=(0, 2))].transpose(2, 1, 0), nb, fld)
    return reduced, ranks, pivots, consistent(reduced, ranks, nb)


# -- the unipotent-at-zero family (constant term I) --------------------------
#
# Member idx of the family is the matrix whose free coefficients are the
# base-q digits of idx in _free_positions order.  The members are solved for
# in the column c with the largest bound (a line solve, see above), one
# system per choice of the other columns; the budget is checked on the
# systems and members, not on the q^(n sum(bounds)) candidates, whose
# indices need only fit in an int64.  _p_systems yields each batch once:
# its solutions and its leading layers, read off its digits.  Members are
# counted by their run of independent leading layers (columns n, n-1, ...,
# 1).  Column c's layer, its last n unknowns, has `top` free columns, whose
# basis rows come first, so the solutions project onto it as the
# particular's last n entries plus their span (the other rows are 0 there):
# q^(free - top) members a point.


def _free_positions(n: int, bounds):
    """Free coefficient slots (i, j, d) for the constant-term-I scan, in index
    order (least significant first)."""
    return [(i, j, d) for j, kj in enumerate(bounds) for d in range(1, kj + 1) for i in range(n)]


def _family_entries(fld: GF, bounds, idx):
    """The entries of the constant-term-I family members idx (an int or an
    index array): entry (i, j) is the coefficient list
    [delta_ij, v_ij1, ..., v_ijk_j], each v an int or an array of idx's
    shape."""
    n = len(bounds)
    positions = _free_positions(n, bounds)
    entries = [[[int(i == j)] for j in range(n)] for i in range(n)]
    for (i, j, _), v in zip(positions, digits(idx, fld.q, len(positions))):
        entries[i][j].append(v)
    return entries


def _decode_p_member(fld: GF, bounds, idx: int) -> PolyMatrix:
    """Candidate idx of the constant-term-I family as a matrix."""
    return PolyMatrix([[Poly(fld, e) for e in row] for row in _family_entries(fld, bounds, idx)])


def _span_points(tbl, base, basis, free):
    """The points of the affine spaces base[s] + span(basis[s, :free[s]]):
    ``(points, owner)``, an array (M, U) of field elements with M = sum of
    q^free[s], and the space s of each point.  base is an array (S, U), basis
    (S, F, U) with F >= max(free); each step adds every nonzero multiple of
    one more direction to the points of the spaces that have it."""
    add, mul = tbl[0], tbl[1]
    points, owner = base, np.arange(len(base))
    for k in range(basis.shape[1]):
        grow = np.flatnonzero(free[owner] > k)
        src, step = points[grow], basis[owner[grow], k]
        points = np.concatenate([points] + [add[src, mul[t][step]] for t in range(1, len(add))])
        owner = np.concatenate([owner] + [owner[grow]] * (len(add) - 1))
    return points, owner


def _solutions(fld: GF, base, basis, free):
    """The points of the affine spaces of _span_points, in pieces of about
    _LEAF_CHUNK: ``(points, owner)``.  Each space's last directions are
    spread first, so that no piece holds much more than _LEAF_CHUNK points."""
    tbl = tables(fld)
    base, basis = base.astype(tbl[0].dtype), basis.astype(tbl[0].dtype)
    g = 0  # directions spread per piece: q^g <= _LEAF_CHUNK
    while fld.q ** (g + 1) <= _LEAF_CHUNK:
        g += 1
    heads, first = _span_points(tbl, base, basis[:, g:], np.maximum(free - g, 0))
    low = np.minimum(free, g)[first]
    ends = np.cumsum(fld.q**low)
    for piece in np.split(np.arange(len(heads)), np.flatnonzero(np.diff(ends // _LEAF_CHUNK)) + 1):
        points, owner = _span_points(tbl, heads[piece], basis[first[piece], :g], low[piece])
        yield points, first[piece][owner]


def _p_systems(fld: GF, bounds: tuple, max_items: int):
    """The column solve (see above), its budget checked on the call: ``(c,
    batches)``, c the solved column, batches yielding ``(idx, base, basis,
    free, top, layers)`` per batch of consistent choices idx (column c's
    digits 0): their solutions base + span(basis[:free]), the free columns
    top of column c's layer, and their leading layers, an array (L, n, n)."""
    if any(b < 0 for b in bounds) or not bounds:
        raise InvalidParams(f"bad bounds {bounds}")
    n, q = len(bounds), fld.q
    what = "unipotent family solve"
    total_k = sum(bounds)
    c = bounds.index(max(bounds))
    budget = EnumerationBudget(max_items=max_items)
    # the choices of the other columns, then the members of their zero choice
    # alone: there det V = V[c][c], which must be 1, and the other n - 1
    # entries of column c are free
    budget.check(q, [n * (total_k - bounds[c])], f"{what} (systems)")
    budget.check(q, [(n - 1) * bounds[c]], f"{what} (members)")
    _check_cofactors(budget, n, what)
    width = n * total_k
    if width * (q.bit_length() - 1) >= 63 or q**width >= 1 << 63:
        raise BudgetExceeded(f"{what}: member indices up to {q}^{width} exceed the 64-bit index")
    lo = n * sum(bounds[:c])  # index digits of the columns before c
    unk = n * bounds[c]  # v_icd is unknown (d - 1) n + i, index digit lo + (d - 1) n + i
    # column c is e_c plus v_icd times x^d e_i: rows c and n + (d - 1) n + i
    # of an identity, read as coefficient layers (k_c + 1, n)
    unit = np.eye(n * (bounds[c] + 1), dtype=np.intp).reshape(-1, bounds[c] + 1, n)
    base, directions = unit[c].T, unit[n:].transpose(0, 2, 1)
    outer = q ** (n * (total_k - bounds[c]))
    chunk = max(1, _LEAF_CHUNK // max(1, total_k * (unk + 1)))

    def batches():
        count = 0
        for start in range(0, outer, chunk):
            o = np.arange(start, min(start + chunk, outer), dtype=np.int64)
            # the choice's digits around the zero digits of column c
            idx = o % q**lo + o // q**lo * q ** (lo + unk)
            entries = _family_entries(fld, bounds, idx)
            lines = [[row[j] for row in entries] for j in range(n) if j != c]
            segments = [(0, len(o), base, directions)]
            reduced, ranks, pivots, ok = _line_systems(fld, lines, c, segments, len(o))
            count += solution_count(q, unk - ranks[ok])
            if count > max_items:
                raise BudgetExceeded(f"{what}: {count} members exceed budget {max_items}")
            particulars, basis, free = affine_solutions(reduced[ok], ranks[ok], pivots[ok], fld)
            # row j of the layers: the last coefficient of each entry of
            # column j, v_ijk_j, or delta_ij when k_j = 0
            layers = np.zeros((len(o), n, n), dtype=np.intp)
            for i, j in product(range(n), repeat=2):
                layers[:, j, i] = entries[i][j][-1]
            top = (~pivots[ok, -n:]).sum(axis=1)
            yield idx[ok], particulars[:, 0], basis, free, top, layers[ok]

    return c, batches()


def _p_member_pieces(fld: GF, bounds: tuple, max_items: int):
    """The member indices of the family by the column solve (see above), in
    pieces of fewer than 2 _LEAF_CHUNK members, in no fixed order."""
    c, batches = _p_systems(fld, bounds, max_items)
    # column c's unknowns are the index digits from n sum(bounds[:c]) on
    weights = fld.q ** (len(bounds) * sum(bounds[:c]) + np.arange(len(bounds) * bounds[c]))
    for idx, base, basis, free, _, _ in batches:
        for points, owner in _solutions(fld, base, basis, free):
            yield idx[owner] + points.dot(weights)


# perfbench clears this cache (workloads.py) and reads its cache_info()
# (layers.py), so it keeps its name and stays an lru_cache
@lru_cache(maxsize=64)
def _p_members_cached(fld: GF, bounds: tuple, max_items: int):
    """hist[r], r = 0..n: the number of members with a run of r independent
    leading layers (see above), the run being the all-pivot prefix of the
    ``rref`` of each projected point's layers."""
    n, hist = len(bounds), [0] * (len(bounds) + 1)
    c, batches = _p_systems(fld, bounds, max_items)
    for _, base, basis, free, top, layers in batches:
        for points, owner in _solutions(fld, base[:, -n:], basis[:, :n, -n:], top):
            piece = layers[owner]
            if bounds[c]:  # when k_c = 0, row c is e_c and there is nothing to project
                piece[:, c] = points
            masks = rref(piece[:, ::-1].transpose(0, 2, 1), n, fld)[2]
            run = np.logical_and.accumulate(masks, axis=1).sum(axis=1)
            fiber = (free - top)[owner]  # members per point: q^fiber
            hist = [h + solution_count(fld.q, fiber[run == r]) for r, h in enumerate(hist)]
    return tuple(hist)


def p_members(bounds, q, budget=None):
    """All unimodular matrices with constant term I and per-column degree
    bounds, in index order."""
    fld = _field(q)
    bounds = tuple(bounds)
    members = np.sort(np.concatenate([*_p_member_pieces(fld, bounds, _budget(budget).max_items)]))
    return tuple(_decode_p_member(fld, bounds, i) for i in members.tolist())


def count_P_bruteforce(bounds, q, budget=None) -> int:
    """Brute-force cardinality of the constant-term-I unimodular family.

    Also asserts, on every member, that the top coefficient-layer vectors are
    linearly dependent whenever any bound is positive (a consequence of the
    determinant being constant).
    """
    fld = _field(q)
    bounds = tuple(bounds)
    hist = _p_members_cached(fld, bounds, _budget(budget).max_items)
    if sum(bounds) >= 1 and hist[-1]:
        shown = f"{hist[-1]} members of {bounds} over F_{fld.q}"
        raise AssertionError(f"independent leading layers in {shown}")
    return sum(hist)


def count_QR_bruteforce(kind: str, i: int, bounds, q, budget=None) -> int:
    """Brute-force count of family members whose leading layers from column i
    on are linearly dependent (kind "R"), with independence from column i+1 on
    additionally required for kind "Q"."""
    if kind not in ("Q", "R"):
        raise InvalidParams(f"kind must be 'Q' or 'R', got {kind!r}")
    bounds = tuple(bounds)
    n = len(bounds)
    if not 1 <= i <= n:
        raise PreconditionViolation(f"index i = {i} outside [1, {n}]")
    hist = _p_members_cached(_field(q), bounds, _budget(budget).max_items)
    # the layers n, n-1, ..., i are the first n - i + 1 (see _p_members_cached)
    return hist[n - i] if kind == "Q" else sum(hist[: n - i + 1])


# -- canonical form enumeration ----------------------------------------------
#
# A canonical form's one index is its position in the walk: the runs of the
# compositions (t_1, ..., t_n) in _compositions order, and in a run, a
# position read in base q, least significant digit first, lays t_j digits
# (coefficients below x^t_j, lowest first) on each cell of column j, the
# cells in reverse walk order (_cells): the first diagonal cell is highest.


def _cells(n: int):
    """The cells of an n x n form in walk order: the diagonal, then the rest by column."""
    return [(j, j) for j in range(n)] + [(i, j) for j in range(n) for i in range(j)]


def _runs(q: int, n: int, ts):
    """The compositions of each t in ts in walk order, and the first position
    of each one's run, then the number of forms."""
    comps = [parts for t in ts for parts in _compositions(t, n)]
    sizes = (q ** sum((j + 1) * tj for j, tj in enumerate(parts)) for parts in comps)
    return comps, list(accumulate(sizes, initial=0))


def _cell_values(q: int, comps):
    """Per part t_j of comps, the q^t_j values of a cell of column j in digit
    order: those above the diagonal, and those on it."""
    low = {d: [digits(v, q, d) for v in range(q**d)] for d in {0, *chain(*comps)}}
    return {d: ([_trim(c) for c in cs], [(*c, 1) for c in cs]) for d, cs in low.items()}


def _forms(n: int, comps, firsts, positions, values):
    """The forms at positions (ascending ints) of _runs' runs, as tuples of
    rows, each cell one of values (as _cell_values gives them, or their images)."""
    zero = values[0][0][0]
    for parts, lo, hi in zip(comps, firsts, firsts[1:]):
        cells = [(i, j, len(values[parts[j]][0]), values[parts[j]][i == j]) for i, j in _cells(n)[::-1]]
        for pos in positions[bisect_left(positions, lo) : bisect_left(positions, hi)]:
            pos -= lo
            rows = [[zero] * n for _ in range(n)]
            for i, j, radix, cell in cells:
                pos, c = divmod(pos, radix)
                rows[i][j] = cell[c]
            yield tuple(map(tuple, rows))


def _rep_runs(n: int, q, t: int, budget):
    """The field and _runs of the forms of determinant degree t, bad n or t and budget checked."""
    fld = _field(q)
    if n < 1 or t < 0:
        raise InvalidParams(f"canonical forms need n >= 1 and t >= 0, got n = {n}, t = {t}")
    exponents = (sum((j + 1) * tj for j, tj in enumerate(p)) for p in _compositions(t, n))
    _budget(budget).check(fld.q, exponents, "canonical form enumeration")
    return (fld, *_runs(fld.q, n, [t]))


def iter_hnf_rep_keys(n: int, q, t: int, budget=None):
    """The keys of the canonical forms with determinant degree t, positions 0
    .. c_nt - 1 of the walk; bad n or t and the budget are checked on the call."""
    fld, comps, firsts = _rep_runs(n, q, t, budget)
    return _forms(n, comps, firsts, range(firsts[-1]), _cell_values(fld.q, comps))


def enumerate_hnf_reps(n: int, q, t: int, budget=None):
    """Every canonical form with determinant degree t, exactly once, in walk order."""
    fld, comps, firsts = _rep_runs(n, q, t, budget)
    cells = _cell_values(fld.q, comps)
    values = {d: [[Poly(fld, c) for c in cs] for cs in pair] for d, pair in cells.items()}
    return [PolyMatrix(rows) for rows in _forms(n, comps, firsts, range(firsts[-1]), values)]


# -- the closed forms against the census -------------------------------------


def _key_t(key) -> int:
    """Determinant degree of a canonical form, from its structural key."""
    return sum(len(key[i][i]) - 1 for i in range(len(key)))


def verify_grid(grid, budget=None):
    """Compare scan censuses against the closed forms over a grid of
    (n, q, max_k) triples.  Returns (reports, all_match).  A grid that would
    check nothing (empty, or a triple with n < 1 or max_k < 0), or has a bad
    q or a max_k scan over the budget, is refused before the first scan."""
    grid = tuple(grid)
    if not grid:
        raise InvalidParams("verify grid is empty")
    for n, q, kmax in grid:
        if n < 1 or kmax < 0:
            raise InvalidParams(f"verify grid triple {n},{q},{kmax} needs n >= 1 and kmax >= 0")
        _check_scan(_field(q), n, kmax, budget, "orbit census")
    reports = []

    def check(params, t, kind, want, got):
        reports.append(counting.CountReport.compare({**params, "t": t, "kind": kind}, want, got))

    for n, q, kmax in grid:
        for k in range(kmax + 1):
            params = {"n": n, "q": q, "k": k}
            buckets, _ = orbit_census(q, n, k, budget)
            by_t = {}  # the census grouped by t
            for key, cnt in sorted(buckets.items()):
                t = _key_t(key)
                by_t.setdefault(t, {})[key] = cnt
                # every orbit with t <= k must hit the closed form exactly
                if t <= k:
                    check(params, t, "orbit", counting.orbit_count_formula(n, q, t, k), cnt)
            for t in range(k + 1):
                want = counting.total_count_formula(n, q, t, k)
                check(params, t, "total", want, sum(by_t.get(t, {}).values()))
            # the canonical forms observed must be enumerated ones, and for
            # t <= k the scan holds every one of them; the oracle value counts
            # each missing or stray form on top of the enumerated ones
            for t in sorted(set(by_t) | set(range(k + 1))):
                want = set(iter_hnf_rep_keys(n, q, t, budget))
                got = by_t.get(t, {}).keys()
                wrong = got ^ want if t <= k else got - want
                check(params, t, "rep-inventory", len(want), len(want) + len(wrong))
    return reports, all(r.match for r in reports)


# -- orbit-side exact counting ----------------------------------------------


def count_orbit_members(rep: PolyMatrix, k: int, budget=None) -> int:
    """Exact count of degree-<=k matrices in the left orbit of rep, by direct
    enumeration of the orbit side: ``_member_counts`` on a batch of one, its
    canonical form.  Cross-checked against the ambient scan and the per-choice
    reference in the test suite."""
    if not rep.is_square():
        raise NotSquare(f"{rep.rows}x{rep.cols}")
    h = _hermite(rep.field, [[e.coeffs for e in row] for row in rep.entries])[0]
    _check_k(k)
    return _member_counts(rep.field, rep.rows, [(h, k)], budget)[0]


def _check_k(low: int):
    """Refuse k = low < 0: the box there holds only the zero matrix, so no orbit has a member."""
    if low < 0:
        raise InvalidParams(f"orbit member count needs k >= 0, got k = {low}")


def _member_counts(fld: GF, n: int, forms, budget) -> list:
    """The orbit member counts of (H, k) pairs in one pass: forms an
    iterable of them, H a canonical n x n form over fld as rows of
    coefficient lists (as ``PolyMatrix.key`` or ``polymat._hermite`` give
    them), k >= 0 (callers refuse k < 0 first, by _check_k).

    Members are U*H with U unimodular; factoring U by its constant term
    leaves the unimodular V with V(0) = I and V*H of entry degree <= k.  The
    rows of V range over affine spaces v_i = p_i + span(B), one nullspace B
    for every row.  One ``rref`` solves the systems of every form, one
    gather of their coefficients: v_j[d] is column j K + d - 1 for K = max
    k, held at 0 past k by rows up to the top degree of V*H.  The budget is
    checked per consistent form, in input order, and forms are drawn from
    the input only as far as the first refusal.  One ``_solutions`` walk
    yields the choices of the first n - 1 rows of every form, and the last
    row is counted by a line solve (see _line_systems), one segment per form
    in each batch: q^(nb - rank) solutions per consistent system, nb the
    form's nullity, past which the codec's basis is zero.  A 1x1 orbit
    {c·h : c in F_q^*} is counted at once.
    """
    q = fld.q
    if n == 1:
        return [(q - 1) * (len(H[0][0]) <= k + 1) for H, k in forms]
    budget = _budget(budget)

    def check(nullities, start: int):  # in input order, the cofactors after the first
        for i, nb in enumerate(nullities, start):
            budget.check(q, [(n - 1) * nb], "orbit member enumeration")
            if not i:
                _check_cofactors(budget, n, "orbit member enumeration")

    # a form with t <= k has independent rows, so nullity n k - t: the forms
    # before the first with t > k are checked as they are drawn, before any
    # system is built
    rest, forms, early = iter(forms), [], 0
    for H, k in rest:
        forms.append((H, k))
        if _key_t(H) > k:
            break
        check([n * k - _key_t(H)], early)
        early += 1
    forms += rest
    low, K = min(k for _, k in forms), max(k for _, k in forms)
    nunk = n * K
    entries = [h for H, _ in forms for col in zip(*H) for h in col]
    lens = np.array([len(h) for h in entries])
    W, neg = lens.max(), tables(fld)[2]
    Z = 3 * K + W - low  # hc[f, c, j Z + K + d] = H_jc[d], 0 unless 0 <= d < W
    hc = np.zeros((len(forms), n, n * Z), dtype=neg.dtype)
    at = np.repeat(np.arange(len(lens)) * Z + K - np.cumsum(lens) + lens, lens)
    hc.flat[at + np.arange(len(at))] = np.fromiter(chain.from_iterable(entries), neg.dtype, len(at))
    # coefficient dp > k of column c of v_i H vanishes: A v_i = b_i, a row per
    # (c, dp), dp - k = 1..K + W - 1 - min k: H_jc[dp - d] at v_j[d] (d >= 1),
    # -H_ic[dp] in b_i.  No row pins v_j[d] = 0 for d > k: the rows reach
    # K + W - 1, the top of v_i H, and H is triangular, each entry of lower
    # degree than the diagonal t_c below it, so by induction over c,
    # deg (v_i H)_c <= k forces deg v_ic <= max(k - t_c, k - 1)
    off = np.r_[(np.arange(n)[:, None] * Z - np.arange(1, K + 1)).ravel(), np.arange(n) * Z]
    dp = np.array([k for _, k in forms])[:, None, None, None] + np.arange(1, K + W - low)[:, None]
    a = hc[np.arange(len(forms))[:, None, None, None], np.arange(n)[:, None, None], K + dp + off]
    a[..., nunk:] = neg[a[..., nunk:]]
    reduced, ranks, pivots = rref(a[:, a.any(axis=(0, 3))], nunk, fld)
    # an inconsistent system leaves no member: some row of V*H cannot have
    # entry degree <= k
    live = np.flatnonzero(consistent(reduced, ranks, nunk))
    counts = [0] * len(forms)
    if not len(live):
        return counts
    check((nunk - ranks[live[live >= early]]).tolist(), early)
    particulars, basis, nb = affine_solutions(reduced[live], ranks[live], pivots[live], fld)
    size, width = basis.shape[:2]

    # the choices of rows 0..n-2 are the points of one affine space per form:
    # base p_0..p_(n-2) side by side, basis B once per row, block-diagonal,
    # direction f of row i at f (n - 1) + i: a form's (n - 1) nb directions lead
    base = particulars[:, :-1].reshape(size, -1)
    spans = np.zeros((size, width, n - 1, n - 1, nunk), dtype=np.intp)
    for i in range(n - 1):
        spans[:, :, i, i] = basis
    spans = spans.reshape(size, width * (n - 1), (n - 1) * nunk)
    # the last row as coefficient arrays (n, K + 1): e_(n-1) plus its
    # particular, then its directions (zero past nb); the constant layer is 0
    line = np.zeros((size, width + 1, n, K + 1), dtype=np.intp)
    line[..., 1:] = np.concatenate([particulars[:, -1:], basis], 1).reshape(size, width + 1, n, K)
    line[:, 0, n - 1, 0] = 1
    # a last-row system has at most n K rows (degrees 1..deg det V): a batch
    # of them, an array (L, <= n K, width + 1), holds about _LEAF_CHUNK
    # entries.  hist counts the consistent systems by (form, nb - rank)
    chunk = max(1, _LEAF_CHUNK // (max(nunk, 1) * (width + 1)))
    hist = np.zeros((size, width + 1), dtype=np.int64)
    for points, owner in _solutions(fld, base, spans, (n - 1) * nb):
        order = np.argsort(owner, kind="stable")  # each form's choices in one run
        for lo in range(0, len(points), chunk):
            at = order[lo : lo + chunk]
            choices, who = points[at], owner[at]
            v = choices.T.reshape(n - 1, n, K, len(choices))
            rows = [[[int(i == c), *v[i, c]] for c in range(n)] for i in range(n - 1)]
            cuts = [0, *(np.flatnonzero(np.diff(who)) + 1), len(who)]
            segments = [(i, j, line[who[i], 0], line[who[i], 1:]) for i, j in zip(cuts, cuts[1:])]
            _, ranks, _, ok = _line_systems(fld, rows, n - 1, segments, len(choices))
            np.add.at(hist, (who[ok], (nb[who] - ranks)[ok]), 1)
    gl = gl_count(n, q)
    for s, row in zip(live.tolist(), hist.tolist()):
        counts[s] = gl * sum(c * q**f for f, c in enumerate(row))
    return counts
