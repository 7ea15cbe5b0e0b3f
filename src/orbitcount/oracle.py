"""Exhaustive enumeration ground truth for every counting formula.

All enumerations are exact and refuse up front when the scan would exceed the
budget.  ``iter_matrices`` walks the matrix index space in index order:
row-major over entries with little-endian coefficient digits (entry (0,0)
coefficient 0 is the least significant digit).  The ambient censuses visit
the same matrices grouped by their first n - 1 columns and return buckets,
whose counts do not depend on the order of the walk.  The ambient scans, the
unipotent-family scan and the orbit-side member counter compute over F_q[x]
in numpy batches through one multiply-accumulate kernel (``_mac``) on the
field's tables (``fields.tables``), for every field and every n.  Their
linear algebra (the Lemma 2 leading-layer ranks, and the row spaces and
last-row systems of ``count_orbit_members``) runs whole batches through the
one elimination kernel, ``linalg.rref``; the budget is checked on exponents,
so no refused cost is ever computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import product

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
from .linalg import affine_solutions, rref
# oracle calls none of these four itself; the traced benchmark run
# (perfbench/layers.py) patches each of them under this module's name as
# well, so the names stay importable from here
from .linalg import iter_affine_space, rank, solve_affine
from .polymat import det
from .poly import NEG_INF, Poly
from .polymat import PolyMatrix, hnf

DEFAULT_MAX_ITEMS = 10**8


@dataclass(frozen=True)
class EnumerationBudget:
    max_items: int = DEFAULT_MAX_ITEMS

    def check(self, q: int, exponents, what: str):
        """Refuse a scan of sum(q**e for e in exponents) items over the budget.

        Exponents are compared first: q**e >= 2**e exceeds max_items once e
        reaches its bit length, so no power past the budget is ever built,
        and the refused cost prints as q^e.
        """
        limit = self.max_items.bit_length()
        cost = 0
        for e in exponents:
            if e >= limit or cost + q**e > self.max_items:
                shown = f"{cost} + {q}^{e}" if cost else f"{q}^{e}"
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
    """All n x n matrices with entry degrees <= k, in index order."""
    fld = _field(q)
    for idx in range(fld.q ** (n * n * (k + 1))):
        yield _decode_matrix(fld, n, n, k + 1, idx)


# -- ambient scans -----------------------------------------------------------
#
# The scans visit every n x n matrix M = [M1 | c] of entry degree <= k,
# grouped by its first n - 1 columns M1 (the prefix).  hnf reduces each
# prefix once, to u @ M1 = [H1; 0] with H1 canonical.  For each last column
# c let y = u @ c and w = y_n.  Row n of u @ M vanishes on the prefix
# columns, so reducing the last column leaves H1 alone: M is singular iff
# w = 0 (or the prefix is rank-deficient), and otherwise its canonical form
# is [H1, y' mod h; 0, h] with h = monic(w) and y' the first n - 1 entries of
# y, and deg det M = deg det H1 + deg w.  This is the column-wise Hermite
# reduction of Storjohann, Algorithms for Matrix Canonical Forms (ETH 2000).

_LEAF_CHUNK = 1 << 16  # last columns, unipotent candidates or members per numpy batch


def _check_scan(fld: GF, n: int, k: int, budget, what: str):
    if n < 1 or k < 0:
        raise InvalidParams(f"{what} needs n >= 1 and k >= 0, got n = {n}, k = {k}")
    _budget(budget).check(fld.q, [n * n * (k + 1)], what)


def _mac(tbl, acc, a, b):
    """acc + a·b, written into acc, for a batch of L polynomial products.

    acc and b hold little-endian coefficients as arrays (D, L); each
    coefficient of a is a field element or an array (L,) of them.  acc needs
    len(a) + len(b) - 1 rows.
    """
    add, mul = tbl[0], tbl[1]
    width = len(b)
    for i, c in enumerate(a):
        if not isinstance(c, int):
            term = mul[c, b]
        elif c:
            term = mul[c][b]  # a row lookup: cheaper than mul[c, b]
        else:
            continue
        acc[i : i + width] = add[acc[i : i + width], term]


def _det(tbl, m, size: int):
    """The determinants of a batch of size square matrices, by cofactor
    expansion along column 0: m is a list of rows, each entry a coefficient
    list as in _mac.  Returns an array (D, size)."""
    if not m:
        return np.ones((1, size), dtype=np.intp)
    neg = tbl[2]
    minors = [_det(tbl, [r[1:] for r in m[:i] + m[i + 1 :]], size) for i in range(len(m))]
    depth = max(len(r[0]) + len(d) - 1 for r, d in zip(m, minors))
    acc = np.zeros((depth, size), dtype=np.intp)
    for i, (r, d) in enumerate(zip(m, minors)):
        _mac(tbl, acc, r[0], neg[d] if i % 2 else d)
    return acc


def _prefixes(fld: GF, n: int, width: int):
    """Every choice of the first n - 1 columns, reduced once.

    Yields ``(h1, t1, u)``: the rows of H1 as coefficient-tuple keys, deg det
    H1, and the rows of the witness u as polynomials; or ``None`` for a
    rank-deficient prefix, all of whose completions are singular.
    """
    if n == 1:
        yield (), 0, ((Poly.one(fld),),)
        return
    for idx in range(fld.q ** (n * (n - 1) * width)):
        try:
            form = hnf(_decode_matrix(fld, n, n - 1, width, idx))
        except SingularMatrix:
            yield None
            continue
        yield form.h.key()[: n - 1], form.det_degree, form.u.entries


def _leaf_batches(fld: GF, n: int, width: int):
    """A function returning the last columns as digit arrays of shape
    (n, width, L), in batches of at most _LEAF_CHUNK columns.  A single batch
    is decoded once and shared by every prefix of the scan."""
    q, total = fld.q, fld.q ** (n * width)

    def decode(lo, hi):
        idx = np.arange(lo, hi, dtype=np.intp)
        return np.array(digits(idx, q, n * width)).reshape(n, width, hi - lo)

    if total <= _LEAF_CHUNK:
        batch = (decode(0, total),)
        return lambda: batch
    return lambda: (
        decode(lo, min(lo + _LEAF_CHUNK, total)) for lo in range(0, total, _LEAF_CHUNK)
    )


def _images(fld: GF, rows, batch):
    """r @ c for each row r of polynomials and each column c of the batch,
    through the field tables: an array (len(rows), D, L) of little-endian
    coefficients."""
    tbl = tables(fld)
    depth = batch.shape[1] - 1 + max(len(e.coeffs) for r in rows for e in r)
    out = np.zeros((len(rows), depth, batch.shape[2]), dtype=np.intp)
    for y, r in zip(out, rows):
        for e, c in zip(r, batch):
            _mac(tbl, y, e.coeffs, c)
    return out


def _degrees(w):
    """The degree of each column of a coefficient array (D, L); -1 for 0."""
    nonzero = w != 0
    top = len(w) - 1 - np.argmax(nonzero[::-1], axis=0)
    return np.where(nonzero.any(axis=0), top, -1)


def _leaf_keys(fld: GF, h1, u, batch):
    """The canonical-form key of each completion of a prefix in the batch,
    or None for a singular one."""
    _, mul, _, inv = tables(fld)
    y = _images(fld, u, batch)
    w = y[-1]
    lead = w[np.maximum(_degrees(w), 0), np.arange(w.shape[1])]
    y[-1] = mul[inv[lead], w]  # monic; w = 0 stays 0
    zeros = ((),) * len(h1)
    for ys in y.transpose(2, 0, 1).tolist():
        h = Poly(fld, ys[-1])
        if not h:
            yield None
            continue
        above = tuple(row + ((Poly(fld, c) % h).coeffs,) for row, c in zip(h1, ys))
        yield above + (zeros + (h.coeffs,),)


def count_orbit_bruteforce(rep: PolyMatrix, k: int, budget=None) -> int:
    """Scan every degree-<=k matrix and count those in the left orbit of rep
    (equal canonical form)."""
    if not rep.is_square():
        raise NotSquare(f"{rep.rows}x{rep.cols}")
    fld = rep.field
    n = rep.rows
    target = hnf(rep).h.key()
    _check_scan(fld, n, k, budget, "orbit scan")
    target_h1 = tuple(row[: n - 1] for row in target[: n - 1])
    leaves = _leaf_batches(fld, n, k + 1)
    count = 0
    for prefix in _prefixes(fld, n, k + 1):
        # every completion of a prefix with another H1 lies in another orbit
        if prefix is None or prefix[0] != target_h1:
            continue
        h1, _, u = prefix
        for batch in leaves():
            count += sum(key == target for key in _leaf_keys(fld, h1, u, batch))
    return count


def orbit_census(q, n: int, k: int, budget=None):
    """One full scan, bucketed by canonical form.

    Returns ``(buckets, singular)`` where buckets maps the canonical-form
    structural key to the number of degree-<=k matrices in that orbit.
    """
    fld = _field(q)
    _check_scan(fld, n, k, budget, "orbit census")
    leaves = _leaf_batches(fld, n, k + 1)
    buckets = {}
    singular = 0
    for prefix in _prefixes(fld, n, k + 1):
        if prefix is None:
            singular += fld.q ** (n * (k + 1))
            continue
        h1, _, u = prefix
        for batch in leaves():
            for key in _leaf_keys(fld, h1, u, batch):
                if key is None:
                    singular += 1
                else:
                    buckets[key] = buckets.get(key, 0) + 1
    return buckets, singular


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


def census_by_det_degree(n: int, q, k: int, budget=None) -> DetDegreeCensus:
    """Bucket counts by determinant degree over all degree-<=k matrices."""
    fld = _field(q)
    _check_scan(fld, n, k, budget, "determinant census")
    leaves = _leaf_batches(fld, n, k + 1)
    buckets = {}
    singular = 0
    for prefix in _prefixes(fld, n, k + 1):
        if prefix is None:
            singular += fld.q ** (n * (k + 1))
            continue
        _, t1, u = prefix
        for batch in leaves():
            degree = _degrees(_images(fld, u[-1:], batch)[0])
            live = degree >= 0
            singular += live.size - int(np.count_nonzero(live))
            for d, c in enumerate(np.bincount(degree[live]).tolist()):
                if c:
                    buckets[t1 + d] = buckets.get(t1 + d, 0) + c
    return DetDegreeCensus(n, fld.q, k, buckets, singular)


# -- the unipotent-at-zero family (constant term I) --------------------------


def _free_positions(n: int, bounds):
    """Free coefficient slots (i, j, d) for the constant-term-I scan, in index
    order (least significant first)."""
    return [
        (i, j, d)
        for j, kj in enumerate(bounds)
        for d in range(1, kj + 1)
        for i in range(n)
    ]


def _decode_p_member(fld: GF, bounds, idx: int) -> PolyMatrix:
    """Candidate idx of the constant-term-I family as a matrix."""
    n = len(bounds)
    positions = _free_positions(n, bounds)
    coeff = [[[0] * (max(bounds) + 1) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        coeff[i][i][0] = 1
    for (i, j, d), v in zip(positions, digits(idx, fld.q, len(positions))):
        coeff[i][j][d] = v
    return PolyMatrix([[Poly(fld, coeff[i][j]) for j in range(n)] for i in range(n)])


@lru_cache(maxsize=64)
def _p_members_cached(fld: GF, bounds: tuple, max_items: int):
    """The indices of the unimodular candidates, in index order, as a
    read-only array."""
    # entry (i, j) of a candidate V is [delta_ij, v_ij1, ..., v_ijk_j], its
    # free coefficients digit arrays over a batch of candidate indices
    n = len(bounds)
    EnumerationBudget(max_items=max_items).check(fld.q, [n * sum(bounds)], "unipotent family scan")
    positions = _free_positions(n, bounds)
    total = fld.q ** len(positions)
    tbl = tables(fld)
    found = []
    for lo in range(0, total, _LEAF_CHUNK):
        idx = np.arange(lo, min(lo + _LEAF_CHUNK, total), dtype=np.intp)
        v = [[[int(i == j)] for j in range(n)] for i in range(n)]
        for (i, j, _), c in zip(positions, digits(idx, fld.q, len(positions))):
            v[i][j].append(c)
        d = _det(tbl, v, len(idx))
        found.append(idx[(d[1:] == 0).all(axis=0) & (d[0] != 0)])
    members = np.concatenate(found)
    members.flags.writeable = False
    return members


def _member_chunks(bounds: tuple, fld: GF, budget):
    """The member indices, in batches of at most _LEAF_CHUNK."""
    if any(b < 0 for b in bounds) or not bounds:
        raise InvalidParams(f"bad bounds {bounds}")
    members = _p_members_cached(fld, bounds, _budget(budget).max_items)
    return [members[lo : lo + _LEAF_CHUNK] for lo in range(0, len(members), _LEAF_CHUNK)]


def p_members(bounds, q, budget=None):
    """All unimodular matrices with constant term I and per-column degree
    bounds, in index order."""
    fld = _field(q)
    bounds = tuple(bounds)
    return tuple(
        _decode_p_member(fld, bounds, i)
        for idx in _member_chunks(bounds, fld, budget)
        for i in idx.tolist()
    )


def _leading_layers(fld: GF, bounds, idx):
    """The leading layers of the family members idx, straight from their
    digits: an array (L, n, n) whose row j is the vector of degree-k_j
    coefficients of column j (e_j when k_j = 0)."""
    n = len(bounds)
    slot = {pos: s for s, pos in enumerate(_free_positions(n, bounds))}
    out = np.zeros((len(idx), n, n), dtype=np.intp)
    for j, kj in enumerate(bounds):
        if not kj:
            out[:, j, j] = 1
            continue
        for i in range(n):
            out[:, j, i] = idx // fld.q ** slot[i, j, kj] % fld.q
    return out


def count_P_bruteforce(bounds, q, budget=None, check_dependence=True) -> int:
    """Brute-force cardinality of the constant-term-I unimodular family.

    Also asserts, on every member, that the top coefficient-layer vectors are
    linearly dependent whenever any bound is positive (a consequence of the
    determinant being constant).
    """
    fld = _field(q)
    bounds = tuple(bounds)
    n = len(bounds)
    count = 0
    for idx in _member_chunks(bounds, fld, budget):
        count += len(idx)
        if check_dependence and sum(bounds) >= 1:
            full = rref(_leading_layers(fld, bounds, idx), n, fld)[1] >= n
            if full.any():
                m = _decode_p_member(fld, bounds, int(idx[np.argmax(full)]))
                raise AssertionError(f"independent leading layers in {m!r}")
    return count


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
    fld = _field(q)
    count = 0
    for idx in _member_chunks(bounds, fld, budget):
        # the tail layers n, n-1, ..., i as the columns of one system: the
        # first m columns are independent iff each of them is a pivot column
        tail = _leading_layers(fld, bounds, idx)[:, i - 1 :][:, ::-1]
        pivots = rref(tail.transpose(0, 2, 1), n - i + 1, fld)[2]
        dependent = ~pivots.all(axis=1)
        if kind == "Q":
            dependent &= pivots[:, : n - i].all(axis=1)  # independent from column i+1 on
        count += int(np.count_nonzero(dependent))
    return count


# -- canonical form enumeration ----------------------------------------------


def enumerate_hnf_reps(n: int, q, t: int, budget=None):
    """Every canonical form with determinant degree t, exactly once."""
    budget = _budget(budget)
    fld = _field(q)
    budget.check(
        fld.q,
        (sum((j + 1) * tj for j, tj in enumerate(parts)) for parts in _compositions(t, n)),
        "canonical form enumeration",
    )
    reps = []
    for parts in _compositions(t, n):
        # monic diagonal entries of the prescribed degrees
        diag_choices = []
        for tj in parts:
            choices = []
            for p in iter_polys(fld, tj - 1) if tj > 0 else [None]:
                if p is None:
                    choices.append(Poly.one(fld))
                else:
                    choices.append(p + Poly(fld, (0,) * tj + (1,)))
            diag_choices.append(choices)
        # above-diagonal entries of column j run over degrees < t_j
        above_choices = []
        for j, tj in enumerate(parts):
            col = []
            for _ in range(j):
                if tj == 0:
                    col.append([Poly.zero(fld)])
                else:
                    col.append(list(iter_polys(fld, tj - 1)))
            above_choices.append(col)
        flat = [c for col in above_choices for c in col]
        for diag in product(*diag_choices):
            for above in product(*flat):
                rows = [[Poly.zero(fld)] * n for _ in range(n)]
                pos = 0
                for j in range(n):
                    rows[j][j] = diag[j]
                    for i in range(j):
                        rows[i][j] = above[pos]
                        pos += 1
                reps.append(PolyMatrix(rows))
    return reps


# -- the closed forms against the census -------------------------------------


def _key_t(key) -> int:
    """Determinant degree of a canonical form, from its structural key."""
    return sum(len(key[i][i]) - 1 for i in range(len(key)))


def verify_grid(grid, budget=None):
    """Compare scan censuses against the closed forms over a grid of
    (n, q, max_k) triples.  Returns (reports, all_match)."""
    reports = []
    for n, q, kmax in grid:
        for k in range(kmax + 1):
            buckets, singular = orbit_census(q, n, k, budget)
            total_by_t = {}
            for key, cnt in buckets.items():
                t = _key_t(key)
                total_by_t[t] = total_by_t.get(t, 0) + cnt
            # every orbit with t <= k must hit the closed form exactly
            for key, cnt in sorted(buckets.items()):
                t = _key_t(key)
                if t > k:
                    continue
                reports.append(
                    counting.CountReport.compare(
                        {"n": n, "q": q, "k": k, "t": t, "kind": "orbit"},
                        counting.orbit_count_formula(n, q, t, k),
                        cnt,
                    )
                )
            for t in range(k + 1):
                reports.append(
                    counting.CountReport.compare(
                        {"n": n, "q": q, "k": k, "t": t, "kind": "total"},
                        counting.total_count_formula(n, q, t, k),
                        total_by_t.get(t, 0),
                    )
                )
            # the canonical forms observed must be enumerated ones, and for
            # t <= k the scan holds every one of them; the oracle value counts
            # each missing or stray form on top of the enumerated ones
            for t in sorted(set(total_by_t) | set(range(k + 1))):
                want = {m.key() for m in enumerate_hnf_reps(n, q, t)}
                got = {key for key in buckets if _key_t(key) == t}
                wrong = got ^ want if t <= k else got - want
                reports.append(
                    counting.CountReport.compare(
                        {"n": n, "q": q, "k": k, "t": t, "kind": "rep-inventory"},
                        len(want),
                        len(want) + len(wrong),
                    )
                )
    return reports, all(r.match for r in reports)


# -- orbit-side exact counting ----------------------------------------------


def count_orbit_members(rep: PolyMatrix, k: int, budget=None) -> int:
    """Exact count of degree-<=k matrices in the left orbit of rep, by direct
    enumeration of the orbit side.

    Members are U*H with H the canonical form and U unimodular.  Factoring U
    by its (invertible) constant term reduces to counting unimodular V with
    V(0) = I and V*H of entry degree <= k.  The rows of V range over affine
    F_q-spaces v_i = p_i + span(B) with one nullspace B for every row, solved
    as one system with n right-hand sides.  For fixed first n-1 rows,
    det V = sum_j v_last[j] C_j is affine-linear in the last row, so the last
    row is counted by linear algebra instead of enumeration: q^(nb - rank)
    solutions when consistent.  The outer choices (the first n-1 rows) are
    decoded as digit arrays in batches; their cofactors C_j, the last-row
    systems and the ranks of all those systems are computed at once through
    the field tables (``_det``, ``_mac``, ``linalg.rref``).  Cross-checked
    against the ambient scan and the per-choice reference in the test suite.
    """
    if not rep.is_square():
        raise NotSquare(f"{rep.rows}x{rep.cols}")
    if k < 0:
        raise InvalidParams(f"orbit member count needs k >= 0, got k = {k}")
    budget = _budget(budget)
    H = hnf(rep).h
    fld = rep.field
    n, q = rep.rows, fld.q
    add, mul, neg, _ = tbl = tables(fld)
    nunk = n * k  # coefficients v_j[d] at column j * k + d - 1, d = 1..k

    # coefficient dp > k of column c of v_i H vanishes: A v_i = b_i
    system = []
    for c in range(n):
        col = [H.entries[j][c] for j in range(n)]
        maxdeg = k + max((int(h.degree) for h in col if h), default=0)
        for dp in range(k + 1, maxdeg + 1):
            system.append(
                [h[dp - d] for h in col for d in range(1, k + 1)]
                + [fld.neg(H.entries[i][c][dp]) for i in range(n)]
            )
    system = np.array(system, dtype=np.intp).reshape(1, -1, nunk + n)
    reduced, ranks, pivots = rref(system, nunk, fld)
    rank_a = int(ranks[0])
    if reduced[0, rank_a:, nunk:].any():
        return 0  # some row of V*H cannot have entry degree <= k
    nb = nunk - rank_a
    budget.check(q, [nb * (n - 1)], "orbit member enumeration")
    particulars, basis = affine_solutions(reduced[0], rank_a, pivots[0], fld)

    def row_entries(i, coeffs):
        """Row i of V from its free coefficients (ints or arrays (L,))."""
        return [[int(i == j)] + coeffs[j * k : (j + 1) * k] for j in range(n)]

    last = row_entries(n - 1, particulars[-1].tolist())
    # basis directions of the last row have a zero constant layer
    directions = [[[0] + e[1:] for e in row_entries(n - 1, b)] for b in basis.tolist()]
    # a last-row system has at most n k rows (degrees 1..deg det V): keep the
    # batch of them, an array (L, <= n k, nb + 1), to about _LEAF_CHUNK entries
    chunk = max(1, _LEAF_CHUNK // (max(nunk, 1) * (nb + 1)))
    outer = q ** (nb * (n - 1))
    total = 0
    for lo in range(0, outer, chunk):
        idx = np.arange(lo, min(lo + chunk, outer), dtype=np.intp)
        size = len(idx)
        x = digits(idx, q, nb * (n - 1))
        rows = []
        for i in range(n - 1):
            v = np.repeat(particulars[i][:, None], size, axis=1)
            for b, xb in zip(basis, x[i * nb : (i + 1) * nb]):
                v = add[v, mul[b[:, None], xb]]
            rows.append(row_entries(i, list(v)))
        # C_j with det V = sum_j v_last[j] C_j, signs folded in
        cofs = []
        for j in range(n):
            d = _det(tbl, [row[:j] + row[j + 1 :] for row in rows], size)
            cofs.append(neg[d] if (n - 1 + j) % 2 else d)
        depth = k + max(len(c) for c in cofs)
        base = np.zeros((depth, size), dtype=np.intp)
        g = np.zeros((nb, depth, size), dtype=np.intp)
        for j, c in enumerate(cofs):
            _mac(tbl, base, last[j], c)
            for gb, dirn in zip(g, directions):
                _mac(tbl, gb, dirn[j], c)
        # the coefficients of degree >= 1 of base + sum_b x_b g_b vanish
        last_rows = np.concatenate(
            [g[:, 1:].transpose(2, 1, 0), neg[base[1:]].T[:, :, None]], axis=2
        )
        reduced, ranks, _ = rref(last_rows, nb, fld)
        inconsistent = (reduced[:, :, nb] != 0) & (np.arange(depth - 1) >= ranks[:, None])
        free = (nb - ranks)[~inconsistent.any(axis=1)]
        total += sum(c * q**e for e, c in enumerate(np.bincount(free, minlength=1).tolist()))
    return gl_count(n, q) * total
