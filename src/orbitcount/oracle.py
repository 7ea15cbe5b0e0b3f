"""Exhaustive enumeration ground truth for every counting formula.

All enumerations are exact and refuse up front when the scan would exceed the
budget.  ``iter_matrices`` walks the matrix index space in index order:
row-major over entries with little-endian coefficient digits (entry (0,0)
coefficient 0 is the least significant digit).  The ambient censuses visit
the same matrices grouped by their first n - 1 columns and return buckets,
whose counts do not depend on the order of the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import product

import numpy as np

from .counting import _compositions, gl_count
from .errors import (
    BudgetExceeded,
    InvalidParams,
    NotSquare,
    PreconditionViolation,
    SingularMatrix,
)
from .fields import GF, digits, field_of_order
from .linalg import iter_affine_space, rank, solve_affine
from .poly import NEG_INF, Poly
from .polymat import PolyMatrix, _det_cofactor, det, hnf

DEFAULT_MAX_ITEMS = 10**8


@dataclass(frozen=True)
class EnumerationBudget:
    max_items: int = DEFAULT_MAX_ITEMS

    def check(self, cost: int, what: str):
        if cost > self.max_items:
            raise BudgetExceeded(f"{what}: {cost} items exceed budget {self.max_items}")


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

_LEAF_CHUNK = 1 << 16  # last columns per numpy batch


def _check_scan(fld: GF, n: int, k: int, budget, what: str):
    if n < 1 or k < 0:
        raise InvalidParams(f"{what} needs n >= 1 and k >= 0, got n = {n}, k = {k}")
    _budget(budget).check(fld.q ** (n * n * (k + 1)), what)


@lru_cache(maxsize=None)
def _tables(fld: GF):
    """The addition, multiplication and inverse tables of fld as numpy arrays
    (the inverse of 0 read as 0), built on first use."""
    elems = fld.elements()
    add = np.array([[fld.add(a, b) for b in elems] for a in elems], dtype=np.intp)
    mul = np.array([[fld.mul(a, b) for b in elems] for a in elems], dtype=np.intp)
    inv = np.array([0] + [fld.inv(a) for a in fld.units()], dtype=np.intp)
    return add, mul, inv


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
    add, mul, _ = _tables(fld)
    width = batch.shape[1]
    depth = width - 1 + max(len(e.coeffs) for r in rows for e in r)
    out = np.zeros((len(rows), depth, batch.shape[2]), dtype=np.intp)
    for y, r in zip(out, rows):
        for j, e in enumerate(r):
            for a, c in enumerate(e.coeffs):
                if c:
                    y[a : a + width] = add[y[a : a + width], mul[c][batch[j]]]
    return out


def _degrees(w):
    """The degree of each column of a coefficient array (D, L); -1 for 0."""
    nonzero = w != 0
    top = len(w) - 1 - np.argmax(nonzero[::-1], axis=0)
    return np.where(nonzero.any(axis=0), top, -1)


def _leaf_keys(fld: GF, h1, u, batch):
    """The canonical-form key of each completion of a prefix in the batch,
    or None for a singular one."""
    _, mul, inv = _tables(fld)
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


def _p_scan_vectorized(fld: GF, bounds, budget: EnumerationBudget):
    """Unimodularity mask over the whole candidate space, via layerwise
    determinant convolution in numpy.  Prime fields, n <= 3."""
    q = fld.q
    n = len(bounds)
    positions = _free_positions(n, bounds)
    nfree = len(positions)
    total = q**nfree
    budget.check(total, "unipotent family scan")
    kmax = max(bounds)
    member_indices = []

    def polymul(a, b):
        out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1), dtype=np.int64)
        for i in range(a.shape[1]):
            for j in range(b.shape[1]):
                out[:, i + j] += a[:, i] * b[:, j]
        return out

    chunk = 1 << 16
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        coeff = np.zeros((hi - lo, n, n, kmax + 1), dtype=np.int64)
        for i in range(n):
            coeff[:, i, i, 0] = 1
        for (i, j, d), v in zip(positions, digits(idx, q, nfree)):
            coeff[:, i, j, d] = v
        if n == 1:
            detc = coeff[:, 0, 0, :]
        elif n == 2:
            detc = polymul(coeff[:, 0, 0], coeff[:, 1, 1]) - polymul(
                coeff[:, 0, 1], coeff[:, 1, 0]
            )
        elif n == 3:
            def m2(r0, c0, r1, c1):
                return polymul(coeff[:, r0, c0], coeff[:, r1, c1]) - polymul(
                    coeff[:, r0, c1], coeff[:, r1, c0]
                )
            detc = (
                polymul(coeff[:, 0, 0], m2(1, 1, 2, 2))
                - polymul(coeff[:, 0, 1], m2(1, 0, 2, 2))
                + polymul(coeff[:, 0, 2], m2(1, 0, 2, 1))
            )
        else:
            raise InvalidParams("vectorized scan supports n <= 3")
        detc %= q
        mask = (detc[:, 1:] == 0).all(axis=1) & (detc[:, 0] != 0)
        member_indices.append(idx[mask])
    return np.concatenate(member_indices) if member_indices else np.array([], dtype=np.int64)


def _decode_p_member(fld: GF, bounds, idx: int) -> PolyMatrix:
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
    budget = EnumerationBudget(max_items=max_items)
    n = len(bounds)
    if fld.e == 1 and n <= 3:
        indices = _p_scan_vectorized(fld, bounds, budget)
        return tuple(_decode_p_member(fld, bounds, int(i)) for i in indices)
    # generic fallback: walk the whole candidate space
    total = fld.q ** (n * sum(bounds))
    budget.check(total, "unipotent family scan")
    members = []
    for idx in range(total):
        m = _decode_p_member(fld, bounds, idx)
        d = det(m)
        if d.is_constant() and not d.is_zero():
            members.append(m)
    return tuple(members)


def p_members(bounds, q, budget=None):
    """All unimodular matrices with constant term I and per-column degree
    bounds, in index order."""
    budget = _budget(budget)
    fld = _field(q)
    bounds = tuple(bounds)
    if any(b < 0 for b in bounds) or not bounds:
        raise InvalidParams(f"bad bounds {bounds}")
    return _p_members_cached(fld, bounds, budget.max_items)


def _leading_layers(m: PolyMatrix, bounds):
    return [m.coeff_layer(j, kj) for j, kj in enumerate(bounds)]


def count_P_bruteforce(bounds, q, budget=None, check_dependence=True) -> int:
    """Brute-force cardinality of the constant-term-I unimodular family.

    Also asserts, on every member, that the top coefficient-layer vectors are
    linearly dependent whenever any bound is positive (a consequence of the
    determinant being constant).
    """
    fld = _field(q)
    members = p_members(bounds, fld, budget)
    if check_dependence and sum(bounds) >= 1:
        n = len(bounds)
        for m in members:
            if rank(_leading_layers(m, bounds), fld) >= n:
                raise AssertionError(f"independent leading layers in {m!r}")
    return len(members)


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
    members = p_members(bounds, fld, budget)
    count = 0
    for m in members:
        layers = _leading_layers(m, bounds)
        tail = layers[i - 1 :]
        if rank(tail, fld) == len(tail):
            continue  # tail independent: in neither set
        if kind == "Q":
            tail2 = layers[i:]
            if rank(tail2, fld) < len(tail2):
                continue  # dependence starts before column i
        count += 1
    return count


# -- canonical form enumeration ----------------------------------------------


def enumerate_hnf_reps(n: int, q, t: int, budget=None):
    """Every canonical form with determinant degree t, exactly once."""
    budget = _budget(budget)
    fld = _field(q)
    cost = sum(
        fld.q ** sum((j + 1) * tj for j, tj in enumerate(parts))
        for parts in _compositions(t, n)
    )
    budget.check(cost, "canonical form enumeration")
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


# -- orbit-side exact counting ----------------------------------------------


def count_orbit_members(rep: PolyMatrix, k: int, budget=None) -> int:
    """Exact count of degree-<=k matrices in the left orbit of rep, by direct
    enumeration of the orbit side.

    Members are U*H with H the canonical form and U unimodular.  Factoring U
    by its (invertible) constant term reduces to counting unimodular V with
    V(0) = I and V*H of entry degree <= k; the rows of V range over affine
    F_q-spaces determined by H, and for fixed first n-1 rows the unit-
    determinant condition is affine-linear in the last row, so the last row is
    counted by linear algebra instead of enumeration.  Cross-checked against
    the ambient scan in the test suite.
    """
    budget = _budget(budget)
    form = hnf(rep)
    H = form.h
    fld = rep.field
    n, q = rep.rows, fld.q
    if k < 0:
        return 0
    nunk = n * k  # coefficients v_j[d], d = 1..k; constant layer is pinned

    def unk(j, d):
        return j * k + (d - 1)

    spaces = []
    for i in range(n):
        rows_a, rhs = [], []
        for c in range(n):
            maxdeg = k + max(
                (int(H.entries[j][c].degree) for j in range(n) if H.entries[j][c]),
                default=0,
            )
            for dp in range(k + 1, maxdeg + 1):
                row = [0] * nunk
                for j in range(n):
                    hj = H.entries[j][c]
                    if hj.is_zero():
                        continue
                    for d in range(1, k + 1):
                        coef = hj[dp - d]
                        if coef:
                            row[unk(j, d)] = coef
                rows_a.append(row)
                rhs.append(fld.neg(H.entries[i][c][dp]))
        sol = solve_affine(rows_a, rhs, fld, ncols=nunk)
        if sol is None:
            return 0
        spaces.append(sol)

    def to_polys(vec, i):
        out = []
        for j in range(n):
            coeffs = [1 if j == i else 0] + [vec[unk(j, d)] for d in range(1, k + 1)]
            out.append(Poly(fld, coeffs))
        return out

    outer_cost = 1
    for i in range(n - 1):
        outer_cost *= q ** len(spaces[i][1])
    budget.check(outer_cost, "orbit member enumeration")

    outer_rows = [
        [to_polys(v, i) for v in iter_affine_space(spaces[i][0], spaces[i][1], fld)]
        for i in range(n - 1)
    ]
    last_part = spaces[n - 1][0]
    last_basis = spaces[n - 1][1]
    # last-row value rows as polynomials; basis rows have zero constant layer
    last_part_polys = to_polys(last_part, n - 1)
    last_basis_polys = [
        [
            Poly(fld, [0] + [bv[unk(j, d)] for d in range(1, k + 1)])
            for j in range(n)
        ]
        for bv in last_basis
    ]

    def cofactors(rows):
        """C_j with det(V) = sum_j v_last[j] * C_j for the given first rows."""
        if n == 1:
            return [Poly.one(fld)]
        out = []
        for j in range(n):
            minor = [[r[c] for c in range(n) if c != j] for r in rows]
            d = _det_cofactor(minor, fld)
            if (n - 1 + j) % 2 == 1:
                d = -d
            out.append(d)
        return out

    total = 0
    nb = len(last_basis_polys)
    for combo in product(*outer_rows) if n > 1 else [()]:
        cofs = cofactors(list(combo))
        base = Poly.zero(fld)
        for j in range(n):
            if last_part_polys[j] and cofs[j]:
                base = base + last_part_polys[j] * cofs[j]
        gs = []
        for bp in last_basis_polys:
            g = Poly.zero(fld)
            for j in range(n):
                if bp[j] and cofs[j]:
                    g = g + bp[j] * cofs[j]
            gs.append(g)
        maxd = max(
            [int(base.degree) if base else 0]
            + [int(g.degree) if g else 0 for g in gs]
        )
        rows_a = [[g[d] for g in gs] for d in range(1, maxd + 1)]
        rhs = [fld.neg(base[d]) for d in range(1, maxd + 1)]
        sol = solve_affine(rows_a, rhs, fld, ncols=nb)
        if sol is not None:
            total += q ** len(sol[1])
    return gl_count(n, q) * total
