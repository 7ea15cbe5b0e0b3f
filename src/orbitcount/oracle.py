"""Exhaustive enumeration ground truth for every counting formula.

All enumerations are exact and refuse up front when the scan would exceed the
budget.  ``iter_matrices`` walks the matrix index space in index order:
row-major over entries with little-endian coefficient digits (entry (0,0)
coefficient 0 is the least significant digit).  The ambient censuses visit
the same matrices grouped by their first n - 1 columns and return buckets,
whose counts do not depend on the order of the walk.  They finish the last
columns of many prefixes in one numpy batch: each matrix's canonical form
is packed into one int64 key, the keys are counted with ``np.unique``, and
only the distinct ones are decoded, so no Python runs per matrix.  The
unipotent family of Lemma 2 and the orbit-side member counter are solved,
not scanned, by one line solve (``_line_systems``): det V is affine in one
line of V, so only the other lines are enumerated, and each choice's
completions are the solutions of one affine system.  All of these compute
over F_q[x] in numpy batches on the field's tables (``fields.tables``),
take every determinant and cofactor from ``polymat._minors``, and reduce
every batch of systems with ``linalg.rref``, read back by the codec of
``linalg``; the budget is checked on exponents, so no refused cost is ever
computed.
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
from .linalg import affine_solutions, consistent, rref, solution_count
# oracle calls none of these three itself (nor det); the traced benchmark
# run (perfbench/layers.py) patches each under this module's name as well,
# so the names stay importable from here
from .linalg import iter_affine_space, rank, solve_affine
from .poly import NEG_INF, Poly
from .polymat import PolyMatrix, _mac, _minors, det, hnf

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
#
# A leaf is one (prefix, last column) pair.  Consecutive full-rank prefixes
# are gathered until their completions fill a batch of _CENSUS_LEAVES
# leaves, and the shared block of last columns is tiled once per prefix, so
# y is computed for the whole batch at once.  The leaves are then grouped by
# d = deg w; h is monic, so each quotient digit of y' mod h is the top
# remainder coefficient, and the long division is a _mac with negated terms.
# Each leaf's form packs into one int64: an id of H1 within the batch, then
# the low coefficients of h and the residues as base-q digits
# (a census whose keys could reach 2^63 is refused before it starts).
# np.unique counts the keys of a batch, the census adds the counts up per
# (H1, d, digits), and each distinct form is decoded into its structural key
# once, at the end.

_LEAF_CHUNK = 1 << 16  # unipotent-family members, or system entries, per numpy batch
# leaves per census batch (the smaller of the two counts): the finish holds a
# few coefficient arrays (n, D, L) of one byte per entry, and wider batches
# raise the peak memory, not the speed
_CENSUS_LEAVES = 1 << 12


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


def _images(tbl, u, owner, batch):
    """r @ c for every leaf: u is an array (R, n, Du, P) holding R witness
    rows of each of P prefixes, owner (L,) the prefix of each leaf, and batch
    (n, width, L) its last column.  Returns an array (R, D, L) of
    little-endian coefficients."""
    depth = batch.shape[1] + u.shape[2] - 1
    out = np.zeros((len(u), depth, batch.shape[2]), dtype=batch.dtype)
    for y, row in zip(out, u):
        for e, c in zip(row, batch):
            # with one prefix each coefficient stays a field element (a row
            # lookup in _mac); one that is 0 for every prefix is skipped
            coeffs = [int(v[0]) if len(v) == 1 else v[owner] if v.any() else 0 for v in e]
            _mac(tbl, y, coeffs, c)
    return out


def _degrees(w):
    """The degree of each column of a coefficient array (D, L); -1 for 0."""
    nonzero = w != 0
    top = len(w) - 1 - np.argmax(nonzero[::-1], axis=0)
    return np.where(nonzero.any(axis=0), top, -1)


def _trim(coeffs) -> tuple:
    """A coefficient list as a normalised ``Poly.coeffs`` tuple."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


def _leaf_keys(fld: GF, group, u, owner, batch):
    """The canonical forms of the leaves of a batch, counted: ``(form,
    count)`` pairs, form None for the singular ones and otherwise packed as
    ``(h1, d, rest)`` (see _form_key).  group lists the prefixes of the
    batch, and u, owner and batch are as in _images."""
    add, mul, neg, inv = tbl = tables(fld)
    q, n = fld.q, len(u)
    y = _images(tbl, u, owner, batch)
    w = y[-1]
    deg = _degrees(w)
    h1_ids = {}
    h1_of = np.array([h1_ids.setdefault(p[0], len(h1_ids)) for p in group])[owner]
    h1s = list(h1_ids)
    out = [(None, int(np.count_nonzero(deg < 0)))]
    for d in np.unique(deg[deg >= 0]).tolist():
        sel = np.flatnonzero(deg == d)
        low = mul[inv[w[d, sel]], w[:d, sel]]  # monic(w) below x^d: (d, Lg)
        r = y[:-1, :, sel]
        minus = neg[low]
        for j in range(len(w) - 1, d - 1, -1) if d else ():
            # take r[j] x^(j - d) h off r; r[j] itself is not read again
            r[:, j - d : j] = add[r[:, j - d : j], mul[r[:, j, None], minus]]
        size = q ** (n * d)
        packed = h1_of[sel] * size + q ** np.arange(n * d, dtype=np.int64) @ np.concatenate(
            [low, r[:, :d].reshape(-1, len(sel))]
        )
        keys, counts = np.unique(packed, return_counts=True)
        for key, count in zip(keys.tolist(), counts.tolist()):
            h1_id, rest = divmod(key, size)
            out.append(((h1s[h1_id], d, rest), count))
    return out


def _form_key(q: int, n: int, form):
    """The structural key of the canonical form [H1, y' mod h; 0, h] packed
    as ``(h1, d, rest)``: H1's rows as keys, d = deg h, and as base-q digits
    of rest, least significant first, the d low coefficients of h and then d
    coefficients of each entry of y' mod h."""
    h1, d, rest = form
    coeffs = digits(rest, q, n * d)
    above = tuple(row + (_trim(coeffs[d * (i + 1) : d * (i + 2)]),) for i, row in enumerate(h1))
    return above + (((),) * (n - 1) + (tuple(coeffs[:d]) + (1,),),)


def _orbits(q: int, n: int, buckets):
    """An orbit census with its forms decoded: (buckets by structural key,
    singular count)."""
    singular = buckets.pop(None, 0)
    return {_form_key(q, n, form): count for form, count in buckets.items()}, singular


def _leaf_degrees(fld: GF, group, u, owner, batch):
    """The determinant degrees of the leaves of a batch, counted: ``(degree,
    count)`` pairs, degree None for the singular ones."""
    d = _degrees(_images(tables(fld), u[-1:], owner, batch)[0])
    t1 = np.array([p[1] for p in group])[owner]
    counts = np.bincount(np.where(d >= 0, t1 + d + 1, 0)).tolist()  # slot 0: singular
    return [(s - 1 if s else None, c) for s, c in enumerate(counts) if c]


def _census(fld: GF, n: int, k: int, budget, what: str, finish, h1=None):
    """One walk over every n x n matrix of entry degree <= k, adding up the
    ``(bucket, count)`` pairs that ``finish(fld, group, u, owner, batch)``
    returns for each batch of at most _CENSUS_LEAVES leaves (see _images);
    bucket None counts the singular ones.  With h1 given, only prefixes with
    that H1 are completed.  When the q^(n(k+1)) last columns fit in a batch
    they are decoded once, and a batch holds the completions of as many
    consecutive prefixes as fit; otherwise each batch holds part of one
    prefix's completions."""
    if n < 1 or k < 0:
        raise InvalidParams(f"{what} needs n >= 1 and k >= 0, got n = {n}, k = {k}")
    _budget(budget).check(fld.q, [n * n * (k + 1)], what)
    q, width = fld.q, k + 1
    total = q ** (n * width)
    chunk = min(_LEAF_CHUNK, _CENSUS_LEAVES)
    per = max(1, chunk // total)  # prefixes per batch
    # a packed key is below per * q^(n d), and d = deg w <= n k since deg det
    # M <= n k; the budget check has seen q^(n^2 (k+1)), so the power is cheap
    if finish is _leaf_keys and per * q ** (n * n * k) >= 1 << 63:
        raise BudgetExceeded(
            f"{what}: packed leaf keys of {per} * {q}^{n * n * k} exceed the 64-bit key"
        )
    dtype = tables(fld)[0].dtype

    def decode(lo):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.intp)
        return np.array(digits(idx, q, n * width), dtype=dtype).reshape(n, width, len(idx))

    shared = decode(0) if total <= chunk else None
    buckets = {}

    def flush(group):
        du = max(len(e.coeffs) for p in group for row in p[2] for e in row)
        u = np.zeros((n, n, du, len(group)), dtype=dtype)
        for i, p in enumerate(group):
            for r, row in enumerate(p[2]):
                for c, e in enumerate(row):
                    u[r, c, : len(e.coeffs), i] = e.coeffs
        if shared is not None:
            batches = [(np.repeat(np.arange(len(group)), total), np.tile(shared, len(group)))]
        else:  # one prefix, its last columns in chunks
            batches = (
                (np.zeros(b.shape[2], dtype=np.intp), b) for b in map(decode, range(0, total, chunk))
            )
        for owner, batch in batches:
            for bucket, count in finish(fld, group, u, owner, batch):
                buckets[bucket] = buckets.get(bucket, 0) + count

    group = []
    for prefix in _prefixes(fld, n, width):
        # every completion of a prefix with another H1 lies in another orbit
        if h1 is not None and (prefix is None or prefix[0] != h1):
            continue
        if prefix is None:
            buckets[None] = buckets.get(None, 0) + total
            continue
        group.append(prefix)
        if len(group) == per:
            flush(group)
            group = []
    if group:
        flush(group)
    return buckets


def count_orbit_bruteforce(rep: PolyMatrix, k: int, budget=None) -> int:
    """Scan every degree-<=k matrix and count those in the left orbit of rep
    (equal canonical form)."""
    if not rep.is_square():
        raise NotSquare(f"{rep.rows}x{rep.cols}")
    n = rep.rows
    target = hnf(rep).h.key()
    h1 = tuple(row[: n - 1] for row in target[: n - 1])
    buckets = _census(rep.field, n, k, budget, "orbit scan", _leaf_keys, h1)
    return _orbits(rep.field.q, n, buckets)[0].get(target, 0)


def orbit_census(q, n: int, k: int, budget=None):
    """One full scan, bucketed by canonical form.

    Returns ``(buckets, singular)`` where buckets maps the canonical-form
    structural key to the number of degree-<=k matrices in that orbit.
    """
    fld = _field(q)
    return _orbits(fld.q, n, _census(fld, n, k, budget, "orbit census", _leaf_keys))


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
    buckets = _census(fld, n, k, budget, "determinant census", _leaf_degrees)
    singular = buckets.pop(None, 0)
    return DetDegreeCensus(n, fld.q, k, buckets, singular)


# -- determinants affine in one line -----------------------------------------
#
# det V is linear in any one line c of V (a row, or a column): det V is the
# sum over j of V_cj C_j, C_j being (-1)^(c+j) times the minor of the other
# lines on the columns other than j.  So when line c is base + sum_b x_b
# directions[b], with constant base and directions, det V is constant iff
# the coefficients of degree >= 1 of sum_b x_b directions[b]·C equal those
# of -base·C: one affine system in the x_b per choice of the other lines.


def _line_systems(fld: GF, lines, c: int, base, directions, size: int):
    """The systems of a batch of size matrices whose line c is base + sum_b
    x_b directions[b], reduced by one ``rref``: ``(reduced, ranks, pivots,
    ok)``, ok marking the consistent ones.  lines are the other n - 1 lines,
    each n coefficient lists as in polymat._mac; base is an array (n, E) of
    coefficients, and directions an array (nb, n, E)."""
    add, mul, neg, _ = tbl = tables(fld)
    n, nb = len(lines) + 1, len(directions)
    minors = _minors(tbl, lines, size)
    cofs = [minors[tuple(range(j)) + tuple(range(j + 1, n))] for j in range(n)]
    cofs = [neg[m] if (c + j) % 2 else m for j, m in enumerate(cofs)]
    # g[b] holds the coefficients of directions[b]·C, and g[nb] those of
    # -base·C: a sum of cofactors, each scaled and shifted by one nonzero
    # coefficient (b, j, e) of the vectors; the first of each b is written
    vecs = np.concatenate([directions, neg[base][None]])
    g = np.zeros((nb + 1, base.shape[1] - 1 + max(map(len, cofs)), size), dtype=add.dtype)
    last = None
    for b, j, e, a in zip(*(x.tolist() for x in (*np.nonzero(vecs), vecs[vecs != 0]))):
        term = cofs[j] if a == 1 else mul[a][cofs[j]]
        at = slice(e, e + len(term))
        g[b, at] = add[g[b, at], term] if b == last else term
        last = b
    reduced, ranks, pivots = rref(g[:, 1:].transpose(2, 1, 0), nb, fld)
    return reduced, ranks, pivots, consistent(reduced, ranks, nb)


# -- the unipotent-at-zero family (constant term I) --------------------------
#
# Member idx of the family is the matrix whose free coefficients are the
# base-q digits of idx in _free_positions order.  The members are solved for
# in the column c with the largest bound (a line solve, see above), and each
# consistent system's solutions become member indices, streamed in pieces of
# fewer than 2 _LEAF_CHUNK.  The budget is checked on the systems and on the
# members, not on the q^(n sum(bounds)) candidates, whose indices need only
# fit in an int64.  P, Q_i and R_i need one number per member, the run r of
# independent leading layers (columns n, n-1, ..., 1) before the first
# dependent one, so only the n + 1 counts of r are cached.


def _free_positions(n: int, bounds):
    """Free coefficient slots (i, j, d) for the constant-term-I scan, in index
    order (least significant first)."""
    return [
        (i, j, d)
        for j, kj in enumerate(bounds)
        for d in range(1, kj + 1)
        for i in range(n)
    ]


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


def _solutions(fld: GF, reduced, ranks, pivots):
    """The solutions of consistent reduced systems with one right-hand side
    (``rref`` output), in pieces of about _LEAF_CHUNK: ``(points, owner)`` as
    in _span_points.  Each space's last directions are spread first, so that
    no piece holds much more than _LEAF_CHUNK points."""
    tbl = tables(fld)
    particulars, basis, free = affine_solutions(reduced, ranks, pivots, fld)
    base, basis = particulars[:, 0].astype(tbl[0].dtype), basis.astype(tbl[0].dtype)
    g = 0  # directions spread per piece: q^g <= _LEAF_CHUNK
    while fld.q ** (g + 1) <= _LEAF_CHUNK:
        g += 1
    heads, first = _span_points(tbl, base, basis[:, g:], np.maximum(free - g, 0))
    low = np.minimum(free, g)[first]
    ends = np.cumsum(fld.q**low)
    for piece in np.split(np.arange(len(heads)), np.flatnonzero(np.diff(ends // _LEAF_CHUNK)) + 1):
        points, owner = _span_points(tbl, heads[piece], basis[first[piece], :g], low[piece])
        yield points, first[piece][owner]


def _p_member_pieces(fld: GF, bounds: tuple, max_items: int):
    """The member indices of the family by the column solve (see above), in
    pieces of fewer than 2 _LEAF_CHUNK members, in no fixed order."""
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
    width = n * total_k
    if width * (q.bit_length() - 1) >= 63 or q**width >= 1 << 63:
        raise BudgetExceeded(f"{what}: member indices up to {q}^{width} exceed the 64-bit index")
    lo = n * sum(bounds[:c])  # index digits of the columns before c
    unk = n * bounds[c]  # v_icd is unknown (d - 1) n + i, index digit lo + (d - 1) n + i
    # column c is e_c plus v_icd times x^d e_i: rows c and n + (d - 1) n + i
    # of an identity, read as coefficient layers (k_c + 1, n)
    unit = np.eye(n * (bounds[c] + 1), dtype=np.intp).reshape(-1, bounds[c] + 1, n)
    base, directions = unit[c].T, unit[n:].transpose(0, 2, 1)
    weights = q ** np.arange(lo, lo + unk, dtype=np.int64)
    outer = q ** (n * (total_k - bounds[c]))
    chunk = max(1, _LEAF_CHUNK // max(1, total_k * (unk + 1)))
    count = 0
    for start in range(0, outer, chunk):
        o = np.arange(start, min(start + chunk, outer), dtype=np.int64)
        # the choice's digits around the zero digits of column c
        idx = o % q**lo + o // q**lo * q ** (lo + unk)
        entries = _family_entries(fld, bounds, idx)
        lines = [[row[j] for row in entries] for j in range(n) if j != c]
        reduced, ranks, pivots, ok = _line_systems(fld, lines, c, base, directions, len(o))
        count += solution_count(q, unk - ranks[ok])
        if count > max_items:
            raise BudgetExceeded(f"{what}: {count} members exceed budget {max_items}")
        for points, owner in _solutions(fld, reduced[ok], ranks[ok], pivots[ok]):
            yield idx[ok][owner] + points.dot(weights)


# perfbench clears this cache (workloads.py) and reads its cache_info()
# (layers.py), so it keeps its name and stays an lru_cache
@lru_cache(maxsize=64)
def _p_members_cached(fld: GF, bounds: tuple, max_items: int):
    """hist[r], r = 0..n: the number of members with a run of r independent
    leading layers (see above); a prefix of the layers is independent iff it
    is all pivots of their ``rref``."""
    hist = np.zeros(len(bounds) + 1, dtype=np.int64)
    for piece in _p_member_pieces(fld, bounds, max_items):
        # r is the first non-pivot; a False column appended stands past an all-pivot mask
        ends = np.zeros((len(piece), 1), dtype=bool)
        run = np.argmin(np.concatenate([_layer_pivots(fld, bounds, piece), ends], axis=1), axis=1)
        hist += np.bincount(run, minlength=len(hist))
    return tuple(hist.tolist())


def p_members(bounds, q, budget=None):
    """All unimodular matrices with constant term I and per-column degree
    bounds, in index order."""
    fld = _field(q)
    bounds = tuple(bounds)
    members = np.sort(np.concatenate([*_p_member_pieces(fld, bounds, _budget(budget).max_items)]))
    return tuple(_decode_p_member(fld, bounds, i) for i in members.tolist())


def _leading_layers(fld: GF, bounds, idx):
    """The leading layers of the family members idx, straight from their
    digits: an array (L, n, n) whose row j is the vector of degree-k_j
    coefficients of column j (e_j when k_j = 0)."""
    n, q = len(bounds), fld.q
    out = np.zeros((len(idx), n, n), dtype=np.intp)
    out[:, range(n), range(n)] = [int(not kj) for kj in bounds]  # e_j when k_j = 0
    for p, (i, j, d) in enumerate(_free_positions(n, bounds)):
        if d == bounds[j]:
            out[:, j, i] = idx // q**p % q
    return out


def _layer_pivots(fld: GF, bounds, idx):
    """The pivot masks of the leading layers of the family members idx,
    taken as the columns n, n-1, ..., 1: one ``rref`` per distinct layer
    matrix.  A member's layers are its index digits (i, j, k_j), so those
    digits, packed, key its layer matrix."""
    q = fld.q
    top = [p for p, (_, j, d) in enumerate(_free_positions(len(bounds), bounds)) if d == bounds[j]]
    keys = np.zeros(len(idx), dtype=np.int64)
    for r, p in enumerate(top):
        keys += idx // q**p % q * q**r
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    layers = _leading_layers(fld, bounds, idx[first])
    return rref(layers[:, ::-1].transpose(0, 2, 1), len(bounds), fld)[2][inverse]


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


def _hnf_rep_rows(fld: GF, n: int, t: int, budget, entry):
    """The rows of every canonical form with determinant degree t, each
    entry given as ``entry(coefficients)``.  Bad n or t and the budget are
    checked on the call, before the first form."""
    if n < 1 or t < 0:
        raise InvalidParams(f"canonical forms need n >= 1 and t >= 0, got n = {n}, t = {t}")
    _budget(budget).check(
        fld.q,
        (sum((j + 1) * tj for j, tj in enumerate(parts)) for parts in _compositions(t, n)),
        "canonical form enumeration",
    )
    return _hnf_rep_walk(fld.q, n, t, entry)


def _hnf_rep_walk(q: int, n: int, t: int, entry):
    # the n diagonal slots vary slowest, then the above-diagonal slots column
    # by column; callers pick reps by index, so this order is kept fixed
    cells = [(j, j) for j in range(n)] + [(i, j) for j in range(n) for i in range(j)]
    zero = entry(())
    for parts in _compositions(t, n):
        # column j holds polynomials of degree < t_j above the diagonal, and
        # one of them plus x^t_j on it, in iter_polys order
        low = [[digits(idx, q, tj) for idx in range(q**tj)] for tj in parts]
        slots = [[entry(tuple(c) + (1,)) for c in cs] for cs in low]
        slots += [[entry(_trim(c)) for c in low[j]] for _, j in cells[n:]]
        for choice in product(*slots):
            rows = [[zero] * n for _ in range(n)]
            for (i, j), e in zip(cells, choice):
                rows[i][j] = e
            yield rows


def iter_hnf_rep_keys(n: int, q, t: int, budget=None):
    """The structural keys of ``enumerate_hnf_reps(n, q, t)``, in the same
    order, without building a matrix."""
    rows = _hnf_rep_rows(_field(q), n, t, budget, tuple)
    return (tuple(map(tuple, r)) for r in rows)


def enumerate_hnf_reps(n: int, q, t: int, budget=None):
    """Every canonical form with determinant degree t, exactly once."""
    fld = _field(q)
    return [PolyMatrix(r) for r in _hnf_rep_rows(fld, n, t, budget, lambda c: Poly(fld, c))]


# -- the closed forms against the census -------------------------------------


def _key_t(key) -> int:
    """Determinant degree of a canonical form, from its structural key."""
    return sum(len(key[i][i]) - 1 for i in range(len(key)))


def verify_grid(grid, budget=None):
    """Compare scan censuses against the closed forms over a grid of
    (n, q, max_k) triples.  Returns (reports, all_match).  A grid that would
    check nothing (empty, or a triple with n < 1 or max_k < 0) is refused
    before the first scan."""
    grid = tuple(grid)
    if not grid:
        raise InvalidParams("verify grid is empty")
    for n, q, kmax in grid:
        if n < 1 or kmax < 0:
            raise InvalidParams(f"verify grid triple {n},{q},{kmax} needs n >= 1 and kmax >= 0")
    reports = []

    def check(params, t, kind, want, got):
        reports.append(counting.CountReport.compare({**params, "t": t, "kind": kind}, want, got))

    for n, q, kmax in grid:
        for k in range(kmax + 1):
            params = {"n": n, "q": q, "k": k}
            buckets, _ = orbit_census(q, n, k, budget)
            total_by_t = {}
            for key, cnt in buckets.items():
                t = _key_t(key)
                total_by_t[t] = total_by_t.get(t, 0) + cnt
            # every orbit with t <= k must hit the closed form exactly
            for key, cnt in sorted(buckets.items()):
                t = _key_t(key)
                if t <= k:
                    check(params, t, "orbit", counting.orbit_count_formula(n, q, t, k), cnt)
            for t in range(k + 1):
                want = counting.total_count_formula(n, q, t, k)
                check(params, t, "total", want, total_by_t.get(t, 0))
            # the canonical forms observed must be enumerated ones, and for
            # t <= k the scan holds every one of them; the oracle value counts
            # each missing or stray form on top of the enumerated ones
            for t in sorted(set(total_by_t) | set(range(k + 1))):
                want = set(iter_hnf_rep_keys(n, q, t))
                got = {key for key in buckets if _key_t(key) == t}
                wrong = got ^ want if t <= k else got - want
                check(params, t, "rep-inventory", len(want), len(want) + len(wrong))
    return reports, all(r.match for r in reports)


# -- orbit-side exact counting ----------------------------------------------


def count_orbit_members(rep: PolyMatrix, k: int, budget=None) -> int:
    """Exact count of degree-<=k matrices in the left orbit of rep, by direct
    enumeration of the orbit side.

    Members are U*H with H the canonical form and U unimodular.  Factoring U
    by its (invertible) constant term reduces to counting unimodular V with
    V(0) = I and V*H of entry degree <= k.  The rows of V range over affine
    F_q-spaces v_i = p_i + span(B) with one nullspace B for every row, solved
    as one system with n right-hand sides.  The choices of the first n-1
    rows are enumerated in batches, and the last row is counted by a line
    solve (see _line_systems): q^(nb - rank) solutions per consistent
    system.  A 1x1 orbit {c·h : c in F_q^*} is counted at once.
    Cross-checked against the ambient scan and the per-choice reference in
    the test suite.
    """
    if not rep.is_square():
        raise NotSquare(f"{rep.rows}x{rep.cols}")
    if k < 0:
        raise InvalidParams(f"orbit member count needs k >= 0, got k = {k}")
    budget = _budget(budget)
    H = hnf(rep).h
    fld = rep.field
    n, q = rep.rows, fld.q
    if n == 1:
        # the orbit of [h] is {c·h : c in F_q^*}
        return (q - 1) * (H.entries[0][0].degree <= k)
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
    if not consistent(reduced, ranks, nunk)[0]:
        return 0  # some row of V*H cannot have entry degree <= k
    (particulars,), (basis,), _ = affine_solutions(reduced, ranks, pivots, fld)
    nb = len(basis)
    budget.check(q, [nb * (n - 1)], "orbit member enumeration")

    # the last row as coefficient arrays (n, k + 1): e_(n-1) plus its
    # particular, then its directions, whose constant layer is zero
    line = np.zeros((nb + 1, n, k + 1), dtype=np.intp)
    line[:, :, 1:] = np.concatenate([particulars[-1:], basis]).reshape(nb + 1, n, k)
    line[0, n - 1, 0] = 1
    # row i of a choice is p_i + sum_b x_b B_b, for the base-q^nb digit
    # j = sum_b x_b q^b of the choice index.  The points of span(B_lo) and of
    # each p_i + span(B_hi) are expanded once (see _span_points), B_lo being
    # the first g directions, and row i is the sum of the two points picked
    # by j mod q^g and j div q^g: about q^(nb/2) points per table, not q^nb
    tbl = tables(fld)
    add, dtype = tbl[0], tbl[0].dtype
    directions, g = basis.astype(dtype), nb // 2

    def span(base, dirs):
        """The points of each base + span(dirs): an array (q^len(dirs), S, U)."""
        spans = np.broadcast_to(dirs, (len(base), *dirs.shape))
        points, _ = _span_points(tbl, base, spans, np.full(len(base), len(dirs)))
        return points.reshape(q ** len(dirs), len(base), nunk)

    low = span(np.zeros((1, nunk), dtype=dtype), directions[:g])[:, 0]
    high = span(particulars[:-1].astype(dtype), directions[g:])
    # a last-row system has at most n k rows (degrees 1..deg det V): keep the
    # batch of them, an array (L, <= n k, nb + 1), to about _LEAF_CHUNK entries
    chunk = max(1, _LEAF_CHUNK // (max(nunk, 1) * (nb + 1)))
    outer = q ** (nb * (n - 1))
    total = 0
    for lo in range(0, outer, chunk):
        idx = np.arange(lo, min(lo + chunk, outer), dtype=np.intp)
        rows = []
        for i, j in enumerate(digits(idx, q**nb, n - 1)):
            v = add[high[j // q**g, i], low[j % q**g]].T.reshape(n, k, len(idx))
            rows.append([[int(i == c), *v[c]] for c in range(n)])
        _, ranks, _, ok = _line_systems(fld, rows, n - 1, line[0], line[1:], len(idx))
        total += solution_count(q, (nb - ranks)[ok])
    return gl_count(n, q) * total
