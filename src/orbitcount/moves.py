"""Constructive matrix transformations used in the diagonalization argument,
each paired with a brute-force verifier of its count-preservation claim.

The truncation moves do not preserve the left orbit; their claim is that the
number of degree-bounded matrices in the orbit is unchanged.  The reduction
and triangularization moves stay inside the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadIndex,
    DegreeTooSmall,
    InvalidParams,
    MixedFields,
    NotConstant,
    NotSquare,
    NotTriangular,
    ShapeMismatch,
    SingularConjugator,
    ZeroPivot,
)
from .linalg import rref
from .poly import Poly, truncate_low
from .polymat import PolyMatrix, det, hnf
from . import oracle


@dataclass(frozen=True)
class MoveRecord:
    before: PolyMatrix
    after: PolyMatrix
    move: dict
    counts_checked: tuple = ()  # of (k, count_before, count_after)

    def all_equal(self) -> bool:
        return all(cb == ca for _, cb, ca in self.counts_checked)

    def to_json(self) -> dict:
        return {
            "move": self.move,
            "before": self.before.to_json(),
            "after": self.after.to_json(),
            "counts": [
                {"k": k, "before": str(cb), "after": str(ca), "match": cb == ca}
                for k, cb, ca in self.counts_checked
            ],
        }


def _require_move(m: PolyMatrix, l0: int):
    """A move needs a square upper-triangular matrix and 2 <= l0 <= n."""
    if not m.is_square() or not m.is_upper_triangular():
        raise NotTriangular("move requires a square upper-triangular matrix")
    if not 2 <= l0 <= m.rows:
        raise BadIndex(f"l0 = {l0} outside [2, {m.rows}]")


def triangularize(m: PolyMatrix) -> PolyMatrix:
    """An upper-triangular member of the same left orbit (the canonical one)."""
    return hnf(m).h


def truncation_move(m: PolyMatrix, l0: int) -> PolyMatrix:
    """Strip the low-degree part of the above-diagonal entries of column l0.

    Entry (i, l0), i < l0, loses every term of degree <= deg(d_i) where d_i is
    the i-th diagonal entry; afterwards x^(deg(d_i)+1) divides it.  Indices
    are 1-based to match the way the move is usually written.
    """
    _require_move(m, l0)
    for i in range(l0 - 1):
        if m.entries[i][i].is_zero():
            raise ZeroPivot(f"diagonal entry {i + 1} is zero")
    rows = [list(r) for r in m.entries]
    c = l0 - 1
    for i in range(l0 - 1):
        di = m.entries[i][i]
        e = rows[i][c]
        if not e.is_zero():
            rows[i][c] = e - truncate_low(e, int(di.degree))
    return PolyMatrix(rows)


def diag_truncate_move(m: PolyMatrix, l0: int) -> PolyMatrix:
    """Strip the low part of the (l0, l0) diagonal entry above deg(d_1) + 1.

    Requires deg(m_l0,l0) > deg(d_1) + 1; below that the argument terminates
    instead of moving, so the move refuses.
    """
    _require_move(m, l0)
    d1 = m.entries[0][0]
    if d1.is_zero():
        raise ZeroPivot("diagonal entry 1 is zero")
    c = l0 - 1
    pivot = m.entries[c][c]
    cut = int(d1.degree) + 1
    if not pivot.degree > cut:
        raise DegreeTooSmall(f"deg(m_l0,l0) = {pivot.degree} must exceed deg(d_1)+1 = {cut}")
    rows = [list(r) for r in m.entries]
    rows[c][c] = pivot - truncate_low(pivot, cut)
    return PolyMatrix(rows)


def reduce_above(m: PolyMatrix, l0: int) -> PolyMatrix:
    """Row-reduce the entries above the (l0, l0) pivot to degree strictly below
    the pivot, staying in the same left orbit."""
    _require_move(m, l0)
    c = l0 - 1
    pivot = m.entries[c][c]
    if pivot.is_zero():
        raise ZeroPivot(f"pivot ({l0},{l0}) is zero")
    rows = [list(r) for r in m.entries]
    for i in range(c):
        if rows[i][c].degree >= pivot.degree:
            q, _ = divmod(rows[i][c], pivot)
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[c])]
    return PolyMatrix(rows)


def conjugate_const(m: PolyMatrix, h: PolyMatrix) -> PolyMatrix:
    """Conjugate by a constant invertible matrix: h @ m @ h^-1.  The two
    must share a field (else MixedFields), m and h must be square (else
    NotSquare), and h of m's size (else ShapeMismatch)."""
    if m.field != h.field:
        raise MixedFields(f"m over F_{m.field.q}, conjugator over F_{h.field.q}")
    if not (m.is_square() and h.is_square()):
        raise NotSquare(f"{m.rows}x{m.cols} matrix, {h.rows}x{h.cols} conjugator")
    if h.rows != m.rows:
        raise ShapeMismatch(f"{h.rows}x{h.rows} conjugator for a {m.rows}x{m.rows} matrix")
    if any(not e.is_constant() for row in h.entries for e in row):
        raise NotConstant("conjugator must have constant entries")
    fld = m.field
    grid = [[e[0] for e in row] for row in h.entries]
    hinv = _invert_constant(grid, fld)
    if hinv is None:
        raise SingularConjugator("conjugator is singular")
    hm = PolyMatrix.constant(fld, grid)
    hmi = PolyMatrix.constant(fld, hinv)
    return hm @ m @ hmi


def two_cycle_matrix(field, n: int, a: int, b: int) -> PolyMatrix:
    """Permutation matrix for the transposition (a b), 1-based."""
    if not (1 <= a <= n and 1 <= b <= n):
        raise BadIndex(f"transposition ({a} {b}) outside [1, {n}]")
    grid = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    i, j = a - 1, b - 1
    grid[i][i] = grid[j][j] = 0
    grid[i][j] = grid[j][i] = 1
    return PolyMatrix.constant(field, grid)


def _invert_constant(grid, fld):
    n = len(grid)
    aug, r, _ = rref(
        [[list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(grid)]], n, fld
    )
    if r[0] < n:
        return None
    return aug[0, :, n:].tolist()


def check_S_conditions(m: PolyMatrix, l0: int) -> dict:
    """Report which structural conditions hold at column l0 (1-based):

    - ``diag_block``: the upper-left (l0-1) block is diagonal
    - ``ascending``: the first l0-1 diagonal degrees are non-decreasing
    - ``column_divisibility``: x^(deg(d_i)+1) divides entry (i, l0) for i < l0
    - ``reduced_above_pivot``: above-pivot degrees strictly below the pivot's
    - ``whole_column_divisible``: x^(deg(d_1)+1) divides all of column l0

    The count-equality condition needs enumeration and is not decided here;
    see verify_count_preservation.
    """
    n = m.rows
    if not m.is_square():
        raise NotSquare(f"{m.rows}x{m.cols}")
    if not 2 <= l0 <= n:
        raise BadIndex(f"l0 = {l0} outside [2, {n}]")
    c = l0 - 1
    report = {}
    report["diag_block"] = all(
        m.entries[i][j].is_zero() for i in range(c) for j in range(c) if i != j
    )
    degs = [m.entries[i][i].degree for i in range(c)]
    report["ascending"] = all(degs[i] <= degs[i + 1] for i in range(len(degs) - 1))

    def x_power_divides(e: Poly, power: int) -> bool:
        return e.is_zero() or all(e[d] == 0 for d in range(power))

    report["column_divisibility"] = all(
        not m.entries[i][i].is_zero()
        and x_power_divides(m.entries[i][c], int(m.entries[i][i].degree) + 1)
        for i in range(c)
    )
    pivot = m.entries[c][c]
    report["reduced_above_pivot"] = all(
        m.entries[i][c].degree + 1 <= pivot.degree for i in range(c)
    )
    d1 = m.entries[0][0]
    report["whole_column_divisible"] = not d1.is_zero() and all(
        x_power_divides(m.entries[i][c], int(d1.degree) + 1) for i in range(n)
    )
    return report


def verify_count_preservation(
    before: PolyMatrix,
    after: PolyMatrix,
    k_range,
    budget=None,
    move: dict | None = None,
) -> MoveRecord:
    """Count the degree-bounded orbit members of both matrices exactly, on
    the orbit side, for each k and record whether the counts agree.  The two
    matrices must share a field (else MixedFields) and a shape (else
    ShapeMismatch), and be square (else NotSquare)."""
    if before.field != after.field:
        raise MixedFields(f"before over F_{before.field.q}, after over F_{after.field.q}")
    if (before.rows, before.cols) != (after.rows, after.cols):
        raise ShapeMismatch(f"before {before.rows}x{before.cols}, after {after.rows}x{after.cols}")
    if not before.is_square():
        raise NotSquare(f"{before.rows}x{before.cols}")
    return _count_preservation([(before, after, tuple(k_range), move)], budget)[0]


def _count_preservation(pairs, budget) -> list:
    """verify_count_preservation on a list of (before, after, k_range, move)
    pairs of square matrices, each k_range a range or a tuple: one
    MoveRecord each.

    A count depends only on the field, the canonical form and k, so each
    distinct matrix is reduced once and each distinct (field,
    canonical-form key, k) is counted once.  All of them are counted first,
    by one ``oracle._member_counts`` call per (field, size), in the order
    the pairs first name them.  Each call draws its forms from a walk of the
    pairs as it checks them, so a refusal ends the walk there.  A singular
    matrix has no canonical form: ``hnf`` raises SingularMatrix.
    """
    forms = dict.fromkeys(m for before, after, _, _ in pairs for m in (before, after))
    forms = {m: (m.field, hnf(m).h.key()) for m in forms}
    sides = [[forms[before], forms[after]] for before, after, _, _ in pairs]
    named = [(r, two) for (_, _, r, _), two in zip(pairs, sides) if r]  # the pairs with a k
    # k < 0 is refused before any form is checked (a range's least k is one of its ends)
    lows = (min(r[0], r[-1]) if isinstance(r, range) else min(r) for r, _ in named)
    oracle._check_k(min(lows, default=0))
    counts = {}
    for f, n in dict.fromkeys((f, len(key)) for _, two in named for f, key in two):
        group = {}  # its (field, key, k), each once, in the order the walk draws them
        walk = (
            group.setdefault((g, key, k), (key, k))
            for r, two in named for k in r for g, key in two
            if (g, len(key)) == (f, n) and (g, key, k) not in group
        )
        got = oracle._member_counts(f, n, walk, budget)
        counts.update(zip(group, got))
    return [
        MoveRecord(
            before, after, move or {}, tuple((k, counts[(*b, k)], counts[(*a, k)]) for k in k_range)
        )
        for (before, after, k_range, move), (b, a) in zip(pairs, sides)
    ]


# -- fixture battery ---------------------------------------------------------


def standard_move_fixtures(field):
    """Deterministic battery of upper-triangular fixtures: (matrix, l0) pairs.

    At least 20 two-dimensional fixtures with entry degrees <= 2 (several with
    a degree gap big enough for the diagonal truncation to apply) and five
    three-dimensional fixtures with entry degrees <= 1.
    """
    P = lambda *c: Poly(field, c)
    d1_opts = [P(1), P(0, 1), P(1, 1)]
    d2_opts = [P(1), P(0, 1), P(1, 1), P(0, 0, 1), P(1, 0, 1), P(1, 1, 1), P(0, 1, 1)]
    e_opts = [P(1), P(0, 1), P(1, 0, 1)]
    per_t = {}
    picked = []
    for d1 in d1_opts:
        for d2 in d2_opts:
            for e in e_opts:
                t = int(d1.degree + d2.degree)
                if per_t.get(t, 0) >= 6 or len(picked) >= 24:
                    continue
                per_t[t] = per_t.get(t, 0) + 1
                picked.append((PolyMatrix([[d1, e], [P(), d2]]), 2))
    three = [
        (PolyMatrix([[P(1), P(1), P(1)], [P(), P(1), P(0, 1)], [P(), P(), P(0, 1)]]), 3),
        (PolyMatrix([[P(1), P(0, 1), P(1)], [P(), P(1), P(1)], [P(), P(), P(0, 1)]]), 3),
        (PolyMatrix([[P(1), P(1), P(0, 1)], [P(), P(0, 1), P(1)], [P(), P(), P(1)]]), 2),
        (PolyMatrix([[P(1), P(0), P(1)], [P(), P(1), P(1)], [P(), P(), P(1)]]), 3),
        (PolyMatrix([[P(0, 1), P(1), P(1)], [P(), P(1), P(1)], [P(), P(), P(1)]]), 2),
    ]
    return picked, three


def run_move_battery(fixtures, k_extra: int = 2, budget=None):
    """Apply the truncation moves to every fixture and verify census
    preservation for k in [t, t + k_extra]; returns the MoveRecords."""
    if k_extra < 0:
        raise InvalidParams(f"k_extra must be >= 0, got {k_extra}")
    pairs = []
    for m, l0 in fixtures:
        t = int(det(m).degree)
        ks = range(t, t + k_extra + 1)
        for name, move in (("truncation", truncation_move), ("diag_truncate", diag_truncate_move)):
            try:
                after = move(m, l0)
            except DegreeTooSmall:  # only the diagonal truncation refuses so
                continue
            pairs.append((m, after, ks, {"move": name, "l0": l0}))
    return _count_preservation(pairs, budget)
