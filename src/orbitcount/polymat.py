"""Matrices over F_q[x]: exact determinant, Hermite normal form, orbit tests.

Every determinant and cofactor comes from one kernel, ``_minors``, on the
field's tables: ``det`` runs it on a batch of one, ``oracle`` on numpy
batches (the cofactors of the unipotent-family solve and of the member
counter, ``oracle._member_counts``).

The Hermite normal form used throughout is the canonical representative of
the left orbit under unimodular (constant-determinant) matrices: upper
triangular, monic diagonal, and every above-diagonal entry reduced to degree
strictly below the diagonal entry of its column.  Orbit equality is therefore
a structural equality of canonical forms.  One kernel, ``_hermite`` on
coefficient lists, reduces: ``hnf`` wraps it and the orbit census runs it on
each prefix, and it computes with ``poly``'s ``_submul`` and ``_divmod_coeffs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    InvalidParams,
    MixedFields,
    NotSquare,
    ShapeMismatch,
    SingularMatrix,
    ZeroColumn,
)
from .fields import GF, is_int_list, tables
from .poly import Poly, _divmod_coeffs, _submul, poly_gcd


class PolyMatrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ShapeMismatch("matrices must have at least one row and column")
        field = entries[0][0].field
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ShapeMismatch("ragged rows")
            for e in row:
                if e.field != field:
                    raise MixedFields("entries from different fields")
        self.field = field
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, field: GF, n: int):
        one, zero = Poly.one(field), Poly.zero(field)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag):
        field = diag[0].field
        zero = Poly.zero(field)
        n = len(diag)
        return cls([[diag[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_ints(cls, field: GF, rows):
        """Rows of little-endian integer coefficient lists."""
        return cls([[Poly.from_ints(field, e) for e in row] for row in rows])

    @classmethod
    def constant(cls, field: GF, rows):
        """A matrix of constants, given as an integer grid."""
        return cls([[Poly.const(field, v) for v in row] for row in rows])

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "entries": [[e.to_ints() for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PolyMatrix":
        """The matrix ``to_json`` wrote; any other shape raises InvalidParams."""
        rows = obj.get("entries") if isinstance(obj, dict) else None
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(map(is_int_list, row)) for row in rows
        ):
            raise InvalidParams('a matrix must be {"field": ..., "entries": [[[int]]]}')
        return cls.from_ints(GF.from_json(obj.get("field")), rows)

    # -- views ---------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int):
        return [self.entries[i][j] for i in range(self.rows)]

    def coeff_layer(self, j: int, d: int):
        """The vector of degree-d coefficients of column j."""
        return [self.entries[i][j][d] for i in range(self.rows)]

    def constant_layer(self):
        """The matrix of constant terms, as an integer grid."""
        return [[e[0] for e in row] for row in self.entries]

    def key(self):
        """Hashable structural key (coefficient tuples, row-major)."""
        return tuple(tuple(e.coeffs for e in row) for row in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_upper_triangular(self) -> bool:
        return all(
            self.entries[i][j].is_zero()
            for i in range(self.rows)
            for j in range(min(i, self.cols))
        )

    def max_entry_degree(self):
        return max(e.degree for row in self.entries for e in row)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.entries)
        return f"[{body}]"

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.field != other.field:
            raise MixedFields("matrix product across different fields")
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero, cols = Poly.zero(self.field), list(zip(*other.entries))
        return PolyMatrix(
            [[sum((a * b for a, b in zip(row, c)), zero) for c in cols] for row in self.entries]
        )


def satisfies_R(m: PolyMatrix, k: int) -> bool:
    """True iff every entry has degree <= k (zero entries pass)."""
    return all(e.degree <= k for row in m.entries for e in row)


def _mac(tbl, acc, a, b):
    """acc + a·b, written into acc, for a batch of L polynomial products.

    acc and b hold little-endian coefficients as arrays (D, L); each
    coefficient of a is a field element or an array (L,) of them.  acc needs
    len(a) + len(b) - 1 rows.  tbl is ``fields.tables`` of the field.
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


def _minors(tbl, rows, size: int):
    """{cols: array (D, size)}: the minors of the rows (lists of n entries,
    each a coefficient list as in _mac) of a batch of size matrices, on every
    increasing tuple cols of len(rows) columns.  Row by row: the minor of
    rows[:r + 1] on cols is the sum over its i-th column c of (-1)^(r+i)
    rows[r][c] times the minor of rows[:r] on cols minus c, so an n x n
    determinant takes n·2^(n-1) _mac products (n! by recursive expansion)."""
    import numpy as np  # not at the top: see fields.tables

    neg = tbl[2]
    minors = {(): np.ones((1, size), dtype=np.intp)}
    for r, row in enumerate(rows):
        nxt = {}
        for cols in combinations(range(len(row)), r + 1):
            terms = [(row[c], minors[cols[:i] + cols[i + 1 :]]) for i, c in enumerate(cols)]
            depth = max(1, max(len(a) + len(m) - 1 for a, m in terms))
            acc = np.zeros((depth, size), dtype=np.intp)
            for i, (a, m) in enumerate(terms):
                _mac(tbl, acc, a, neg[m] if (r + i) % 2 else m)
            nxt[cols] = acc
        minors = nxt
    return minors


def det(m: PolyMatrix) -> Poly:
    """Exact determinant: the full-column minor of ``_minors`` on a batch of
    one, n·2^(n-1) polynomial products for an n x n matrix."""
    if not m.is_square():
        raise NotSquare(f"{m.rows}x{m.cols}")
    rows = [[e.coeffs for e in row] for row in m.entries]
    d = _minors(tables(m.field), rows, 1)[tuple(range(m.rows))]
    return Poly(m.field, d[:, 0].tolist())


def det_constant(u: PolyMatrix) -> int:
    """Determinant of a matrix known to be unimodular, as a field element."""
    d = det(u)
    if not d.is_constant():
        raise SingularMatrix("matrix is not unimodular")
    return d[0]


@dataclass(frozen=True)
class HermiteForm:
    h: PolyMatrix
    u: PolyMatrix
    det_degree: int
    unit: int  # det(u), a nonzero field element


def _hermite(field: GF, rows):
    """The Hermite reduction of ``hnf`` on rows of little-endian coefficient
    lists, each normalised (no trailing zero; [] is 0), through the field's
    tables: ``(h, u, t, unit)``, the rows of h and of the witness u as
    coefficient lists, t = deg det H1 and unit = det u.

    The list rows is reduced in place: its rows are swapped and replaced,
    but no row or coefficient list passed in is written to (tuples will do),
    so callers may share them.
    Euclidean elimination clears each column below the diagonal, the pivot
    being the first row of least degree (each swap negates the unit); the
    pivot row is made monic, and then the entries above the diagonal are
    reduced by division with remainder, column by column from the left.  A
    column without a pivot raises SingularMatrix; a column that its bounded
    rounds do not clear (a faulty division) raises RuntimeError.
    """
    mul, neg, inv = field._mul, field._neg, field._inv
    h, n, ncols = rows, len(rows), len(rows[0])
    u = [[[1] if i == j else [] for j in range(n)] for i in range(n)]
    unit = 1

    def row_sub(i, c, qt):
        # row_i -= qt * row_c
        h[i] = [_submul(field, a, qt, b) for a, b in zip(h[i], h[c])]
        u[i] = [_submul(field, a, qt, b) for a, b in zip(u[i], u[c])]

    for c in range(ncols):
        # a round that does not end the column lowers the pivot's degree, so
        # the column ends within 1 + (its longest coefficient list) rounds
        for _ in range(1 + max(len(h[i][c]) for i in range(c, n))):
            live = [i for i in range(c, n) if h[i][c]]
            if not live:
                raise SingularMatrix(f"column {c} has no pivot")
            piv = min(live, key=lambda i: len(h[i][c]))
            if piv != c:
                h[c], h[piv] = h[piv], h[c]
                u[c], u[piv] = u[piv], u[c]
                unit = neg[unit]
            below = [i for i in range(c + 1, n) if h[i][c]]
            if not below:
                break
            for i in below:
                row_sub(i, c, _divmod_coeffs(field, h[i][c], h[c][c])[0])
        else:
            raise RuntimeError(f"column {c}: the Euclidean reduction did not end")
        # monic pivot
        lc = h[c][c][-1]
        if lc != 1:
            row = mul[inv[lc]]
            h[c] = [[row[v] for v in e] for e in h[c]]
            u[c] = [[row[v] for v in e] for e in u[c]]
            unit = row[unit]
    # reduce above-diagonal entries, left to right
    for c in range(1, ncols):
        for i in range(c):
            if len(h[i][c]) >= len(h[c][c]):
                row_sub(i, c, _divmod_coeffs(field, h[i][c], h[c][c])[0])
    return h, u, sum(len(h[i][i]) - 1 for i in range(ncols)), unit


def hnf(m: PolyMatrix) -> HermiteForm:
    """Canonical upper-triangular form under left unimodular multiplication,
    by ``_hermite``.  The witness u satisfies u @ m = h with det(u) = unit in
    F_q^*, tracked through the row operations.

    An n x c matrix with c < n (full column rank) is reduced the same way:
    h is [H1; 0] with H1 the c x c canonical form, and det_degree is the
    degree of det(H1).  A column without a pivot raises SingularMatrix.
    """
    if m.cols > m.rows:
        raise NotSquare(f"{m.rows}x{m.cols}")
    field = m.field
    h, u, t, unit = _hermite(field, [[e.coeffs for e in row] for row in m.entries])
    h, u = ([[Poly(field, e) for e in row] for row in rows] for rows in (h, u))
    return HermiteForm(PolyMatrix(h), PolyMatrix(u), t, unit)


def same_orbit(a: PolyMatrix, b: PolyMatrix) -> bool:
    """True iff a and b, of one field and one shape, share a left unimodular orbit."""
    if a.field != b.field:
        raise MixedFields(f"a over F_{a.field.q}, b over F_{b.field.q}")
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeMismatch(f"{a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return hnf(a).h == hnf(b).h


def column_gcd(m: PolyMatrix, j: int) -> Poly:
    """Monic gcd of the entries of column j."""
    col = [e for e in m.column(j) if not e.is_zero()]
    if not col:
        raise ZeroColumn(f"column {j} is identically zero")
    g = col[0]
    for e in col[1:]:
        g = poly_gcd(g, e)
    return g.monic()


def is_canonical_hnf(m: PolyMatrix) -> bool:
    """Structural check of the canonical-form conditions."""
    if not m.is_square() or not m.is_upper_triangular():
        return False
    n = m.rows
    for j in range(n):
        d = m.entries[j][j]
        if d.is_zero() or d.lc != 1:
            return False
        for i in range(j):
            if m.entries[i][j].degree >= d.degree:
                return False
    return True
