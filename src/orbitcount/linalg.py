"""Small dense linear algebra over a finite field.

Vectors are lists of integer-coded field elements; everything here is sized
for the desk-scale systems this package solves (a few dozen unknowns).
"""

from __future__ import annotations

from itertools import product

from .fields import GF


def rref(rows, ncols: int, field: GF):
    """Reduced row echelon form by Gauss-Jordan elimination on the first
    ``ncols`` columns (later columns, such as an augmented right-hand side,
    are carried along).

    Returns ``(rows, pivots)``: the reduced rows (a new list), where row i
    has its leading 1 in column ``pivots[i]`` and the rows past
    ``len(pivots)`` are zero on the first ``ncols`` columns.
    """
    rows = list(rows)  # rows are replaced, never mutated, so a shallow copy suffices
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(rows, field: GF) -> int:
    """Rank of a list of row vectors."""
    rows = list(rows)
    return len(rref(rows, len(rows[0]), field)[1]) if rows else 0


def solve_affine(a_rows, b, field: GF, ncols: int | None = None):
    """Solve A x = b over the field.

    Returns ``(particular, basis)`` where ``basis`` spans the nullspace of A,
    or ``None`` when the system is inconsistent.  ``ncols`` must be given when
    the system can be empty (no constraint rows).
    """
    n = ncols if ncols is not None else (len(a_rows[0]) if a_rows else 0)
    aug, pivots = rref([list(r) + [bv] for r, bv in zip(a_rows, b)], n, field)
    for row in aug[len(pivots):]:
        if row[n]:
            return None
    particular = [0] * n
    for row, c in zip(aug, pivots):
        particular[c] = row[n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[fc] = 1
        for row, c in zip(aug, pivots):
            vec[c] = field.neg(row[fc])
        basis.append(vec)
    return particular, basis


def iter_affine_space(particular, basis, field: GF):
    """Yield every vector particular + span(basis), in a deterministic order."""
    n = len(particular)
    if not basis:
        yield list(particular)
        return
    for coeffs in product(field.elements(), repeat=len(basis)):
        vec = list(particular)
        for c, bvec in zip(coeffs, basis):
            if c:
                for j in range(n):
                    if bvec[j]:
                        vec[j] = field.add(vec[j], field.mul(c, bvec[j]))
        yield vec
