"""Small dense linear algebra over a finite field.

Vectors are lists of integer-coded field elements.  One Gauss-Jordan kernel
(``rref``) reduces a whole batch of systems at once in numpy, through the
field's tables widened to intp for flat ``x * q + y`` lookups; one codec
(``consistent``, ``affine_solutions``, ``solution_count``) reads a reduced
batch back as affine spaces.  ``rank``, ``solve_affine`` and the constant
inverse of the conjugation move run on a batch of one, the orbit-side
counters on a whole count at once.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import ShapeMismatch
from .fields import GF, tables


def rref(systems, ncols: int, field: GF):
    """Reduced row echelon form of a batch of systems by Gauss-Jordan
    elimination on the first ``ncols`` columns (later columns, such as
    augmented right-hand sides, are carried along).

    ``systems`` is an integer array (L, R, C) of field elements; it is left
    unchanged.  Returns ``(reduced, rank, pivots)``: the reduced batch, where
    row i of system l has its leading 1 in the i-th pivot column of l and
    rows from ``rank[l]`` on are zero on the first ``ncols`` columns; the
    rank of each system, an array (L,); and a boolean array (L, ncols) that
    marks each system's pivot columns.
    """
    add, mul, neg, inv = (t.astype(np.intp) for t in tables(field))  # x * q + y needs intp
    q = len(neg)
    add, mul = add.ravel(), mul.ravel()  # table[x * q + y] is one take per lookup
    a = np.array(systems, dtype=np.intp)
    size, nrows, _ = a.shape
    used = np.zeros((size, nrows), dtype=bool)  # rows that hold a pivot
    pivot_of = np.full((size, nrows), ncols)  # the pivot column of each used row
    for c in range(ncols):
        if used.all():
            break
        live = (a[:, :, c] != 0) & ~used
        sel = np.flatnonzero(live.any(axis=1))
        if not sel.size:
            continue
        whole = sel.size == size
        block = a if whole else a[sel]
        p = np.argmax(live[sel], axis=1)
        at = np.arange(sel.size)
        # the pivot row is zero left of column c, so only columns c.. change
        row = block[at, p, c:]
        row = mul.take(inv[row[:, 0]][:, None] * q + row)
        factor = neg[block[:, :, c]]
        factor[at, p] = 0
        step = mul.take(factor[:, :, None] * q + row[:, None, :])
        step += block[:, :, c:] * q
        block[:, :, c:] = add.take(step)
        block[at, p, c:] = row
        if not whole:
            a[sel] = block
        used[sel, p] = True
        pivot_of[sel, p] = c
    # pivot rows first, in pivot-column order; the stable sort keeps the rest
    order = np.argsort(pivot_of, axis=1, kind="stable")
    pivots = np.zeros((size, ncols + 1), dtype=bool)
    pivots[np.arange(size)[:, None], pivot_of] = True
    return np.take_along_axis(a, order[:, :, None], axis=1), used.sum(axis=1), pivots[:, :ncols]


def rank(rows, field: GF) -> int:
    """Rank of a list of row vectors."""
    rows = list(rows)
    return int(rref([rows], len(rows[0]), field)[1][0]) if rows else 0


def consistent(reduced, ranks, ncols: int):
    """Which systems [A | B] of a ``rref`` batch (A has ``ncols`` columns)
    are solvable for every right-hand side: no row past the rank is nonzero."""
    past = np.arange(reduced.shape[1]) >= ranks[:, None]
    return ~(past & reduced[:, :, ncols:].any(axis=2)).any(axis=1)


def affine_solutions(reduced, ranks, pivots, field: GF):
    """The affine solution spaces of the systems [A | B] of a ``rref`` batch
    (reduced rows, ranks, pivot masks on A): ``(particulars, basis, free)``,
    arrays (L, m, ncols) with a solution for each of the m right-hand sides
    (where ``consistent``), (L, F, ncols) whose first free[l] rows span the
    nullspace of A (row f is 1 on the f-th free column), and the nullities."""
    neg = tables(field)[2]
    size, nrows, width = reduced.shape
    ncols = pivots.shape[1]
    m = min(nrows, ncols)
    free = ncols - ranks
    # pivot columns first, then the free ones, each in increasing order
    order = np.argsort((~pivots).astype(np.intp), axis=1, kind="stable")
    at = np.arange(size)
    rows = reduced[:, :m]
    # rows past the rank are zero, the right-hand sides of a consistent one too
    particulars = np.zeros((size, ncols, width - ncols), dtype=reduced.dtype)
    particulars[at[:, None], order[:, :m]] = rows[:, :, ncols:]
    basis = np.zeros((size, free.max(initial=0), ncols), dtype=reduced.dtype)
    for k in range(basis.shape[1]):
        f = order[at, np.minimum(ranks + k, ncols - 1)]
        # free column f set to 1 moves pivot column order[r] by -reduced[r, f]
        basis[at[:, None], k, order[:, :m]] = neg[rows[at, :, f]]
        basis[at, k, f] = 1
    return particulars.transpose(0, 2, 1), basis, free


def solution_count(q: int, free) -> int:
    """The exact sum of q^f over an array of nullities free."""
    return sum(c * q**f for f, c in enumerate(np.bincount(free, minlength=1).tolist()))


def solve_affine(a_rows, b, field: GF, ncols: int | None = None):
    """Solve A x = b over the field.

    Returns ``(particular, basis)`` where ``basis`` spans the nullspace of A,
    or ``None`` when the system is inconsistent.  ``ncols`` must be given when
    the system can be empty (no constraint rows).  A b of another length than
    A, or a row of another length than ncols, raises ShapeMismatch.
    """
    n = ncols if ncols is not None else (len(a_rows[0]) if a_rows else 0)
    if len(b) != len(a_rows) or any(len(row) != n for row in a_rows):
        raise ShapeMismatch(f"A x = b needs len(b) = {len(a_rows)} and rows of length {n}")
    aug = np.array([[*row, v] for row, v in zip(a_rows, b)], dtype=np.intp)
    reduced, ranks, pivots = rref(aug.reshape(1, len(b), n + 1), n, field)
    if not consistent(reduced, ranks, n)[0]:
        return None
    particulars, basis, _ = affine_solutions(reduced, ranks, pivots, field)
    return particulars[0, 0].tolist(), basis[0].tolist()


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
