"""Small dense linear algebra over a finite field.

Vectors are lists of integer-coded field elements.  One Gauss-Jordan kernel
(``rref``) reduces a whole batch of systems at once in numpy, through the
field's tables widened to intp for flat ``x * q + y`` lookups; ``rank``,
``solve_affine`` and the constant inverse of the conjugation move pass it a
batch of one, and the orbit-side counters pass it a whole count at once.
"""

from __future__ import annotations

from itertools import product

import numpy as np

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


def affine_solutions(reduced, r: int, pivots, field: GF):
    """Solve A x = b for every right-hand side b of one system [A | B] from
    its entry in a ``rref`` batch: the reduced rows, the rank ``r`` and the
    pivot mask over the columns of A.

    Returns ``(particulars, basis)`` as arrays (m, ncols) and (nb, ncols),
    ``basis`` spanning the nullspace of A, or ``None`` when any of the m
    systems is inconsistent.
    """
    ncols = len(pivots)
    if reduced[r:, ncols:].any():
        return None
    pcols, free = np.flatnonzero(pivots), np.flatnonzero(~pivots)
    particulars = np.zeros((reduced.shape[1] - ncols, ncols), dtype=np.intp)
    particulars[:, pcols] = reduced[:r, ncols:].T
    basis = np.zeros((free.size, ncols), dtype=np.intp)
    basis[np.arange(free.size), free] = 1
    basis[:, pcols] = tables(field)[2][reduced[:r][:, free]].T
    return particulars, basis


def solve_affine(a_rows, b, field: GF, ncols: int | None = None):
    """Solve A x = b over the field.

    Returns ``(particular, basis)`` where ``basis`` spans the nullspace of A,
    or ``None`` when the system is inconsistent.  ``ncols`` must be given when
    the system can be empty (no constraint rows).
    """
    n = ncols if ncols is not None else (len(a_rows[0]) if a_rows else 0)
    aug = np.zeros((1, len(b), n + 1), dtype=np.intp)
    for row, r, bv in zip(aug[0], a_rows, b):
        row[:n] = r
        row[n] = bv
    reduced, r, pivots = rref(aug, n, field)
    sol = affine_solutions(reduced[0], int(r[0]), pivots[0], field)
    if sol is None:
        return None
    particulars, basis = sol
    return particulars[0].tolist(), basis.tolist()


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
