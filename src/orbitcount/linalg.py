"""Small dense linear algebra over a finite field.

Vectors are lists of integer-coded field elements.  One Gauss-Jordan kernel
(``rref``) reduces a whole batch of systems at once in numpy; the field
chooses its two arithmetic steps, scaling the pivot row and subtracting a
multiple of it from the other rows.  A prime field F_p does both in plain
integer arithmetic, in the narrowest dtype that holds p^2 - 1 (uint8 up to
p = 13, int16 up to 181, int32 beyond), reduced once per step as
x - p (x // p); an extension field looks both up in its add and mul tables,
widened to intp for flat ``x * q + y`` lookups.  One codec (``consistent``,
``affine_solutions``, ``solution_count``) reads a reduced batch back as
affine spaces, each basis zero in the rows past its system's nullity.
``rank``, ``solve_affine`` and the constant inverse of the conjugation
move run on a batch of one; the orbit-side counters run on whole batches:
the member counter reduces the systems of every form it counts in one
call, and each batch of choices in another.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import ShapeMismatch
from .fields import GF, tables


def _table_steps(field: GF):
    """The two steps of ``rref`` through the field's tables: ``(dtype,
    scale, eliminate)``, scale(s, row) returning s row and eliminate(rest,
    e, row) setting rest to rest - e row in place, elementwise.  ``rref``
    takes them for extension fields; for prime fields they are the
    reference that the integer steps are tested against."""
    add, mul, neg, _ = (t.astype(np.intp) for t in tables(field))  # x * q + y needs intp
    add, mul, q = add.ravel(), mul.ravel(), field.q

    def eliminate(rest, e, row):
        x = mul.take(neg[e] * q + row)
        x += rest * q
        rest[...] = add.take(x)

    return np.intp, lambda s, row: mul.take(s * q + row), eliminate


def _integer_steps(p: int):
    """The two steps of ``rref`` over F_p in integer arithmetic (see
    ``_table_steps``): rest - e row is rest + (p - e) row, at most
    (p - 1) + p (p - 1) = p^2 - 1, held in the narrowest dtype that holds it.
    Each step is reduced once, by floor division: numpy divides integers by
    a scalar far faster than it takes ``%``."""
    dtype = next(t for t in (np.uint8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= p * p - 1)

    def scale(s, row):
        x = s * row
        x -= p * (x // p)
        return x

    def eliminate(rest, e, row):
        rest += (p - e) * row
        rest -= p * (rest // p)

    return dtype, scale, eliminate


def _steps(field: GF):
    """The two steps of ``rref`` over field: integer arithmetic for a prime
    field, table lookups for an extension field."""
    return _integer_steps(field.p) if field.e == 1 else _table_steps(field)


def rref(systems, ncols: int, field: GF):
    """Reduced row echelon form of a batch of systems by Gauss-Jordan
    elimination on the first ``ncols`` columns (later columns, such as
    augmented right-hand sides, are carried along).

    ``systems`` is an integer array (L, R, C) of field elements; it is left
    unchanged.  Returns ``(reduced, rank, pivots)``: the reduced batch, an
    intp array, where row i of system l has its leading 1 in the i-th pivot
    column of l and rows from ``rank[l]`` on are zero on the first ``ncols``
    columns; the rank of each system, an array (L,); and a boolean array
    (L, ncols) that marks each system's pivot columns.

    The batch is held column-major, as (C, R, L), so that each column step
    reads and writes contiguous (R, L) blocks, in the dtype of the field's
    steps (see ``_steps``).  Every column steps every system: one with no
    pivot in the column gets factor 0 and scale 1, which leaves it
    unchanged, so no live subset is gathered or scattered.
    """
    dtype, scale_row, eliminate = _steps(field)
    inv = tables(field)[3].astype(dtype)
    a = np.array(np.asarray(systems).transpose(2, 1, 0), dtype=dtype, order="C")
    _, nrows, size = a.shape
    at = np.arange(size)
    free = np.ones((nrows, size), dtype=bool)  # rows that hold no pivot
    pivot_of = np.full((nrows, size), ncols)  # the pivot column of each row that holds one
    for c in range(ncols):
        live = a[c] != 0
        live &= free
        has = live.any(axis=0)
        if not has.any():
            continue
        p = np.argmax(live, axis=0)
        # the pivot row is zero left of column c, so only columns c.. change
        row = a[c:, p, at]
        row = scale_row(np.where(has, inv[row[0]], 1), row)
        factor = a[c] * has  # 0 where the system has no pivot here
        factor[p, at] = 0
        eliminate(a[c:], factor, row[:, None, :])
        a[c:, p, at] = row
        got = p[has], at[has]  # (row, system) of each new pivot
        free[got] = False
        pivot_of[got] = c
    # pivot rows first, in pivot-column order; the stable sort keeps the rest
    order = np.argsort(pivot_of, axis=0, kind="stable")
    pivots = np.zeros((ncols + 1, size), dtype=bool)
    pivots[pivot_of, at] = True
    reduced = a[:, order, at].transpose(2, 1, 0).astype(np.intp)
    return reduced, nrows - free.sum(axis=0), pivots[:ncols].T


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
    nullspace of A (row f is 1 on the f-th last free column), the rest zero,
    and nullities."""
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
        f = order[:, ncols - 1 - k]  # the k-th last free column; past free, a pivot one (zeroed below)
        # free column f set to 1 moves pivot column order[r] by -reduced[r, f]
        basis[at[:, None], k, order[:, :m]] = neg[rows[at, :, f]]
        basis[at, k, f] = 1
    basis[np.arange(basis.shape[1]) >= free[:, None]] = 0
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
