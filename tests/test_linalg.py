"""The one elimination kernel and the codec that reads its batches back as
affine spaces (behind rank, solve_affine, the constant inverse of the
conjugation move and the orbit-side line solves), checked against
brute-force enumeration of every vector over F_2, F_3 and F_4, the
column-major kernel checked against the row-major one it replaced, and its
integer steps for prime fields against its table steps."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcount import linalg
from orbitcount.errors import ShapeMismatch
from orbitcount.fields import field_of_order, field_spec, tables
from orbitcount.linalg import (
    affine_solutions,
    consistent,
    iter_affine_space,
    rank,
    rref,
    solution_count,
    solve_affine,
)
from orbitcount.moves import _invert_constant

FIELDS = [field_of_order(q) for q in (2, 3, 4)]


@st.composite
def systems(draw, square=False):
    """A field, an m x n matrix and a right-hand side, m <= 4, n <= 5."""
    fld = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1 if square else 0, 4))
    n = m if square else draw(st.integers(1, 5))
    a = draw(matrices(fld, m, n))
    b = draw(matrices(fld, 1, m))[0]
    return fld, a, b, n


def matrices(fld, m, n):
    el = st.integers(0, fld.q - 1)
    return st.lists(st.lists(el, min_size=n, max_size=n), min_size=m, max_size=m)


@st.composite
def batches(draw):
    """A field and 1-4 systems [A | B] of one shape from systems(), each with
    1-3 right-hand sides (the columns of B)."""
    fld, a, b, n = draw(systems())
    m, nrhs = len(a), draw(st.integers(1, 3))
    rest = draw(st.lists(matrices(fld, m, n + nrhs), min_size=0, max_size=3))
    extra = draw(matrices(fld, m, nrhs - 1))
    first = [row + [v] + more for row, v, more in zip(a, b, extra)]
    return fld, [first] + rest, n, nrhs


def apply(fld, a, x):
    out = []
    for row in a:
        acc = 0
        for c, v in zip(row, x):
            acc = fld.add(acc, fld.mul(c, v))
        out.append(acc)
    return out


def all_vectors(fld, n):
    return product(range(fld.q), repeat=n)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_rank_is_log_of_image_size(system):
    fld, a, _, n = system
    image = {tuple(apply(fld, a, x)) for x in all_vectors(fld, n)}
    assert fld.q ** rank(a, fld) == len(image)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_affine_matches_enumeration(system):
    fld, a, b, n = system
    want = {x for x in all_vectors(fld, n) if apply(fld, a, x) == b}
    sol = solve_affine(a, b, fld, ncols=n)
    if sol is None:
        assert not want
        return
    particular, basis = sol
    assert len(want) == fld.q ** len(basis)
    assert {tuple(v) for v in iter_affine_space(particular, basis, fld)} == want


@settings(max_examples=150, deadline=None)
@given(batches())
def test_batched_codec_matches_enumeration(batch):
    fld, aug, n, nrhs = batch
    shape = (len(aug), len(aug[0]), n + nrhs)
    reduced, ranks, pivots = rref(np.array(aug, dtype=np.intp).reshape(shape), n, fld)
    ok = consistent(reduced, ranks, n)
    particulars, basis, free = affine_solutions(reduced, ranks, pivots, fld)
    total = 0
    for l, system in enumerate(aug):
        a = [row[:n] for row in system]
        wants = [
            {x for x in all_vectors(fld, n) if apply(fld, a, x) == [row[n + r] for row in system]}
            for r in range(nrhs)
        ]
        assert ok[l] == all(wants)
        assert free[l] == n - rank(a, fld)
        assert not basis[l, free[l] :].any()
        if not ok[l]:
            continue
        # row f is 1 on the f-th last free column and 0 on the other free ones
        last_first = np.flatnonzero(~pivots[l])[::-1]
        assert np.array_equal(basis[l, : free[l]][:, last_first], np.eye(free[l]))
        span = basis[l, : free[l]].tolist()
        for particular, want in zip(particulars[l].tolist(), wants):
            assert {tuple(v) for v in iter_affine_space(particular, span, fld)} == want
        total += len(wants[0])
    assert solution_count(fld.q, free[ok]) == total


def test_basis_rows_past_each_nullity_are_zero():
    # one F_3 batch of nullities 3 and 2: the basis has 3 rows, and the
    # second system's last one must not hold the image of a pivot column
    f3 = field_of_order(3)
    aug = np.array([[[1, 2, 0, 1, 1], [0, 0, 0, 0, 0]], [[1, 0, 2, 1, 0], [0, 1, 1, 2, 2]]])
    _, basis, free = affine_solutions(*rref(aug, 4, f3), f3)
    assert free.tolist() == [3, 2] and basis.shape == (2, 3, 4)
    assert basis[0].any(axis=1).all() and basis[1, :2].any(axis=1).all()
    assert not basis[1, 2].any()


def test_solve_affine_refuses_mismatched_shapes():
    f3 = field_of_order(3)
    # two right-hand sides for one equation: the second, 0 = 1, is not dropped
    with pytest.raises(ShapeMismatch):
        solve_affine([[1, 2]], [1, 1], f3)
    with pytest.raises(ShapeMismatch):
        solve_affine([[1, 2], [0, 1]], [1], f3)
    with pytest.raises(ShapeMismatch):
        solve_affine([[1, 2, 0]], [1], f3, ncols=2)
    with pytest.raises(ShapeMismatch):
        solve_affine([[1, 2], [1]], [1, 1], f3)
    assert solve_affine([[1, 2]], [1], f3) == ([1, 0], [[1, 1]])


@settings(max_examples=150, deadline=None)
@given(systems(square=True))
def test_invert_constant_matches_enumeration(system):
    fld, a, _, n = system
    injective = len({tuple(apply(fld, a, x)) for x in all_vectors(fld, n)}) == fld.q**n
    inv = _invert_constant(a, fld)
    if not injective:
        assert inv is None
        return
    columns = [apply(fld, a, [row[j] for row in inv]) for j in range(n)]
    assert columns == [[int(i == j) for i in range(n)] for j in range(n)]


# -- the column-major kernel against the row-major one it replaced ----------


def reference_rref(systems, ncols, field):
    """The row-major Gauss-Jordan kernel that ``rref`` replaced: it holds the
    batch as (L, R, C) and steps only the systems with a pivot in the
    column, gathered and scattered back."""
    add, mul, neg, inv = (t.astype(np.intp) for t in tables(field))
    q = len(neg)
    add, mul = add.ravel(), mul.ravel()
    a = np.array(systems, dtype=np.intp)
    size, nrows, _ = a.shape
    used = np.zeros((size, nrows), dtype=bool)
    pivot_of = np.full((size, nrows), ncols)
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
    order = np.argsort(pivot_of, axis=1, kind="stable")
    pivots = np.zeros((size, ncols + 1), dtype=bool)
    pivots[np.arange(size)[:, None], pivot_of] = True
    return np.take_along_axis(a, order[:, :, None], axis=1), used.sum(axis=1), pivots[:, :ncols]


# GF(25) as F_5[x]/(x^2 + 2): -2 is not a square mod 5
WIDE_FIELDS = [field_of_order(q) for q in (2, 3, 4, 8, 9)] + [field_spec(5, 2, (2, 0, 1))]


@st.composite
def raw_batches(draw):
    """A field and a batch (L, R, C) with ncols <= C: L, R, C and ncols may
    be 0, and a batch is random, all zero, or rank-deficient (each row a
    combination of at most two random rows)."""
    fld = draw(st.sampled_from(WIDE_FIELDS))
    size, nrows, width = draw(st.integers(0, 5)), draw(st.integers(0, 6)), draw(st.integers(0, 7))
    ncols = draw(st.integers(0, width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, fld.q, (size, nrows, width))
    kind = draw(st.sampled_from(["random", "zero", "deficient"]))
    if kind == "zero":
        a[:] = 0
    elif kind == "deficient":
        add, mul = tables(fld)[:2]
        basis = rng.integers(0, fld.q, (size, 2, width))
        coef = rng.integers(0, fld.q, (size, nrows, 2))
        a = add[mul[coef[..., :1], basis[:, None, 0]], mul[coef[..., 1:], basis[:, None, 1]]]
    return fld, a.astype(np.intp), ncols


@settings(max_examples=300, deadline=None)
@given(raw_batches())
def test_rref_matches_row_major_reference(batch):
    fld, a, ncols = batch
    before = a.copy()
    got = rref(a, ncols, fld)
    want = reference_rref(a, ncols, fld)
    assert np.array_equal(a, before)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


# each side of every dtype switch of the integer steps: uint8 up to p = 13,
# int16 up to 181, int32 beyond
STEP_PRIMES = (2, 3, 13, 17, 181, 191, 509)


def table_rref(systems, ncols, field, monkeypatch):
    """``rref`` with the add and mul tables doing its two steps, as for an
    extension field: the reference of the integer steps of prime fields."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "_steps", linalg._table_steps)
        return rref(systems, ncols, field)


@pytest.mark.parametrize("p", STEP_PRIMES)
def test_integer_steps_match_table_steps(p, monkeypatch):
    """Random, all-zero and rank-deficient batches, one system or many, with
    no eliminated column or with carried right-hand-side columns: reduced
    batches, ranks and pivots equal element for element."""
    fld = field_of_order(p)
    rng = np.random.default_rng(p)
    cases = []
    for size, nrows, width, ncols in [(1, 4, 6, 4), (1, 3, 3, 0), (40, 6, 9, 6), (64, 5, 5, 5),
                                      (25, 7, 4, 3), (3, 0, 4, 2), (1, 1, 1, 1)]:
        a = rng.integers(0, p, (size, nrows, width))
        cases.append((a, ncols))
        cases.append((np.zeros_like(a), ncols))
        # every row a combination of two rows: ranks <= 2, most columns free
        basis = rng.integers(0, p, (size, 2, width))
        coef = rng.integers(0, p, (size, nrows, 2))
        cases.append((np.einsum("lrk,lkc->lrc", coef, basis) % p, ncols))
    # the largest entries, where rest + f row is largest
    cases.append((np.full((8, 4, 6), p - 1), 3))
    for a, ncols in cases:
        got = rref(a, ncols, fld)
        want = table_rref(a, ncols, fld, monkeypatch)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
