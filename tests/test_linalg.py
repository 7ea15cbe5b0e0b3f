"""The one elimination kernel and the codec that reads its batches back as
affine spaces (behind rank, solve_affine, the constant inverse of the
conjugation move and the orbit-side line solves), checked against
brute-force enumeration of every vector over F_2, F_3 and F_4."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcount.errors import ShapeMismatch
from orbitcount.fields import field_of_order
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
        if not ok[l]:
            continue
        span = basis[l, : free[l]].tolist()
        for particular, want in zip(particulars[l].tolist(), wants):
            assert {tuple(v) for v in iter_affine_space(particular, span, fld)} == want
        total += len(wants[0])
    assert solution_count(fld.q, free[ok]) == total


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
