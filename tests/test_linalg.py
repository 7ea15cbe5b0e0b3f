"""The one elimination kernel behind rank, solve_affine and the constant
inverse of the conjugation move, checked against brute-force enumeration of
every vector over F_2, F_3 and F_4."""

from itertools import product

from hypothesis import given, settings, strategies as st

from orbitcount.fields import field_of_order
from orbitcount.linalg import iter_affine_space, rank, solve_affine
from orbitcount.moves import _invert_constant

FIELDS = [field_of_order(q) for q in (2, 3, 4)]


@st.composite
def systems(draw, square=False):
    """A field, an m x n matrix and a right-hand side, m <= 4, n <= 5."""
    fld = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1 if square else 0, 4))
    n = m if square else draw(st.integers(1, 5))
    el = st.integers(0, fld.q - 1)
    a = draw(st.lists(st.lists(el, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(el, min_size=m, max_size=m))
    return fld, a, b, n


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
