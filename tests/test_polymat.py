"""Hermite form and determinant behavior on small matrices."""

import random
from itertools import product

import pytest

from orbitcount.errors import NotSquare, ShapeMismatch, SingularMatrix, ZeroColumn
from orbitcount.fields import field_of_order
from orbitcount import polymat
from orbitcount.poly import Poly, poly_gcd
from orbitcount.polymat import (
    PolyMatrix,
    _det_cofactor,
    column_gcd,
    det,
    det_constant,
    hnf,
    is_canonical_hnf,
    same_orbit,
    satisfies_R,
)

F2 = field_of_order(2)
F3 = field_of_order(3)


def p2(*c):
    return Poly(F2, c)


def all_matrices_f2(n, k):
    width = k + 1
    cells = [Poly(F2, c) for c in product(range(2), repeat=width)]
    for flat in product(cells, repeat=n * n):
        yield PolyMatrix([flat[i * n : (i + 1) * n] for i in range(n)])


def test_hnf_permutation_example():
    m = PolyMatrix([[p2(), p2(1)], [p2(0, 1), p2()]])
    h = hnf(m).h
    assert h == PolyMatrix([[p2(0, 1), p2()], [p2(), p2(1)]])


def test_hnf_elimination_example():
    m = PolyMatrix([[p2(1, 1), p2(1)], [p2(1), p2(0, 1)]])
    h = hnf(m).h
    # [[1, x], [0, x^2+x+1]]
    assert h == PolyMatrix([[p2(1), p2(0, 1)], [p2(), p2(1, 1, 1)]])


def test_hnf_witness_identity():
    m = PolyMatrix([[p2(1, 1), p2(1)], [p2(1), p2(0, 1)]])
    form = hnf(m)
    assert form.u @ m == form.h
    assert det_constant(form.u) != 0


def test_hnf_is_idempotent_and_canonical():
    for m in [
        PolyMatrix([[p2(0, 1), p2(1)], [p2(1), p2(0, 1)]]),
        PolyMatrix([[p2(1), p2(0, 0, 1)], [p2(0, 1), p2(1, 1)]]),
    ]:
        h = hnf(m).h
        assert is_canonical_hnf(h)
        assert hnf(h).h == h


def test_hnf_left_invariance_exhaustive_f2_deg1():
    """u @ m and m share a canonical form for every unimodular u and every
    nonsingular m at n = 2, entry degree <= 1."""
    mats = list(all_matrices_f2(2, 1))
    units = [m for m in mats if det(m).is_constant() and not det(m).is_zero()]
    nonsingular = [m for m in mats if not det(m).is_zero()]
    random.seed(7)
    for m in random.sample(nonsingular, 40):
        key = hnf(m).h.key()
        for u in random.sample(units, 20):
            assert hnf(u @ m).h.key() == key


def test_hnf_rejects_singular_and_nonsquare():
    with pytest.raises(SingularMatrix):
        hnf(PolyMatrix([[p2(1), p2(1)], [p2(1), p2(1)]]))
    with pytest.raises(NotSquare):
        hnf(PolyMatrix([[p2(1), p2(1)]]))


def test_hnf_of_a_tall_matrix():
    """An n x c matrix reduces to [H1; 0], H1 the canonical c x c block,
    through a unimodular witness; a rank-deficient one has no form."""
    rng = random.Random(5)
    for fld in (F2, F3):
        for n, c in ((2, 1), (3, 1), (3, 2)):
            for _ in range(20):
                m = PolyMatrix(
                    [[Poly(fld, [rng.randrange(fld.q) for _ in range(2)]) for _ in range(c)]
                     for _ in range(n)]
                )
                try:
                    form = hnf(m)
                except SingularMatrix:
                    continue
                h = form.h
                assert form.u @ m == h and form.unit == det_constant(form.u)
                assert all(e.is_zero() for row in h.entries[c:] for e in row)
                top = PolyMatrix(h.entries[:c])
                assert is_canonical_hnf(top)
                assert form.det_degree == det(top).degree
    with pytest.raises(SingularMatrix):
        hnf(PolyMatrix([[p2(0, 1), p2(1)], [p2(0, 1), p2(1)], [p2(), p2()]]))


def test_det_degree_equals_hnf_diagonal_sum():
    random.seed(11)
    mats = [m for m in all_matrices_f2(2, 2) if not det(m).is_zero()]
    for m in random.sample(mats, 60):
        form = hnf(m)
        assert det(m).degree == form.det_degree
        assert form.det_degree == sum(
            form.h.entries[i][i].degree for i in range(2)
        )


def test_det_three_by_three():
    x = Poly.x(F3)
    one = Poly.one(F3)
    zero = Poly.zero(F3)
    m = PolyMatrix([[x, one, zero], [zero, x, one], [one, zero, x]])
    # det = x^3 + 1 over F_3 (the +1 from the even permutation (0 1 2))
    assert det(m) == Poly(F3, (1, 0, 0, 1))


def test_same_orbit():
    a = PolyMatrix([[p2(1), p2(0, 1)], [p2(), p2(1, 1, 1)]])
    u = PolyMatrix([[p2(1), p2(0, 1)], [p2(), p2(1)]])
    assert same_orbit(a, u @ a)
    b = PolyMatrix([[p2(1), p2()], [p2(), p2(1, 1, 1)]])
    assert not same_orbit(a, b)
    with pytest.raises(ShapeMismatch):
        same_orbit(a, PolyMatrix([[p2(1)]]))


def test_satisfies_R():
    m = PolyMatrix([[p2(1), p2(0, 1)], [p2(), p2(1, 1, 1)]])
    assert satisfies_R(m, 2)
    assert not satisfies_R(m, 1)
    assert satisfies_R(PolyMatrix.identity(F2, 3), 0)


def test_column_gcd_is_orbit_invariant():
    random.seed(3)
    mats = [m for m in all_matrices_f2(2, 1) if not det(m).is_zero()]
    units = [m for m in mats if det(m).is_constant()]
    for m in random.sample(mats, 30):
        g0, g1 = column_gcd(m, 0), column_gcd(m, 1)
        u = random.choice(units)
        assert column_gcd(u @ m, 0) == g0
        assert column_gcd(u @ m, 1) == g1


def test_column_gcd_equals_first_hnf_pivot():
    # for the first column the gcd of entries equals the (0,0) canonical pivot
    random.seed(5)
    mats = [m for m in all_matrices_f2(2, 2) if not det(m).is_zero()]
    for m in random.sample(mats, 30):
        assert column_gcd(m, 0) == hnf(m).h.entries[0][0]


def test_column_gcd_zero_column():
    z = Poly.zero(F2)
    m = PolyMatrix([[z, p2(1)], [z, p2(0, 1)]])
    with pytest.raises(ZeroColumn):
        column_gcd(m, 0)


def test_matmul_shapes_and_identity():
    m = PolyMatrix([[p2(1, 1), p2(1)], [p2(1), p2(0, 1)]])
    assert PolyMatrix.identity(F2, 2) @ m == m
    with pytest.raises(ShapeMismatch):
        m @ PolyMatrix([[p2(1)]])


def test_json_round_trip():
    m = PolyMatrix([[p2(1, 1), p2(1)], [p2(1), p2(0, 1)]])
    assert PolyMatrix.from_json(m.to_json()) == m


def test_hnf_over_f3_monic_diagonal():
    x = Poly.x(F3)
    two = Poly.const(F3, 2)
    m = PolyMatrix([[x.scale(2), two], [two, x]])
    h = hnf(m).h
    assert is_canonical_hnf(h)
    for i in range(2):
        assert h.entries[i][i].lc == 1


def random_matrix(fld, n, deg, rng):
    return PolyMatrix(
        [[Poly(fld, [rng.randrange(fld.q) for _ in range(deg + 1)]) for _ in range(n)]
         for _ in range(n)]
    )


def test_det_past_cofactor_range_matches_cofactor_reference():
    """Beyond n = 5, det comes from the hnf diagonal and its tracked unit."""
    rng = random.Random(6)
    for q in (3, 4):
        fld = field_of_order(q)
        for n in (6, 6, 6, 7, 7, 7):
            m = random_matrix(fld, n, 1, rng)
            assert det(m) == _det_cofactor([list(r) for r in m.entries], fld)
        rows = [list(r) for r in random_matrix(fld, 6, 1, rng).entries]
        rows[5] = rows[0]
        assert det(PolyMatrix(rows)).is_zero()


def test_det_makes_no_cofactor_expansion_past_n5(monkeypatch):
    sizes = []
    real = polymat._det_cofactor

    def spy(entries, field):
        sizes.append(len(entries))
        return real(entries, field)

    monkeypatch.setattr(polymat, "_det_cofactor", spy)
    det(random_matrix(F3, 8, 1, random.Random(8)))
    assert max(sizes, default=0) <= 5


def test_hnf_unit_is_det_of_witness():
    rng = random.Random(11)
    for q in (2, 3, 4):
        fld = field_of_order(q)
        for n in (1, 2, 3, 4):
            for _ in range(6):
                m = random_matrix(fld, n, 2, rng)
                if det(m).is_zero():
                    continue
                form = hnf(m)
                assert form.unit == det_constant(form.u)
