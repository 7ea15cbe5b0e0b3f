import pytest

from orbitcount import oracle
from orbitcount.errors import (
    BadIndex,
    DegreeTooSmall,
    NotConstant,
    NotTriangular,
    SingularConjugator,
)
from orbitcount.fields import field_of_order
from orbitcount.moves import (
    check_S_conditions,
    conjugate_const,
    diag_truncate_move,
    reduce_above,
    run_move_battery,
    standard_move_fixtures,
    triangularize,
    truncation_move,
    two_cycle_matrix,
    verify_count_preservation,
)
from orbitcount.poly import Poly
from orbitcount.polymat import PolyMatrix, det, same_orbit

F2 = field_of_order(2)


def p2(*c):
    return Poly(F2, c)


def upper(a, b, d):
    return PolyMatrix([[a, b], [p2(), d]])


def test_truncation_move_example():
    # [[x, 1], [0, x]]: entry (1,2) loses its degree-<=1 part -> [[x, 0], [0, x]]
    m = upper(p2(0, 1), p2(1), p2(0, 1))
    out = truncation_move(m, 2)
    assert out == upper(p2(0, 1), p2(), p2(0, 1))


def test_truncation_move_keeps_high_part():
    # [[x, x^2+1], [0, x]] -> [[x, x^2], [0, x]]
    m = upper(p2(0, 1), p2(1, 0, 1), p2(0, 1))
    out = truncation_move(m, 2)
    assert out == upper(p2(0, 1), p2(0, 0, 1), p2(0, 1))


def test_truncation_move_requires_triangular():
    m = PolyMatrix([[p2(0, 1), p2(1)], [p2(1), p2(0, 1)]])
    with pytest.raises(NotTriangular):
        truncation_move(m, 2)


def test_truncation_move_index_validation():
    m = upper(p2(0, 1), p2(1), p2(0, 1))
    with pytest.raises(BadIndex):
        truncation_move(m, 1)
    with pytest.raises(BadIndex):
        truncation_move(m, 3)


def test_diag_truncate_example():
    # [[x, 0], [0, x^3+x]] with cut deg(d_1)+1 = 2 -> [[x, 0], [0, x^3]]
    m = upper(p2(0, 1), p2(), p2(0, 1, 0, 1))
    out = diag_truncate_move(m, 2)
    assert out == upper(p2(0, 1), p2(), p2(0, 0, 0, 1))


def test_diag_truncate_refuses_small_pivot():
    m = upper(p2(0, 1), p2(), p2(0, 0, 1))  # deg pivot = 2 = deg(d1)+1, not >
    with pytest.raises(DegreeTooSmall):
        diag_truncate_move(m, 2)


def test_reduce_above_stays_in_orbit():
    m = upper(p2(1), p2(1, 1, 1), p2(0, 0, 1))
    out = reduce_above(m, 2)
    assert out.entries[0][1].degree < out.entries[1][1].degree
    assert same_orbit(m, out)


def test_triangularize_stays_in_orbit():
    m = PolyMatrix([[p2(1, 1), p2(1)], [p2(1), p2(0, 1)]])
    tri = triangularize(m)
    assert tri.is_upper_triangular()
    assert same_orbit(m, tri)


def test_conjugation_preserves_det_and_R():
    m = upper(p2(0, 1), p2(1), p2(1, 1))
    h = two_cycle_matrix(F2, 2, 1, 2)
    out = conjugate_const(m, h)
    assert det(out) == det(m)
    assert out.max_entry_degree() == m.max_entry_degree()


def test_conjugation_validation():
    m = upper(p2(0, 1), p2(1), p2(1, 1))
    with pytest.raises(NotConstant):
        conjugate_const(m, PolyMatrix([[p2(0, 1), p2()], [p2(), p2(1)]]))
    with pytest.raises(SingularConjugator):
        conjugate_const(m, PolyMatrix.constant(F2, [[1, 1], [1, 1]]))


def test_check_S_conditions_reports():
    m = PolyMatrix(
        [
            [p2(0, 1), p2(), p2(0, 0, 1)],
            [p2(), p2(0, 1), p2(0, 0, 1)],
            [p2(), p2(), p2(0, 0, 0, 1)],
        ]
    )
    rep = check_S_conditions(m, 3)
    assert rep["diag_block"] is True
    assert rep["ascending"] is True
    assert rep["column_divisibility"] is True  # x^2 | x^2
    assert rep["reduced_above_pivot"] is True
    assert rep["whole_column_divisible"] is True
    m2 = PolyMatrix(
        [
            [p2(0, 1), p2(), p2(1)],
            [p2(), p2(0, 1), p2()],
            [p2(), p2(), p2(0, 0, 1)],
        ]
    )
    rep2 = check_S_conditions(m2, 3)
    assert rep2["column_divisibility"] is False


def test_verify_count_preservation_truncation():
    m = upper(p2(0, 1), p2(1), p2(0, 1))
    out = truncation_move(m, 2)
    rec = verify_count_preservation(m, out, range(2, 4), move={"move": "truncation"})
    assert rec.all_equal()
    assert [k for k, _, _ in rec.counts_checked] == [2, 3]


def test_verify_count_preservation_ambient_method_agrees():
    # the orbit-side counts of the record against the ambient scan
    m = upper(p2(0, 1), p2(1), p2(0, 1))
    out = truncation_move(m, 2)
    rec = verify_count_preservation(m, out, [2])
    ambient = (oracle.count_orbit_bruteforce(m, 2), oracle.count_orbit_bruteforce(out, 2))
    assert rec.counts_checked == ((2,) + ambient,)


def test_move_record_json():
    m = upper(p2(0, 1), p2(1), p2(0, 1))
    out = truncation_move(m, 2)
    rec = verify_count_preservation(m, out, [2], move={"move": "truncation"})
    js = rec.to_json()
    assert js["move"] == {"move": "truncation"}
    assert js["counts"][0]["match"] is True


def test_standard_fixture_battery_shape():
    two, three = standard_move_fixtures(F2)
    assert len(two) >= 20
    assert len(three) == 5
    for m, l0 in two:
        assert m.rows == 2 and m.is_upper_triangular()
        assert m.max_entry_degree() <= 2
        assert 2 <= l0 <= 2
    for m, l0 in three:
        assert m.rows == 3 and m.is_upper_triangular()
        assert m.max_entry_degree() <= 1
        assert 2 <= l0 <= 3


def test_run_move_battery_small_slice():
    two, _ = standard_move_fixtures(F2)
    records = run_move_battery(two[:4], k_extra=1)
    assert records
    for rec in records:
        assert rec.all_equal(), rec.to_json()
