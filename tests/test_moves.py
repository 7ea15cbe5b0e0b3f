import pytest

from orbitcount import moves, oracle
from orbitcount.errors import (
    BadIndex,
    DegreeTooSmall,
    InvalidParams,
    MixedFields,
    NotConstant,
    NotSquare,
    NotTriangular,
    ShapeMismatch,
    SingularConjugator,
    SingularMatrix,
)
from orbitcount.fields import field_of_order
from orbitcount.moves import (
    MoveRecord,
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


def test_two_cycle_matrix_swaps_two_rows():
    F3 = field_of_order(3)
    assert two_cycle_matrix(F3, 3, 1, 3) == PolyMatrix.constant(
        F3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    )
    assert two_cycle_matrix(F3, 3, 2, 2) == PolyMatrix.identity(F3, 3)


@pytest.mark.parametrize("a, b", [(0, 2), (2, 0), (1, 4), (4, 1), (-1, 2)])
def test_two_cycle_matrix_refuses_an_index_outside_1_to_n(a, b):
    # index 0 would wrap to row n, and n + 1 would end in an IndexError
    with pytest.raises(BadIndex):
        two_cycle_matrix(field_of_order(3), 3, a, b)


def test_conjugation_validation():
    m = upper(p2(0, 1), p2(1), p2(1, 1))
    with pytest.raises(NotConstant):
        conjugate_const(m, PolyMatrix([[p2(0, 1), p2()], [p2(), p2(1)]]))
    with pytest.raises(SingularConjugator):
        conjugate_const(m, PolyMatrix.constant(F2, [[1, 1], [1, 1]]))


def test_conjugation_names_two_fields_and_a_non_square_matrix():
    m = upper(p2(0, 1), p2(1), p2(1, 1))
    with pytest.raises(MixedFields):
        conjugate_const(m, PolyMatrix.identity(field_of_order(3), 2))
    wide = PolyMatrix([[p2(1), p2(), p2()], [p2(), p2(1), p2()]])
    with pytest.raises(NotSquare):
        conjugate_const(wide, PolyMatrix.identity(F2, 2))


def test_conjugation_names_a_non_square_conjugator_and_one_of_another_size():
    m = upper(p2(0, 1), p2(1), p2(1, 1))
    with pytest.raises(NotSquare):
        conjugate_const(m, PolyMatrix.constant(F2, [[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ShapeMismatch):
        conjugate_const(m, PolyMatrix.identity(F2, 3))


def test_check_S_conditions_refuses_a_non_square_matrix():
    wide = PolyMatrix([[p2(1), p2(), p2()], [p2(), p2(1), p2()]])
    with pytest.raises(NotSquare):
        check_S_conditions(wide, 2)


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


@pytest.mark.parametrize("side", ["before", "after"])
def test_verify_count_preservation_refuses_a_singular_matrix(side):
    m = upper(p2(0, 1), p2(1), p2(0, 1))
    singular = upper(p2(0, 1), p2(1), p2())
    pair = (singular, m) if side == "before" else (m, singular)
    with pytest.raises(SingularMatrix):
        verify_count_preservation(*pair, [2])


def test_verify_count_preservation_refuses_two_fields():
    # identity over F_3 against F_2 at k = 1 would record 432 vs 24
    with pytest.raises(MixedFields):
        verify_count_preservation(
            PolyMatrix.identity(field_of_order(3), 2), PolyMatrix.identity(F2, 2), [1]
        )


@pytest.mark.parametrize("k_range, shown", [([0, -1], -1), ([-1], -1), ([-5], -5), ([1, -5, -1], -5)])
def test_verify_count_preservation_refuses_a_negative_k(monkeypatch, k_range, shown):
    """The box at k < 0 holds only the zero matrix, so no orbit has a member
    there: refused before any form is counted, with the message of
    count_orbit_members.  [0, -1] recorded 6 members at k = -1 over F_2."""

    def fail(*args):
        raise AssertionError("counted a form before refusing k < 0")

    monkeypatch.setattr(oracle, "rref", fail)
    I = PolyMatrix.identity(F2, 2)
    message = f"^orbit member count needs k >= 0, got k = {shown}$"
    with pytest.raises(InvalidParams, match=message):
        verify_count_preservation(I, I, k_range)
    with pytest.raises(InvalidParams, match=message):  # the 1x1 orbit is counted at once
        verify_count_preservation(PolyMatrix([[p2(0, 1)]]), PolyMatrix([[p2(0, 1)]]), k_range)


def test_verify_count_preservation_refuses_two_sizes_and_a_non_square_pair():
    with pytest.raises(ShapeMismatch):
        verify_count_preservation(PolyMatrix.identity(F2, 2), PolyMatrix.identity(F2, 3), [1])
    tall = PolyMatrix([[p2(1), p2()], [p2(), p2(1)], [p2(), p2()]])
    with pytest.raises(NotSquare):
        verify_count_preservation(tall, tall, [1])


def test_each_distinct_matrix_is_reduced_once(monkeypatch):
    """The truncation leaves this fixture as it is and the diagonal
    truncation applies: four record sides, two distinct matrices, one
    ``hnf`` each."""
    m = upper(p2(1), p2(0, 1), p2(1, 1, 1))
    calls = []
    reduce = moves.hnf
    monkeypatch.setattr(moves, "hnf", lambda a: calls.append(a) or reduce(a))
    records = run_move_battery([(m, 2)], k_extra=1)
    assert [rec.move["move"] for rec in records] == ["truncation", "diag_truncate"]
    assert records[0].after == m != records[1].after
    assert calls == [m, records[1].after]
    calls.clear()
    assert verify_count_preservation(m, m, [2, 3]).all_equal()
    assert calls == [m]


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


# -- the battery's count table against counting every pair directly ---------


def reference_battery(fixtures, k_extra):
    """run_move_battery with every (matrix, k) counted directly, per call."""
    records = []
    for m, l0 in fixtures:
        t = int(det(m).degree)
        ks = range(t, t + k_extra + 1)
        moved = [(truncation_move(m, l0), "truncation")]
        try:
            moved.append((diag_truncate_move(m, l0), "diag_truncate"))
        except DegreeTooSmall:
            pass
        for after, name in moved:
            counts = tuple(
                (k, oracle.count_orbit_members(m, k), oracle.count_orbit_members(after, k))
                for k in ks
            )
            records.append(MoveRecord(m, after, {"move": name, "l0": l0}, counts))
    return records


@pytest.mark.parametrize("q", [2, 3])
def test_run_move_battery_matches_direct_counts(q):
    two, three = standard_move_fixtures(field_of_order(q))
    assert run_move_battery(two + three, k_extra=1) == reference_battery(two + three, 1)


def test_run_move_battery_counts_each_orbit_once(monkeypatch):
    calls = []
    count = oracle._member_counts

    def counting(fld, n, forms, budget):
        calls.append((fld, n, [(fld, key, k) for key, k in forms]))
        return count(fld, n, forms, budget)

    monkeypatch.setattr(oracle, "_member_counts", counting)
    two, three = standard_move_fixtures(field_of_order(3))
    records = run_move_battery(two + three, k_extra=1)
    wanted = {
        (m.field, triangularize(m).key(), k)
        for rec in records
        for m in (rec.before, rec.after)
        for k, _, _ in rec.counts_checked
    }
    counted = [form for _, _, forms in calls for form in forms]
    assert len(counted) == len(set(counted)) == len(wanted)
    assert set(counted) == wanted
    # one call per (field, size): the 2 x 2 fixtures, then the 3 x 3 ones
    assert [(fld.q, n) for fld, n, _ in calls] == [(3, 2), (3, 3)]
    # the same battery twice counts everything again: no table outlives a call
    run_move_battery(two[:3], k_extra=0)
    assert len(calls) == 3
