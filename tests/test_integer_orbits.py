import math

import pytest

from orbitcount.errors import (
    BudgetExceeded,
    InvalidParams,
    MissingZetaValue,
    NonPositiveDeterminant,
    SingularMatrix,
    UnsupportedDimension,
)
from orbitcount.integer_orbits import (
    count_det_norm,
    det_int,
    drs_constant,
    enumerate_det_norm,
    frobenius_sq,
    hnf_classes_for_det,
    hnf_int,
    orbit_ratio_experiment,
    snf_int,
)


def test_det_int():
    assert det_int(((2, 3), (0, 2))) == 4
    assert det_int(((1, 2, 3), (4, 5, 6), (7, 8, 10))) == -3
    assert det_int(((5,),)) == 5


def test_hnf_int_examples():
    assert hnf_int(((2, 3), (0, 2))) == ((2, 1), (0, 2))
    assert hnf_int(((0, -4), (1, 0))) == ((1, 0), (0, 4))
    assert hnf_int(((2, 0), (0, 2))) == ((2, 0), (0, 2))
    assert hnf_int(((-1, 0), (0, -4))) == ((1, 0), (0, 4))


def test_hnf_int_requires_positive_det():
    with pytest.raises(NonPositiveDeterminant):
        hnf_int(((1, 0), (0, -1)))
    with pytest.raises(NonPositiveDeterminant):
        hnf_int(((1, 2), (2, 4)))


def test_hnf_int_is_canonical_under_sl_action():
    # S and T generate the determinant-one group; the form must be invariant
    S = ((0, -1), (1, 0))
    T = ((1, 1), (0, 1))

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][l] * b[l][j] for l in range(2)) for j in range(2))
            for i in range(2)
        )

    for m in [((2, 3), (0, 2)), ((1, 0), (0, 4)), ((3, 1), (1, 2))]:
        h = hnf_int(m)
        for g in (S, T, mul(S, T), mul(T, S), mul(T, T)):
            assert hnf_int(mul(g, m)) == h


def test_hnf_int_structure():
    for m in [((2, 3), (0, 2)), ((7, 5), (3, 4)), ((4, 1), (2, 3))]:
        h = hnf_int(m)
        assert h[1][0] == 0
        assert h[0][0] > 0 and h[1][1] > 0
        assert 0 <= h[0][1] < h[1][1]
        assert det_int(h) == det_int(m)


def test_snf_int_examples():
    assert snf_int(((2, 0), (0, 2))) == ((2, 0), (0, 2))
    assert snf_int(((1, 0), (0, 4))) == ((1, 0), (0, 4))
    assert snf_int(((2, 1), (0, 2))) == ((1, 0), (0, 4))
    assert snf_int(((4, 0), (0, 1))) == ((1, 0), (0, 4))


def test_snf_divisibility_chain_3x3():
    s = snf_int(((2, 0, 0), (0, 6, 0), (0, 0, 10)))
    d = [s[i][i] for i in range(3)]
    assert d[0] > 0 and d[1] % d[0] == 0 and d[2] % d[1] == 0
    assert d[0] * d[1] * d[2] == 120


def test_snf_rejects_singular():
    with pytest.raises(SingularMatrix):
        snf_int(((1, 2), (2, 4)))


def test_seven_left_classes_for_det_4():
    reps = hnf_classes_for_det(4)
    assert len(reps) == 7  # sigma(4) = 1 + 2 + 4
    assert len({hnf_int(r) for r in reps}) == 7
    assert {det_int(r) for r in reps} == {4}


def test_two_smith_classes_for_det_4():
    reps = hnf_classes_for_det(4)
    smith = {snf_int(r) for r in reps}
    assert smith == {((1, 0), (0, 4)), ((2, 0), (0, 2))}


def test_class_counts_are_divisor_sums():
    for d, expect in [(1, 1), (2, 3), (3, 4), (4, 7), (6, 12), (12, 28)]:
        assert len(hnf_classes_for_det(d)) == expect


def test_enumerate_det_norm_matches_grid_scan():
    """The solver-based enumeration against a plain 4-fold loop."""
    for det_value, T in [(1, 3), (4, 4), (2, 3)]:
        got = sorted(enumerate_det_norm(2, det_value, T))
        want = sorted(
            ((a, b), (c, d))
            for a in range(-T, T + 1)
            for b in range(-T, T + 1)
            for c in range(-T, T + 1)
            for d in range(-T, T + 1)
            if a * d - b * c == det_value
            and a * a + b * b + c * c + d * d <= T * T
        )
        assert got == want


def test_enumerate_det_norm_frozen_counts():
    # values pinned from the exhaustive grid scan above
    assert count_det_norm(1, 2) == 20
    assert count_det_norm(4, 4) == 68
    assert count_det_norm(4, 30) == 9372


def test_enumerate_validation():
    with pytest.raises(UnsupportedDimension):
        list(enumerate_det_norm(3, 1, 2))
    with pytest.raises(InvalidParams):
        list(enumerate_det_norm(2, 1, 0))
    with pytest.raises(BudgetExceeded):
        list(enumerate_det_norm(2, 1, 10**4, budget_items=100))


def test_all_seven_classes_appear_by_T30():
    report = orbit_ratio_experiment(4, 30, ladder=(30,))
    assert len(report.hnf_counts[30]) == 7
    assert len(report.class_counts[30]) == 2


def test_ratio_report_shape():
    report = orbit_ratio_experiment(4, 10, ladder=(5, 10))
    assert set(report.class_counts) == {5, 10}
    js = report.to_json()
    assert js["det"] == 4
    for T in (5, 10):
        total = sum(int(v) for v in js["two_sided_classes"][str(T)].values())
        assert total == count_det_norm(4, T)


def test_ratio_ladder_rejects_rungs_below_1():
    for ladder in ([0, -2], [0], [-1, 5]):
        with pytest.raises(InvalidParams):
            orbit_ratio_experiment(4, 5, ladder)


def test_norm_threshold_is_exact():
    for m in enumerate_det_norm(2, 4, 6):
        assert frobenius_sq(m) <= 36
        assert det_int(m) == 4


def test_drs_constant_values():
    assert drs_constant(2, 1) == pytest.approx(6.0)
    assert drs_constant(2, 2) == pytest.approx(9.0)
    assert drs_constant(2, 4) == pytest.approx(10.5)


def test_drs_constant_n2_closed_form():
    # for n = 2 the constant is 6 * sigma(k) / k
    for k in (1, 2, 3, 4, 6, 12):
        sigma = sum(d for d in range(1, k + 1) if k % d == 0)
        assert drs_constant(2, k) == pytest.approx(6.0 * sigma / k)


def test_drs_constant_needs_zeta_beyond_2():
    with pytest.raises(MissingZetaValue):
        drs_constant(3, 1)
    v = drs_constant(3, 1, zeta_values={3: 1.2020569031595943})
    assert v > 0
    assert math.isfinite(v)


def test_drs_constant_validation():
    with pytest.raises(InvalidParams):
        drs_constant(1, 1)
    with pytest.raises(InvalidParams):
        drs_constant(2, 0)
