"""Ground-truth enumeration checks: the oracles against hand values, the
formulas, and each other."""

import pytest

from orbitcount import oracle
from orbitcount.counting import (
    c_nt,
    gl_count,
    orbit_count_formula,
    p_count_formula,
    q_count_recursive,
    r_count_recursive,
)
from orbitcount.errors import (
    BudgetExceeded,
    InvalidParams,
    NotSquare,
    PreconditionViolation,
)
from orbitcount.fields import field_of_order
from orbitcount.oracle import (
    EnumerationBudget,
    _decode_p_member,
    _free_positions,
    census_by_det_degree,
    count_orbit_bruteforce,
    count_orbit_members,
    count_P_bruteforce,
    count_QR_bruteforce,
    enumerate_hnf_reps,
    iter_matrices,
    iter_polys,
    orbit_census,
    p_members,
)
from orbitcount.poly import NEG_INF, Poly
from orbitcount.polymat import PolyMatrix, det, hnf, is_canonical_hnf

F2 = field_of_order(2)


def p2(*c):
    return Poly(F2, c)


def diag2(a, b):
    return PolyMatrix.diagonal([a, b])


# -- enumeration plumbing ----------------------------------------------------


def test_iter_polys_counts_and_uniqueness():
    for q in (2, 3):
        for d in (0, 1, 2):
            polys = list(iter_polys(q, d))
            assert len(polys) == q ** (d + 1)
            assert len({p.coeffs for p in polys}) == len(polys)
    assert [p.is_zero() for p in iter_polys(2, NEG_INF)] == [True]


def test_iter_polys_bad_degree():
    with pytest.raises(InvalidParams):
        list(iter_polys(2, -2))


def test_iter_matrices_count():
    mats = list(iter_matrices(2, 2, 0))
    assert len(mats) == 2**4
    assert len({m.key() for m in mats}) == 16


def test_budget_refusal():
    with pytest.raises(BudgetExceeded):
        count_orbit_bruteforce(diag2(p2(1), p2(0, 1)), 1, EnumerationBudget(max_items=10))
    with pytest.raises(BudgetExceeded):
        census_by_det_degree(2, 2, 3, EnumerationBudget(max_items=100))


def test_scans_reject_bad_n_and_k():
    for n, k in ((0, 1), (-1, 1), (2, -1), (2, -3)):
        with pytest.raises(InvalidParams):
            orbit_census(2, n, k)
        with pytest.raises(InvalidParams):
            census_by_det_degree(n, 2, k)
    for k in (-1, -3):
        with pytest.raises(InvalidParams):
            count_orbit_bruteforce(diag2(p2(1), p2(0, 1)), k)


# -- the prefix-shared scans against the per-matrix reference ---------------


def reference_census(q, n, k):
    """The per-matrix scan: decode every matrix, take its determinant and its
    canonical form.  Returns (orbit buckets, det-degree buckets, singular)."""
    orbits, degrees, singular = {}, {}, 0
    for m in iter_matrices(q, n, k):
        d = det(m)
        if d.is_zero():
            singular += 1
            continue
        key = hnf(m).h.key()
        orbits[key] = orbits.get(key, 0) + 1
        degrees[d.degree] = degrees.get(d.degree, 0) + 1
    return orbits, degrees, singular


def matrix_of_key(fld, key):
    return PolyMatrix([[Poly(fld, c) for c in row] for row in key])


DIFFERENTIAL_POINTS = [
    (1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 3, 1), (3, 2, 0), (2, 4, 0), (2, 8, 0), (2, 9, 0),
]


@pytest.mark.parametrize("n,q,k", DIFFERENTIAL_POINTS)
def test_scans_match_per_matrix_reference(n, q, k):
    fld = field_of_order(q)
    orbits, degrees, singular = reference_census(fld, n, k)
    assert orbit_census(fld, n, k) == (orbits, singular)
    census = census_by_det_degree(n, fld, k)
    assert census.buckets == degrees and census.singular == singular
    keys = sorted(orbits)
    for key in keys[:: max(1, len(keys) // 12)]:
        assert count_orbit_bruteforce(matrix_of_key(fld, key), k) == orbits[key]


def test_orbit_count_of_a_non_canonical_rep_and_an_empty_orbit():
    orbits, _, _ = reference_census(F2, 2, 1)
    x, one = p2(0, 1), p2(1)
    shear = PolyMatrix([[one, x], [p2(), one]])
    rep = diag2(one, x)
    assert count_orbit_bruteforce(shear @ rep, 1) == orbits[rep.key()] == 12
    # t = 4 > 2k: no degree-<=1 matrix lies in the orbit of diag(x^2, x^2)
    assert count_orbit_bruteforce(diag2(p2(0, 0, 1), p2(0, 0, 1)), 1) == 0
    with pytest.raises(NotSquare):
        count_orbit_bruteforce(PolyMatrix([[one], [x]]), 1)


@pytest.mark.parametrize("n,q,k", [(2, 2, 3), (2, 4, 1)])
def test_det_census_matches_per_matrix_reference(n, q, k):
    # det alone: an hnf per matrix would add about 8 s per point at 4^8 matrices
    fld = field_of_order(q)
    degrees, singular = {}, 0
    for m in iter_matrices(fld, n, k):
        d = det(m)
        if d.is_zero():
            singular += 1
        else:
            degrees[d.degree] = degrees.get(d.degree, 0) + 1
    census = census_by_det_degree(n, fld, k)
    assert census.buckets == degrees and census.singular == singular


@pytest.mark.parametrize("n,q,k", [(1, 2, 5), (1, 3, 3), (2, 2, 1), (2, 3, 1)])
def test_scans_match_reference_across_leaf_batches(monkeypatch, n, q, k):
    """Last columns split over many batches give the same buckets."""
    monkeypatch.setattr(oracle, "_LEAF_CHUNK", 7)
    fld = field_of_order(q)
    orbits, degrees, singular = reference_census(fld, n, k)
    assert orbit_census(fld, n, k) == (orbits, singular)
    census = census_by_det_degree(n, fld, k)
    assert census.buckets == degrees and census.singular == singular
    for key in sorted(orbits)[:5]:
        assert count_orbit_bruteforce(matrix_of_key(fld, key), k) == orbits[key]


def test_n1_scan_over_many_leaf_batches():
    """2^20 polynomials in 16 batches: (q - 1) q^t of them have degree t."""
    k = 19
    census = census_by_det_degree(1, 2, k)
    assert census.buckets == {t: 2**t for t in range(k + 1)} and census.singular == 1


# -- orbit counting ----------------------------------------------------------


def test_orbit_count_anchor_diag_1_x():
    assert count_orbit_bruteforce(diag2(p2(1), p2(0, 1)), 1) == 12


def test_orbit_count_anchor_identity():
    assert count_orbit_bruteforce(PolyMatrix.identity(F2, 2), 1) == 24


def test_orbit_count_anchor_diag_x_x():
    # t = 2 > k = 1: the formula refuses but the scan still counts (six
    # matrices: the unimodular multiples of diag(x, x) of degree <= 1)
    assert count_orbit_bruteforce(diag2(p2(0, 1), p2(0, 1)), 1) == 6


def test_members_counter_matches_ambient_scan_n2():
    for t in (0, 1):
        for rep in enumerate_hnf_reps(2, 2, t):
            for k in (t, t + 1):
                assert count_orbit_members(rep, k) == count_orbit_bruteforce(rep, k)
    # t = 2 spot checks (the full set of reps is covered by the census tests)
    for rep in enumerate_hnf_reps(2, 2, 2)[::5]:
        assert count_orbit_members(rep, 2) == count_orbit_bruteforce(rep, 2)


def test_members_counter_matches_ambient_scan_n3():
    rep = PolyMatrix.diagonal([p2(1), p2(1), p2(0, 1)])
    assert count_orbit_members(rep, 1) == count_orbit_bruteforce(rep, 1) == 2688


def test_members_counter_matches_formula_at_q3():
    F3 = field_of_order(3)
    x = Poly.x(F3)
    one = Poly.one(F3)
    rep = PolyMatrix.diagonal([one, x])
    for k in (1, 2):
        assert count_orbit_members(rep, k) == orbit_count_formula(2, 3, 1, k)


def test_members_counter_below_t_gives_zero():
    assert count_orbit_members(diag2(p2(0, 1), p2(0, 1)), 0) == 0


def test_members_counter_rejects_a_non_square_rep():
    one, x = p2(1), p2(0, 1)
    with pytest.raises(NotSquare):
        count_orbit_members(PolyMatrix([[one, x], [x, one], [one, one]]), 1)


def test_members_counter_rejects_negative_k():
    for k in (-1, -3):
        with pytest.raises(InvalidParams):
            count_orbit_members(diag2(p2(1), p2(0, 1)), k)


# -- canonical form enumeration ----------------------------------------------


def test_enumerate_hnf_reps_counts():
    for n, q, t in [(2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]:
        reps = enumerate_hnf_reps(n, q, t)
        assert len(reps) == c_nt(n, q, t)
        keys = set()
        for r in reps:
            assert is_canonical_hnf(r)
            assert det(r).degree == t
            assert hnf(r).h == r  # already canonical, so a fixed point
            keys.add(r.key())
        assert len(keys) == len(reps)


def test_census_matches_rep_enumeration():
    buckets, singular = orbit_census(2, 2, 1)
    observed = {k for k in buckets}
    for t in (0, 1, 2):
        expect = {m.key() for m in enumerate_hnf_reps(2, 2, t)}
        got = {
            k for k in observed if sum(len(k[i][i]) - 1 for i in range(2)) == t
        }
        if t <= 1:
            # every canonical form with t <= k appears (the rep itself is R(k))
            assert got == expect
        else:
            # above the bound only some orbits reach down into R(k)
            assert got <= expect
    assert singular == 64
    assert sum(buckets.values()) + singular == 2**8


# -- determinant census ------------------------------------------------------


def test_census_by_det_degree_anchors():
    census = census_by_det_degree(2, 2, 1)
    assert census.buckets[0] == 24
    assert census.buckets[1] == 72
    assert census.singular == 64
    assert census.total() == 256
    js = census.to_json()
    assert js["buckets"]["1"] == "72"
    assert js["buckets"]["singular"] == "64"


def test_census_total_is_whole_space():
    census = census_by_det_degree(2, 3, 1)
    assert census.total() == 3**8


# -- the unipotent-at-zero family --------------------------------------------


def test_count_P_anchor_trace_det_zero():
    # the hand count: I + xA unimodular over F_2 iff tr A = 0 and det A = 0
    assert count_P_bruteforce((1, 1), 2) == 4


def test_count_P_values():
    assert count_P_bruteforce((1, 0), 3) == 3
    assert count_P_bruteforce((1, 1, 1), 2) == 64
    assert count_P_bruteforce((0, 0), 5) == 1
    assert count_P_bruteforce((2, 1), 2) == 8


def test_count_P_matches_formula_on_grid():
    from itertools import product as iproduct

    for q, max_sum in ((2, 4), (3, 4), (4, 3)):
        for n in (1, 2, 3):
            for bounds in iproduct(range(3), repeat=n):
                if sum(bounds) <= max_sum:
                    assert count_P_bruteforce(bounds, q) == p_count_formula(bounds, q)


def reference_p_members(bounds, q):
    """The per-member walk: decode every candidate with constant term I in
    index order and keep those whose determinant is a nonzero constant."""
    fld = field_of_order(q)
    members = []
    for idx in range(q ** (len(bounds) * sum(bounds))):
        m = _decode_p_member(fld, bounds, idx)
        d = det(m)
        if d.is_constant() and not d.is_zero():
            members.append(m)
    return members


# a few thousand candidates or fewer per point, so the reference stays quick
P_DIFFERENTIAL_BOUNDS = {
    2: [(4,), (2, 1), (1, 1, 1), (1, 1, 0, 1)],
    3: [(3,), (1, 1), (1, 0, 1), (0, 1, 0, 1)],
    4: [(2,), (1, 1), (1, 1, 0), (0, 0, 1, 0)],
    8: [(2,), (1, 1), (0, 1, 0), (1, 0, 0, 0)],
    9: [(2,), (1, 1), (0, 0, 1), (0, 1, 0, 0)],
}


@pytest.mark.parametrize("chunk", [oracle._LEAF_CHUNK, 7])
@pytest.mark.parametrize("q", sorted(P_DIFFERENTIAL_BOUNDS))
def test_p_members_match_per_member_reference(monkeypatch, q, chunk):
    monkeypatch.setattr(oracle, "_LEAF_CHUNK", chunk)
    oracle._p_members_cached.cache_clear()
    for bounds in P_DIFFERENTIAL_BOUNDS[q]:
        members = p_members(bounds, q)
        assert list(members) == reference_p_members(bounds, q)
        assert len(members) == p_count_formula(bounds, q)


def test_p_members_structure():
    for m in p_members((1, 1), 2):
        assert m.constant_layer() == [[1, 0], [0, 1]]
        d = det(m)
        assert d.is_constant() and not d.is_zero()


def test_p_members_generic_path_extension_field():
    assert count_P_bruteforce((1, 0), 4) == 4
    assert count_P_bruteforce((1, 1), 4) == p_count_formula((1, 1), 4)


def test_p_members_come_out_in_index_order():
    bounds = (1, 1)
    positions = _free_positions(2, bounds)
    for q in (3, 4):
        members = p_members(bounds, q)
        idx = [
            sum(m.entries[i][j][d] * q**pos for pos, (i, j, d) in enumerate(positions))
            for m in members
        ]
        assert idx == sorted(set(idx)) and len(idx) == p_count_formula(bounds, q)


def test_QR_brute_matches_recursions():
    cases = [(1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1)]
    for q in (2, 3):
        for bounds in cases:
            n = len(bounds)
            for i in range(1, n + 1):
                try:
                    expected = q_count_recursive(i, bounds, q)
                except PreconditionViolation:
                    continue
                assert count_QR_bruteforce("Q", i, bounds, q) == expected
            for i in range(2, n + 1):
                try:
                    expected = r_count_recursive(i, bounds, q)
                except PreconditionViolation:
                    continue
                assert count_QR_bruteforce("R", i, bounds, q) == expected


def test_QR_kind_validation():
    with pytest.raises(InvalidParams):
        count_QR_bruteforce("S", 1, (1, 1), 2)
    with pytest.raises(PreconditionViolation):
        count_QR_bruteforce("Q", 5, (1, 1), 2)


def test_R_n_counts_whole_dependence_at_last_column():
    # at i = n the set is all of P with the last leading layer zero,
    # i.e. P with the last bound lowered by one
    assert count_QR_bruteforce("R", 2, (1, 1), 2) == p_count_formula((1, 0), 2)
