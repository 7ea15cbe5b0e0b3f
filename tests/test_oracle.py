"""Ground-truth enumeration checks: the oracles against hand values, the
formulas, and each other."""

from itertools import product

import numpy as np
import pytest

from orbitcount import oracle
from orbitcount.counting import (
    _compositions,
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
from orbitcount.linalg import iter_affine_space, rank, solve_affine
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
from orbitcount.polymat import PolyMatrix, _det_cofactor, det, hnf, is_canonical_hnf

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


def test_members_counter_refuses_a_huge_outer_space_at_once():
    # 9^18000 outer choices: refused from the exponent, never built or printed
    with pytest.raises(BudgetExceeded, match=r"9\^18000 items"):
        count_orbit_members(PolyMatrix.identity(field_of_order(9), 3), 3000)


# -- the batched member counter against the per-choice reference ------------


def reference_orbit_members(rep, k):
    """The per-outer-choice counter: solve each row's affine space, walk every
    choice of the first n-1 rows, expand the cofactors of the last row as
    polynomials and solve the last-row system for each choice."""
    H = hnf(rep).h
    fld = rep.field
    n, q = rep.rows, fld.q
    nunk = n * k

    def unk(j, d):
        return j * k + (d - 1)

    spaces = []
    for i in range(n):
        rows_a, rhs = [], []
        for c in range(n):
            maxdeg = k + max(
                (int(H.entries[j][c].degree) for j in range(n) if H.entries[j][c]),
                default=0,
            )
            for dp in range(k + 1, maxdeg + 1):
                row = [0] * nunk
                for j in range(n):
                    hj = H.entries[j][c]
                    if hj.is_zero():
                        continue
                    for d in range(1, k + 1):
                        coef = hj[dp - d]
                        if coef:
                            row[unk(j, d)] = coef
                rows_a.append(row)
                rhs.append(fld.neg(H.entries[i][c][dp]))
        sol = solve_affine(rows_a, rhs, fld, ncols=nunk)
        if sol is None:
            return 0
        spaces.append(sol)

    def to_polys(vec, i):
        return [
            Poly(fld, [1 if j == i else 0] + [vec[unk(j, d)] for d in range(1, k + 1)])
            for j in range(n)
        ]

    outer_rows = [
        [to_polys(v, i) for v in iter_affine_space(spaces[i][0], spaces[i][1], fld)]
        for i in range(n - 1)
    ]
    last_part_polys = to_polys(spaces[n - 1][0], n - 1)
    last_basis_polys = [
        [Poly(fld, [0] + [bv[unk(j, d)] for d in range(1, k + 1)]) for j in range(n)]
        for bv in spaces[n - 1][1]
    ]

    def cofactors(rows):
        if n == 1:
            return [Poly.one(fld)]
        out = []
        for j in range(n):
            d = _det_cofactor([[r[c] for c in range(n) if c != j] for r in rows], fld)
            out.append(-d if (n - 1 + j) % 2 else d)
        return out

    total = 0
    nb = len(last_basis_polys)
    for combo in product(*outer_rows) if n > 1 else [()]:
        cofs = cofactors(list(combo))
        base = Poly.zero(fld)
        for j in range(n):
            base = base + last_part_polys[j] * cofs[j]
        gs = []
        for bp in last_basis_polys:
            g = Poly.zero(fld)
            for j in range(n):
                g = g + bp[j] * cofs[j]
            gs.append(g)
        maxd = max([int(base.degree) if base else 0] + [int(g.degree) if g else 0 for g in gs])
        rows_a = [[g[d] for g in gs] for d in range(1, maxd + 1)]
        rhs = [fld.neg(base[d]) for d in range(1, maxd + 1)]
        sol = solve_affine(rows_a, rhs, fld, ncols=nb)
        if sol is not None:
            total += q ** len(sol[1])
    return gl_count(n, q) * total


# the reference walks q^((n-1)(nk - t)) outer choices; keep it to a few hundred
REFERENCE_OUTER_CAP = 2**9


def member_cases(q):
    """(rep, k) pairs over F_q: a triangular rep for every diagonal degree
    profile with t = 0..2, and a non-canonical multiple of it, n = 1, 2, 3,
    k = 0..t+2 (so t > k included), every point whose outer space stays
    under the cap."""
    fld = field_of_order(q)
    cases = []
    for n in (1, 2, 3):
        shear = PolyMatrix.identity(fld, n)
        if n > 1:
            rows = [list(r) for r in shear.entries]
            rows[n - 1][0] = Poly(fld, (1, 1))
            shear = PolyMatrix(rows)
        for t in range(3):
            for degrees in _compositions(t, n):
                rows = [[Poly.zero(fld)] * n for _ in range(n)]
                for j, d in enumerate(degrees):
                    rows[j][j] = Poly(fld, (q - 1,) * d + (1,))
                    for i in range(j):
                        rows[i][j] = Poly(fld, (1,) * d)
                rep = PolyMatrix(rows)
                for k in range(t + 3):
                    if q ** ((n - 1) * max(n * k - t, 0)) <= REFERENCE_OUTER_CAP:
                        cases += [(rep, k), (shear @ rep, k)]
    return cases


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_members_counter_matches_per_choice_reference(monkeypatch, q):
    cases = member_cases(q)
    want = [reference_orbit_members(rep, k) for rep, k in cases]
    assert [count_orbit_members(rep, k) for rep, k in cases] == want
    # outer choices split over many small batches count the same
    monkeypatch.setattr(oracle, "_LEAF_CHUNK", 7)
    assert [count_orbit_members(rep, k) for rep, k in cases] == want
    assert any(want) and not all(want)


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


def reference_leading_layers(m, bounds):
    return [m.coeff_layer(j, kj) for j, kj in enumerate(bounds)]


def reference_qr(kind, i, bounds, members, fld):
    """Q_i/R_i by a rank per decoded member, the loop the batched counts
    replace."""
    count = 0
    for m in members:
        layers = reference_leading_layers(m, bounds)
        tail = layers[i - 1 :]
        if rank(tail, fld) == len(tail):
            continue
        if kind == "Q" and rank(layers[i:], fld) < len(layers[i:]):
            continue
        count += 1
    return count


@pytest.mark.parametrize("q", sorted(P_DIFFERENTIAL_BOUNDS))
def test_P_QR_counts_match_per_member_rank(q):
    fld = field_of_order(q)
    for bounds in P_DIFFERENTIAL_BOUNDS[q]:
        oracle._p_members_cached.cache_clear()
        members = reference_p_members(bounds, q)
        n = len(bounds)
        assert all(rank(reference_leading_layers(m, bounds), fld) < n for m in members)
        assert count_P_bruteforce(bounds, q) == len(members)
        for kind in ("Q", "R"):
            for i in range(1, n + 1):
                want = reference_qr(kind, i, bounds, members, fld)
                assert count_QR_bruteforce(kind, i, bounds, q) == want


def test_count_P_asserts_dependent_leading_layers(monkeypatch):
    # independent leading layers would contradict a constant determinant
    def identity_layers(fld, bounds, idx):
        return np.tile(np.eye(len(bounds), dtype=np.intp), (len(idx), 1, 1))

    monkeypatch.setattr(oracle, "_leading_layers", identity_layers)
    with pytest.raises(AssertionError, match="independent leading layers"):
        count_P_bruteforce((1, 1), 2)


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
