"""Ground-truth enumeration checks: the oracles against hand values, the
formulas, and each other."""

import re
import time
from collections import Counter
from functools import lru_cache
from itertools import product, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from orbitcount.fields import digits, field_of_order, tables
from orbitcount.linalg import iter_affine_space, rank, rref, solve_affine
from orbitcount.oracle import (
    EnumerationBudget,
    _decode_p_member,
    _family_entries,
    _free_positions,
    census_by_det_degree,
    count_orbit_bruteforce,
    count_orbit_members,
    count_P_bruteforce,
    count_QR_bruteforce,
    enumerate_hnf_reps,
    iter_hnf_rep_keys,
    iter_matrices,
    iter_polys,
    orbit_census,
    p_members,
    verify_grid,
)
from orbitcount.poly import NEG_INF, Poly
from orbitcount.polymat import PolyMatrix, _minors, det, hnf, is_canonical_hnf
from test_acceptance import _bound_grid
from test_polymat import _det_cofactor  # the kernel-free determinant reference

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


def test_budget_below_1_is_invalid_input():
    for max_items in (0, -5):
        with pytest.raises(InvalidParams):
            EnumerationBudget(max_items)


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
        d = _det_cofactor(m.entries, m.field)
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
        d = _det_cofactor(m.entries, fld)
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


# -- the batched leaf finish against the per-prefix reference ---------------


def reference_leaf_keys(fld, prefix, batch):
    """The per-prefix finish that the batched one replaced: y = u @ c through
    the field tables for one prefix, then a Poly divmod for each entry of
    every nonsingular leaf.  Returns ``(key, count)`` pairs, key None for the
    singular ones."""
    h1, _, u = prefix
    tbl = tables(fld)
    _, mul, _, inv = tbl
    depth = batch.shape[1] - 1 + max(len(e.coeffs) for r in u for e in r)
    y = np.zeros((len(u), depth, batch.shape[2]), dtype=np.intp)
    for yr, r in zip(y, u):
        for e, c in zip(r, batch):
            oracle._mac(tbl, yr, e.coeffs, c)
    w = y[-1]
    lead = w[np.maximum(oracle._degrees(w), 0), np.arange(w.shape[1])]
    y[-1] = mul[inv[lead], w]  # monic; w = 0 stays 0
    zeros = ((),) * len(h1)
    counts = {}
    for ys in y.transpose(2, 0, 1).tolist():
        h = Poly(fld, ys[-1])
        key = None
        if h:
            above = tuple(row + ((Poly(fld, c) % h).coeffs,) for row, c in zip(h1, ys))
            key = above + (zeros + (h.coeffs,),)
        counts[key] = counts.get(key, 0) + 1
    return counts.items()


@lru_cache(maxsize=None)
def reference_prefix_census(q, n, k):
    """Every prefix finished by reference_leaf_keys, all last columns in one
    batch: (orbit buckets, singular count)."""
    fld = field_of_order(q)
    total = q ** (n * (k + 1))
    batch = np.array(digits(np.arange(total), q, n * (k + 1))).reshape(n, k + 1, total)
    buckets = {}
    for prefix in oracle._prefixes(fld, n, k + 1):
        pairs = [(None, total)] if prefix is None else reference_leaf_keys(fld, prefix, batch)
        for key, count in pairs:
            buckets[key] = buckets.get(key, 0) + count
    singular = buckets.pop(None, 0)
    return buckets, singular


GATE_POINTS = [(2, 2, 2), (2, 3, 1), (2, 4, 1), (3, 2, 1), (1, 3, 3)]


@pytest.mark.parametrize("batching", ["default", "7-leaf", "one-prefix"])
@pytest.mark.parametrize("n,q,k", GATE_POINTS)
def test_batched_finish_matches_reference_finish(monkeypatch, n, q, k, batching):
    """The three ambient scans against the per-prefix reference, with batches
    of many prefixes, of 7 leaves, and of one prefix each.

    The orbit scan completes only the prefixes with its rep's H1, so one
    scan per H1 checks every restriction the walk makes.  Batches of 7
    leaves cost about 0.3 ms each, so under them the orbit scan runs for the
    H1 with the fewest prefixes only, and at 3,2,1 (37,450 such batches per
    census) the censuses are left to the other two batchings.
    """
    if batching == "7-leaf":
        monkeypatch.setattr(oracle, "_LEAF_CHUNK", 7)
    elif batching == "one-prefix":
        monkeypatch.setattr(oracle, "_CENSUS_LEAVES", q ** (n * (k + 1)))
    fld = field_of_order(q)
    orbits, singular = reference_prefix_census(q, n, k)
    if batching != "7-leaf" or n < 3:
        assert orbit_census(fld, n, k) == (orbits, singular)
        degrees = {}
        for key, count in orbits.items():
            t = oracle._key_t(key)
            degrees[t] = degrees.get(t, 0) + count
        census = census_by_det_degree(n, fld, k)
        assert census.buckets == degrees and census.singular == singular
    # each orbit scan reduces every prefix again: reduce them once here
    prefixes = list(oracle._prefixes(fld, n, k + 1))
    monkeypatch.setattr(oracle, "_prefixes", lambda *args: iter(prefixes))
    rep_of = {}
    for key in sorted(orbits):
        rep_of.setdefault(tuple(row[: n - 1] for row in key[: n - 1]), key)
    if batching == "7-leaf":
        share = Counter(p[0] for p in prefixes if p is not None)
        rep_of = {h1: rep_of[h1] for h1 in [min(rep_of, key=share.__getitem__)]}
    for key in rep_of.values():
        assert count_orbit_bruteforce(matrix_of_key(fld, key), k) == orbits[key]


class Walked(Exception):
    pass


@pytest.mark.parametrize(
    "n,q,k,fits",
    [
        (2, 2, 15, True),  # keys below 2^60
        (2, 2, 16, False),  # 2^64
        (3, 2, 6, True),  # 2^54
        (3, 2, 7, False),  # exactly 2^63
        (1, 2, 62, True),
        (1, 2, 63, False),
    ],
)
def test_packed_keys_fit_in_int64_at_the_edge(monkeypatch, n, q, k, fits):
    """Under a budget that admits the scan, a census whose packed keys could
    reach 2^63 is refused, and one below it starts its walk; neither builds
    an array first (the walk is replaced by one that stops at once)."""

    def walk(*args):
        raise Walked

    monkeypatch.setattr(oracle, "_prefixes", walk)
    huge = EnumerationBudget(1 << 400)
    rep = PolyMatrix.identity(field_of_order(q), n)
    for scan in (lambda: orbit_census(q, n, k, huge), lambda: count_orbit_bruteforce(rep, k, huge)):
        with pytest.raises(Walked if fits else BudgetExceeded):
            scan()
    with pytest.raises(Walked):  # the degree census packs no key
        census_by_det_degree(n, q, k, huge)


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


# (n, q, k) with q^(n^2 (k+1)) <= 2^20 matrices for the ambient leg, and
# k <= 3 so the reps of each t stay a short list
THREE_WAY_POINTS = [
    (n, q, k)
    for q in (2, 3, 4, 5, 8, 9)
    for n in (1, 2, 3, 4)
    for k in range(4)
    if q ** (n * n * (k + 1)) <= 2**20
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_formula_members_counter_and_ambient_scan_agree(data):
    """Three independent routes to the size of one orbit: the closed form,
    the orbit-side member counter and the ambient scan."""
    n, q, k = data.draw(st.sampled_from(THREE_WAY_POINTS))
    t = data.draw(st.integers(0, k))
    rep = data.draw(st.sampled_from(enumerate_hnf_reps(n, q, t)))
    want = orbit_count_formula(n, q, t, k)
    assert count_orbit_members(rep, k) == want
    assert count_orbit_bruteforce(rep, k) == want


def test_members_counter_below_t_gives_zero():
    assert count_orbit_members(diag2(p2(0, 1), p2(0, 1)), 0) == 0


def test_members_counter_of_a_1x1_rep_is_the_formula_at_once():
    # the orbit of [h] is {c·h : c in F_q^*}: no last-row system is built
    fld = field_of_order(2)
    rep = PolyMatrix([[Poly.x(fld)]])
    start = time.perf_counter()
    got = count_orbit_members(rep, 400)
    assert time.perf_counter() - start < 0.01
    assert got == orbit_count_formula(1, 2, 1, 400) == 1
    F9 = field_of_order(9)
    h = Poly(F9, (5, 0, 7, 1))
    assert count_orbit_members(PolyMatrix([[h]]), 3) == orbit_count_formula(1, 9, 3, 3) == 8
    assert count_orbit_members(PolyMatrix([[h]]), 2) == 0


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


@pytest.mark.parametrize("walk", [enumerate_hnf_reps, iter_hnf_rep_keys])
@pytest.mark.parametrize("n, t", [(0, 2), (0, 0), (-1, 1), (2, -1), (1, -3)])
def test_canonical_form_walk_refuses_bad_n_and_t(walk, n, t):
    # refused before the budget check: no RecursionError for n < 1, and no
    # silently empty walk for t < 0 (c_nt raises there too)
    with pytest.raises(InvalidParams, match="n >= 1 and t >= 0"):
        walk(n, 2, t, EnumerationBudget(1))


def reference_enumerate_hnf_reps(n, q, t):
    """The earlier walk over hand-built choice lists with a position counter,
    kept as the order-exact reference for enumerate_hnf_reps; it yields
    the forms one at a time instead of listing them."""
    fld = field_of_order(q)
    for parts in _compositions(t, n):
        diag_choices = []
        for tj in parts:
            choices = []
            for p in iter_polys(fld, tj - 1) if tj > 0 else [None]:
                if p is None:
                    choices.append(Poly.one(fld))
                else:
                    choices.append(p + Poly(fld, (0,) * tj + (1,)))
            diag_choices.append(choices)
        above_choices = []
        for j, tj in enumerate(parts):
            col = []
            for _ in range(j):
                if tj == 0:
                    col.append([Poly.zero(fld)])
                else:
                    col.append(list(iter_polys(fld, tj - 1)))
            above_choices.append(col)
        flat = [c for col in above_choices for c in col]
        for diag in product(*diag_choices):
            for above in product(*flat):
                rows = [[Poly.zero(fld)] * n for _ in range(n)]
                pos = 0
                for j in range(n):
                    rows[j][j] = diag[j]
                    for i in range(j):
                        rows[i][j] = above[pos]
                        pos += 1
                yield PolyMatrix(rows)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rep_keys_match_enumerated_reps_in_order(n, q):
    for t in range(4):
        got = list(iter_hnf_rep_keys(n, q, t))
        assert got == [m.key() for m in enumerate_hnf_reps(n, q, t)], (n, q, t)


def test_rep_keys_check_the_budget_on_the_call():
    with pytest.raises(BudgetExceeded):
        iter_hnf_rep_keys(2, 2, 3, EnumerationBudget(max_items=10))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_hnf_reps_matches_reference_in_order(n, q):
    # the acceptance criteria pick reps by index, so the order is part of the API
    for t in range(4):
        got = enumerate_hnf_reps(n, q, t)
        want = reference_enumerate_hnf_reps(n, q, t)
        assert all(a == b for a, b in zip_longest(got, want)), (n, q, t)


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
        d = _det_cofactor(m.entries, fld)
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


def reference_p_scan(fld, bounds):
    """The full candidate scan the column solve replaced: the determinant of
    every candidate with constant term I, in batches of 2^16, keeping the
    indices whose determinant is a nonzero constant."""
    n, chunk = len(bounds), 1 << 16
    total = fld.q ** (n * sum(bounds))
    tbl = tables(fld)
    found = []
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.intp)
        d = _minors(tbl, _family_entries(fld, bounds, idx), len(idx))[tuple(range(n))]
        found.append(idx[(d[1:] == 0).all(axis=0) & (d[0] != 0)])
    return np.concatenate(found)


def solved_pieces(fld, bounds):
    return list(oracle._p_member_pieces(fld, bounds, oracle.DEFAULT_MAX_ITEMS))


def assert_solve_matches_scan(fld, bounds):
    members = np.sort(np.concatenate(solved_pieces(fld, bounds)))
    want = reference_p_scan(fld, bounds)
    assert members.dtype == want.dtype and np.array_equal(members, want)
    hist = oracle._p_members_cached(fld, bounds, oracle.DEFAULT_MAX_ITEMS)
    assert len(hist) == len(bounds) + 1 and sum(hist) == len(members)


@pytest.mark.parametrize("chunk", [oracle._LEAF_CHUNK, 7])
@pytest.mark.parametrize("q", sorted(P_DIFFERENTIAL_BOUNDS))
def test_column_solve_matches_full_scan(monkeypatch, q, chunk):
    monkeypatch.setattr(oracle, "_LEAF_CHUNK", chunk)
    oracle._p_members_cached.cache_clear()
    for bounds in P_DIFFERENTIAL_BOUNDS[q]:
        assert_solve_matches_scan(field_of_order(q), bounds)
    oracle._p_members_cached.cache_clear()


def test_column_solve_matches_full_scan_on_the_criterion_grid():
    """Every bound vector of criteria 3 and 4 whose candidates the full scan
    walks in well under a second (q^(n sum) <= 3^12: all of the grid but
    n = 3 over F_3 with sum 5 and over F_5 with sum 3)."""
    checked = 0
    for q, bounds in _bound_grid():
        if q ** (len(bounds) * sum(bounds)) <= 3**12:
            assert_solve_matches_scan(field_of_order(q), bounds)
            checked += 1
    assert checked == 203


def reference_layer_pivots(fld, bounds, members):
    """The leading-layer pivot masks by one ``rref`` per member, the path
    that reducing each distinct layer matrix once replaced."""
    layers = oracle._leading_layers(fld, bounds, members)
    return rref(layers[:, ::-1].transpose(0, 2, 1), len(bounds), fld)[2]


def assert_masks_match_per_member_rref(fld, bounds):
    """Each piece's masks match the per-member rref, and the cached counts
    are the run lengths of leading pivots of all of them."""
    n, runs = len(bounds), []
    for piece in solved_pieces(fld, bounds):
        want = reference_layer_pivots(fld, bounds, piece)
        assert np.array_equal(oracle._layer_pivots(fld, bounds, piece), want)
        runs += [next((r for r, p in enumerate(row) if not p), n) for row in want.tolist()]
    hist = oracle._p_members_cached(fld, bounds, oracle.DEFAULT_MAX_ITEMS)
    assert hist == tuple(runs.count(r) for r in range(n + 1))


@pytest.mark.parametrize("chunk", [oracle._LEAF_CHUNK, 7])
@pytest.mark.parametrize("q", sorted(P_DIFFERENTIAL_BOUNDS))
def test_layer_masks_match_per_member_rref(monkeypatch, q, chunk):
    monkeypatch.setattr(oracle, "_LEAF_CHUNK", chunk)
    oracle._p_members_cached.cache_clear()
    for bounds in P_DIFFERENTIAL_BOUNDS[q]:
        assert_masks_match_per_member_rref(field_of_order(q), bounds)
    oracle._p_members_cached.cache_clear()


def test_layer_masks_match_per_member_rref_on_the_criterion_grid():
    for q, bounds in _bound_grid():
        assert_masks_match_per_member_rref(field_of_order(q), bounds)


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


@pytest.mark.parametrize(
    "q, chunk",
    [  # ids: [q] with the default chunk, [q-7] with chunks of 7
        pytest.param(q, chunk, id=str(q) if chunk == oracle._LEAF_CHUNK else f"{q}-{chunk}")
        for chunk in (oracle._LEAF_CHUNK, 7)
        for q in sorted(P_DIFFERENTIAL_BOUNDS)
    ],
)
def test_P_QR_counts_match_per_member_rank(monkeypatch, q, chunk):
    """With 7-member chunks the counts are summed over many pieces."""
    monkeypatch.setattr(oracle, "_LEAF_CHUNK", chunk)
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


@pytest.mark.parametrize("q", sorted(P_DIFFERENTIAL_BOUNDS))
def test_leading_layers_match_decoded_candidates(q):
    fld = field_of_order(q)
    for bounds in P_DIFFERENTIAL_BOUNDS[q]:
        idx = np.arange(q ** (len(bounds) * sum(bounds)), dtype=np.intp)
        layers = oracle._leading_layers(fld, bounds, idx).tolist()
        for i in idx.tolist():
            m = _decode_p_member(fld, bounds, i)
            assert layers[i] == reference_leading_layers(m, bounds)


def test_count_P_asserts_dependent_leading_layers(monkeypatch):
    # independent leading layers would contradict a constant determinant
    def identity_layers(fld, bounds, idx):
        return np.tile(np.eye(len(bounds), dtype=np.intp), (len(idx), 1, 1))

    oracle._p_members_cached.cache_clear()
    monkeypatch.setattr(oracle, "_leading_layers", identity_layers)
    shown = "independent leading layers in 4 members of (1, 1) over F_2"
    with pytest.raises(AssertionError, match=re.escape(shown)):
        count_P_bruteforce((1, 1), 2)
    oracle._p_members_cached.cache_clear()


def reference_counts(fld, bounds):
    """P, then Q_i and R_i for i = 1..n, from the full scan and one rref mask
    per member, each count read off the masks directly."""
    n, members = len(bounds), reference_p_scan(fld, bounds)
    pivots = reference_layer_pivots(fld, bounds, members)
    out = [len(members)]
    for kind in "QR":
        for i in range(1, n + 1):
            dependent = ~pivots[:, : n - i + 1].all(axis=1)
            if kind == "Q":
                dependent &= pivots[:, : n - i].all(axis=1)
            out.append(int(np.count_nonzero(dependent)))
    return out


@pytest.mark.parametrize("chunk", [oracle._LEAF_CHUNK, 7])
def test_layer_pivots_sees_bounded_pieces(monkeypatch, chunk):
    """Every piece the counts reduce holds fewer than 2 _LEAF_CHUNK members,
    and the counts do not depend on how the members are cut."""
    cases = [(q, b) for q, bs in sorted(P_DIFFERENTIAL_BOUNDS.items()) for b in bs]
    cases.append((3, (0, 0, 0, 3)))  # 3^9 members: many pieces of 7
    sizes = []
    real = oracle._layer_pivots

    def layer_pivots(fld, bounds, idx):
        sizes.append(len(idx))
        return real(fld, bounds, idx)

    monkeypatch.setattr(oracle, "_LEAF_CHUNK", chunk)
    monkeypatch.setattr(oracle, "_layer_pivots", layer_pivots)
    oracle._p_members_cached.cache_clear()
    for q, b in cases:
        got = [count_P_bruteforce(b, q)]
        got += [count_QR_bruteforce(kind, i, b, q) for kind in "QR" for i in range(1, len(b) + 1)]
        assert got == reference_counts(field_of_order(q), b)
    oracle._p_members_cached.cache_clear()
    assert sizes and max(sizes) < 2 * chunk
    if chunk == 7:
        assert len(sizes) > len(cases)  # some family came in more than one piece


@pytest.mark.parametrize(
    "bounds, q, shown",
    [
        ((1, 1, 1, 1), 5, "5^12 items"),  # the choices of the other columns
        ((0, 0, 30), 2, "2^60 items"),  # the members of their zero choice
        ((40,), 3, "3^40 exceed the 64-bit index"),
    ],
)
def test_refused_solve_computes_nothing(monkeypatch, bounds, q, shown):
    def fail(*args):
        raise AssertionError("computed before the budget refused the solve")

    oracle._p_members_cached.cache_clear()
    monkeypatch.setattr(oracle, "_minors", fail)
    monkeypatch.setattr(oracle, "rref", fail)
    with pytest.raises(BudgetExceeded, match=re.escape(shown)):
        count_P_bruteforce(bounds, q)


def test_solve_refuses_its_members_before_expanding_them(monkeypatch):
    # (2, 1) over F_2: the 2^2 choices of the second column and the 2^2
    # members of its zero choice fit a budget of 5, the 2^3 members do not
    def fail(*args):
        raise AssertionError("expanded members past the budget")

    oracle._p_members_cached.cache_clear()
    monkeypatch.setattr(oracle, "_span_points", fail)
    with pytest.raises(BudgetExceeded, match="8 members exceed budget 5"):
        count_P_bruteforce((2, 1), 2, EnumerationBudget(5))
    monkeypatch.undo()
    assert count_P_bruteforce((2, 1), 2, EnumerationBudget(8)) == 8


def test_p_members_structure():
    for m in p_members((1, 1), 2):
        assert m.constant_layer() == [[1, 0], [0, 1]]
        d = _det_cofactor(m.entries, m.field)
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


@pytest.mark.parametrize("grid", [[(2, 2, -1)], []])
def test_verify_grid_refuses_a_grid_that_checks_nothing(grid):
    with pytest.raises(InvalidParams):
        verify_grid(grid)


def test_verify_grid_checks_every_triple_before_the_first_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("scanned before the whole grid was checked")

    monkeypatch.setattr(oracle, "orbit_census", scan)
    with pytest.raises(InvalidParams):
        verify_grid([(2, 2, 1), (2, 2, -1)])
