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
    SingularMatrix,
)
from orbitcount.fields import digits, field_of_order, tables
from orbitcount.linalg import (
    affine_solutions,
    consistent,
    iter_affine_space,
    rank,
    rref,
    solution_count,
    solve_affine,
)
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
from orbitcount.poly import NEG_INF, Poly, _trim
from orbitcount.polymat import PolyMatrix, _minors, det, hnf, is_canonical_hnf
from test_acceptance import _bound_grid
from test_polymat import _det_cofactor  # the kernel-free determinant reference
from test_polymat import reference_hnf  # the Poly-object Hermite reduction

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
    """Last columns, and prefix systems, split over many batches give the
    same buckets (n = 1 has one prefix, so one system)."""
    monkeypatch.setattr(oracle, "_CENSUS_LEAVES", 7)
    monkeypatch.setattr(oracle, "_LEAF_CHUNK", 7)
    fld = field_of_order(q)
    orbits, degrees, singular = reference_census(fld, n, k)
    assert orbit_census(fld, n, k) == (orbits, singular)
    batches = []
    monkeypatch.setattr(oracle, "rref", lambda a, *rest: batches.append(len(a)) or rref(a, *rest))
    census = census_by_det_degree(n, fld, k)
    assert census.buckets == degrees and census.singular == singular
    assert sum(batches) == q ** (n * (n - 1) * (k + 1))  # every prefix, once
    assert len(batches) > 1 or n == 1
    for key in sorted(orbits)[:5]:
        assert count_orbit_bruteforce(matrix_of_key(fld, key), k) == orbits[key]


def test_n1_scan_over_many_leaf_batches():
    """2^20 polynomials in 16 batches: (q - 1) q^t of them have degree t."""
    k = 19
    census = census_by_det_degree(1, 2, k)
    assert census.buckets == {t: 2**t for t in range(k + 1)} and census.singular == 1


# -- the per-prefix degree count against polymat.det ------------------------

# every (q, n, k) with n = 1..3 and k = 0..2 over F_2 .. F_9 whose q^(n(k+1))
# completions of one prefix are few enough for polymat.det one by one (at
# most 4,096); the others reach 9^9 completions
PREFIX_POINTS = [
    (q, n, k)
    for q in (2, 3, 4, 5, 8, 9)
    for n in (1, 2, 3)
    for k in range(3)
    if q ** (n * (k + 1)) <= 4096
]


def seeded_prefixes(fld, n, k, seed):
    """Prefixes by kind, each its n rows of n - 1 coefficient lists: zero,
    rank-deficient (n = 3: a nonzero first column and a nonzero multiple of
    it), full-rank, and for k >= 1 full-rank with entries divisible by 1 + x,
    whose determinant values lead and trail at different degrees.  Full-rank
    ones are drawn until hnf takes them.  For n = 2 the zero column is the
    only rank-deficient prefix, and n = 1 has the empty one only."""
    rng = np.random.default_rng(seed)
    width = k + 1
    if n == 1:
        return {"empty": [[]]}

    def full_rank(times_1_plus_x):
        while True:
            low = rng.integers(fld.q, size=(n, n - 1, width - times_1_plus_x)).tolist()
            if times_1_plus_x:  # e (1 + x)
                low = [[[fld.add(a, b) for a, b in zip([*e, 0], [0, *e])] for e in r] for r in low]
            try:
                hnf(PolyMatrix([[Poly(fld, e) for e in row] for row in low]))
                return low
            except SingularMatrix:
                continue

    kinds = {"zero": [[[0] * width] * (n - 1) for _ in range(n)], "full-rank": full_rank(0)}
    if k:
        kinds["common factor"] = full_rank(1)
    if n == 3:
        col = [row[0] for row in kinds["full-rank"]]
        a = int(rng.integers(1, fld.q))
        kinds["rank-deficient"] = [[c, [fld.mul(a, v) for v in c]] for c in col]
    return kinds


def prefix_index(q, prefix):
    """The index of a prefix, its digits as in oracle._decode_matrix."""
    coeffs = [v for row in prefix for e in row for v in e]
    return sum(v * q**p for p, v in enumerate(coeffs))


def reference_det_degrees(fld, n, k, prefix):
    """polymat.det on every completion [prefix | c]: {degree: count},
    degree None for the singular ones."""
    width = k + 1
    counts = Counter()
    for c in range(fld.q ** (n * width)):
        last = digits(c, fld.q, n * width)
        rows = [[*row, last[i * width : (i + 1) * width]] for i, row in enumerate(prefix)]
        d = det(PolyMatrix([[Poly(fld, e) for e in row] for row in rows]))
        counts[None if d.is_zero() else d.degree] += 1
    return counts


@pytest.mark.parametrize("q,n,k", PREFIX_POINTS)
def test_prefix_degree_counts_match_det_of_every_completion(q, n, k):
    """Each seeded prefix's counts against polymat.det over its q^(n(k+1))
    completions, and the prefixes of one batch against their sum."""
    fld = field_of_order(q)
    kinds = seeded_prefixes(fld, n, k, seed=1000 * q + 10 * n + k)
    total = Counter()
    for name, prefix in kinds.items():
        want = reference_det_degrees(fld, n, k, prefix)
        got = oracle._det_degree_counts(fld, n, k, np.array([prefix_index(q, prefix)]))
        assert got == want, name
        total += want
    idx = np.array([prefix_index(q, p) for p in kinds.values()])
    assert oracle._det_degree_counts(fld, n, k, idx) == total


# -- the prefix reductions against the Poly-object reference ----------------


def reference_prefix(fld, n, k, idx):
    """Prefix idx reduced by reference_hnf of _decode_matrix: the rows of H1
    as coefficient tuples and the rows of u as coefficient lists, or None
    where the reference raises SingularMatrix.  n = 1 has one empty prefix,
    whose u is the identity."""
    if n == 1:
        return (), [[[1]]]
    try:
        form = reference_hnf(oracle._decode_matrix(fld, n, n - 1, k + 1, idx))
    except SingularMatrix:
        return None
    return form.h.key()[: n - 1], [[list(e.coeffs) for e in row] for row in form.u.entries]


@lru_cache(maxsize=None)
def reference_prefixes(q, n, k):
    """reference_prefix at every prefix index, in index order."""
    fld = field_of_order(q)
    return [reference_prefix(fld, n, k, idx) for idx in range(q ** (n * (n - 1) * (k + 1)))]


@pytest.mark.parametrize("n,q,k", [(1, 3, 2), (2, 2, 1), (2, 4, 1), (2, 9, 0), (3, 2, 1)])
def test_prefix_entries_match_decode_matrix_at_every_index(n, q, k):
    """The entries _prefix_entries decodes from one index range, each read
    as a polynomial from its base-q digits, against _decode_matrix at every
    prefix index; n = 1 has one empty prefix."""
    fld = field_of_order(q)
    width, total = k + 1, q ** (n * (n - 1) * (k + 1))
    entries = oracle._prefix_entries(q, n, width, np.arange(total))
    assert entries.shape == (n, n - 1, total)
    for idx, prefix in enumerate(entries.transpose(2, 0, 1).tolist()):
        got = [[Poly(fld, digits(e, q, width)) for e in row] for row in prefix]
        want = oracle._decode_matrix(fld, n, n - 1, width, idx).entries if n > 1 else [[]]
        assert got == list(map(list, want)), idx


@pytest.mark.parametrize("n,q,k", [(2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 9, 0), (3, 2, 0), (3, 2, 1)])
def test_prefixes_match_reference_hnf_of_each_decoded_prefix(n, q, k):
    """Every prefix of the census walk, decoded by _prefix_entries from one
    index range and reduced by _hermite on the census's table of entries,
    against reference_prefix at the same index: the rows of H1 and of u,
    and SingularMatrix exactly where the reference raises it."""
    fld = field_of_order(q)
    width, total = k + 1, q ** (n * (n - 1) * (k + 1))
    polys = [_trim(digits(e, q, width)) for e in range(q**width)]
    entries = oracle._prefix_entries(q, n, width, np.arange(total))
    singular = 0
    for idx, prefix in enumerate(entries.transpose(2, 0, 1).tolist()):
        want = reference_prefix(fld, n, k, idx)
        try:
            h, u, _, _ = oracle._hermite(fld, [[polys[e] for e in row] for row in prefix])
        except SingularMatrix:
            assert want is None, idx
            singular += 1
            continue
        assert (tuple(tuple(map(tuple, row)) for row in h[: n - 1]), u) == want, idx
    assert idx == total - 1 and singular


# -- the batched leaf finish against the per-prefix reference ---------------


def reference_leaf_keys(fld, prefix, batch):
    """The per-prefix finish that the batched one replaced: y = u @ c through
    the field tables for one prefix, then a Poly divmod for each entry of
    every nonsingular leaf.  Returns ``(key, count)`` pairs, key None for the
    singular ones."""
    h1, u = prefix
    tbl = tables(fld)
    _, mul, _, inv = tbl
    depth = batch.shape[1] - 1 + max(len(e) for r in u for e in r)
    y = np.zeros((len(u), depth, batch.shape[2]), dtype=np.intp)
    for yr, r in zip(y, u):
        for e, c in zip(r, batch):
            oracle._mac(tbl, yr, e, c)
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
    for prefix in reference_prefixes(q, n, k):
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
    census) the censuses are left to the other two batchings.  Every orbit
    scan's batches hold at most _CENSUS_LEAVES leaves, and add up to
    q^(n(k+1)) leaves per full-rank prefix it completes; 7-leaf batching
    also splits the determinant census's prefix systems (_LEAF_CHUNK).
    """
    if batching == "7-leaf":
        monkeypatch.setattr(oracle, "_CENSUS_LEAVES", 7)
        monkeypatch.setattr(oracle, "_LEAF_CHUNK", 7)
    elif batching == "one-prefix":
        monkeypatch.setattr(oracle, "_CENSUS_LEAVES", q ** (n * (k + 1)))
    fld = field_of_order(q)
    orbits, singular = reference_prefix_census(q, n, k)
    share = Counter(p[0] for p in reference_prefixes(q, n, k) if p is not None)
    batches = []
    leaf_keys = oracle._leaf_keys

    def recorded(fld, u, batch, terms):
        batches.append(u.shape[3] * batch.shape[2])
        return leaf_keys(fld, u, batch, terms)

    def assert_batches(completed):
        assert max(batches) <= oracle._CENSUS_LEAVES
        assert sum(batches) == completed * q ** (n * (k + 1))
        batches.clear()

    monkeypatch.setattr(oracle, "_leaf_keys", recorded)
    if batching != "7-leaf" or n < 3:
        assert orbit_census(fld, n, k) == (orbits, singular)
        assert_batches(sum(share.values()))
        degrees = {}
        for key, count in orbits.items():
            t = oracle._key_t(key)
            degrees[t] = degrees.get(t, 0) + count
        census = census_by_det_degree(n, fld, k)
        assert census.buckets == degrees and census.singular == singular
    # each orbit scan would reduce every prefix again: each is reduced once
    hermite, memo = oracle._hermite, {}

    def memoised(fld, rows):
        key = repr(rows)  # before the reduction, which works on rows in place
        if key not in memo:
            try:
                memo[key] = hermite(fld, rows)
            except SingularMatrix:
                memo[key] = None
        if memo[key] is None:
            raise SingularMatrix(key)
        return memo[key]

    monkeypatch.setattr(oracle, "_hermite", memoised)
    rep_of = {}
    for key in sorted(orbits):
        rep_of.setdefault(tuple(row[: n - 1] for row in key[: n - 1]), key)
    if batching == "7-leaf":
        rep_of = {h1: rep_of[h1] for h1 in [min(rep_of, key=share.__getitem__)]}
    for h1, key in rep_of.items():
        assert count_orbit_bruteforce(matrix_of_key(fld, key), k) == orbits[key]
        assert_batches(share[h1])


@pytest.mark.parametrize("n,q,k,leaves", [(3, 2, 1, None), (2, 3, 2, None), (3, 2, 1, 7)])
def test_census_decodes_last_columns_that_fit_once(monkeypatch, n, q, k, leaves):
    """The q^(n(k+1)) last columns of a census are decoded once when they
    fit in one batch, however many groups of prefixes they finish.  When
    they do not (batches of 7 leaves), each slice of them is decoded again
    for every completed prefix: 10 slices of the 64 at 3,2,1, counted on the
    orbit scan of the H1 with the fewest prefixes."""
    total = q ** (n * (k + 1))
    decodes = []

    def counted(v, base, width):
        if isinstance(v, np.ndarray) and (base, width) == (q, n * (k + 1)):  # last columns
            decodes.append(len(v))
        return digits(v, base, width)

    monkeypatch.setattr(oracle, "digits", counted)
    if leaves is None:
        orbit_census(q, n, k)
        assert decodes == [total]
        return
    monkeypatch.setattr(oracle, "_CENSUS_LEAVES", leaves)
    fld = field_of_order(q)
    share = Counter(p[0] for p in reference_prefixes(q, n, k) if p is not None)
    h1 = min(share, key=share.__getitem__)
    rows = [list(row) + [[]] for row in h1] + [[[]] * (n - 1) + [[1]]]
    count_orbit_bruteforce(PolyMatrix.from_ints(fld, rows), k)
    assert decodes == [min(leaves, total - lo) for lo in range(0, total, leaves)] * share[h1]


@pytest.mark.parametrize("n,q,k", [(1, 3, 2), (2, 2, 1), (2, 3, 1), (3, 2, 1)])
def test_census_positions_decode_to_every_form_once(n, q, k):
    """A tally holding one count at every position of a census decodes to
    each canonical form with t <= n k exactly once, in the order of the
    reference walk: the runs of t = 0, 1, ..., n k follow one another."""
    comps, firsts = oracle._runs(q, n, range(n * k + 1))
    tally = np.ones(firsts[-1], dtype=np.int64)
    values = oracle._cell_values(q, comps)
    keys = list(oracle._forms(n, comps, firsts, np.flatnonzero(tally).tolist(), values))
    want = [m.key() for t in range(n * k + 1) for m in reference_enumerate_hnf_reps(n, q, t)]
    assert keys == want


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_encoder_inverts_the_walk_decoder(n, q):
    """position -> structural key (_forms) -> the census encoder
    (_h1_terms and _leaf_keys) -> the same position, for every form with t
    <= T, the largest T whose forms number at most 2^16 (T >= 1 at every
    point).  Each form is one leaf: the witness u of its prefix holds the
    form's last column in its column n - 1, and the one last column is e_n,
    so u @ e_n is that column, already reduced."""
    T = max(t for t in range(16) if sum(c_nt(n, q, s) for s in range(t + 1)) <= 1 << 16)
    assert T >= 1
    comps, firsts = oracle._runs(q, n, range(T + 1))
    keys = list(oracle._forms(n, comps, firsts, range(firsts[-1]), oracle._cell_values(q, comps)))
    assert len(keys) == firsts[-1] == sum(c_nt(n, q, t) for t in range(T + 1))
    fld = field_of_order(q)
    dtype = tables(fld)[0].dtype
    u = np.zeros((n, n, T + 1, len(keys)), dtype=dtype)
    for p, key in enumerate(keys):
        for i, row in enumerate(key):
            u[i, n - 1, : len(row[-1]), p] = row[-1]
    h1s = [tuple(row[: n - 1] for row in key[: n - 1]) for key in keys]
    start = dict(zip(comps, firsts))
    terms = {h1: oracle._h1_terms(q, h1, start, T) for h1 in set(h1s)}
    batch = np.zeros((n, 1, 1), dtype=dtype)
    batch[n - 1] = 1
    got = oracle._leaf_keys(fld, u, batch, np.array([terms[h1] for h1 in h1s]))
    assert got.tolist() == list(range(firsts[-1]))


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
    an array first (the walk's first step, the Hermite reduction of its
    first prefix, is replaced by one that stops at once).  The
    degree census packs no key, so it always starts: its first step, the
    cofactors of its first batch of prefixes, stops it."""

    def walk(*args):
        raise Walked

    monkeypatch.setattr(oracle, "_hermite", walk)
    monkeypatch.setattr(oracle, "_minors", walk)
    huge = EnumerationBudget(1 << 400)
    rep = PolyMatrix.identity(field_of_order(q), n)
    for scan in (lambda: orbit_census(q, n, k, huge), lambda: count_orbit_bruteforce(rep, k, huge)):
        with pytest.raises(Walked if fits else BudgetExceeded):
            scan()
    with pytest.raises(Walked):
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


def test_members_counter_refuses_a_huge_outer_space_at_once(monkeypatch):
    # 9^18000 outer choices: refused from the exponent, never built or printed
    def fail(*args):
        raise AssertionError("expanded the outer choices past the budget")

    monkeypatch.setattr(oracle, "_span_points", fail)
    with pytest.raises(BudgetExceeded, match=r"9\^18000 items"):
        count_orbit_members(PolyMatrix.identity(field_of_order(9), 3), 3000)


def test_members_counter_refuses_its_cofactor_expansion_first(monkeypatch):
    # the 2x2 identity at k = 0: one outer choice, but 2 2^1 cofactor products
    def fail(*args):
        raise AssertionError("expanded the cofactors past the budget")

    monkeypatch.setattr(oracle, "_minors", fail)
    with pytest.raises(BudgetExceeded, match="cofactor products"):
        count_orbit_members(PolyMatrix.identity(F2, 2), 0, EnumerationBudget(3))
    monkeypatch.undo()
    assert count_orbit_members(PolyMatrix.identity(F2, 2), 0, EnumerationBudget(4)) == 6


def test_member_counts_refuse_forms_with_t_at_most_k_before_any_rref(monkeypatch):
    """Forms with t <= k have nullity n k - t, so their choices are refused
    before any system is built, with the message that their solved systems
    give behind a form with t > k (diag(x^2, 1) at k = 1, which has no
    member, so only its system is checked).  The cofactor expansion is
    checked once per call."""
    I, d = PolyMatrix.identity(F2, 2).key(), diag2(p2(1), p2(0, 1)).key()
    forms = [(I, 1), (d, 2), (I, 3)]  # nullities 2, 3, 6: 2^2, 2^3, 2^6 choices
    blocker = (diag2(p2(0, 0, 1), p2(1)).key(), 1)
    message = r"^orbit member enumeration: 2\^6 items exceed budget 50$"
    with pytest.raises(BudgetExceeded, match=message):
        oracle._member_counts(F2, 2, [blocker] + forms, EnumerationBudget(50))
    checks = []
    monkeypatch.setattr(oracle, "_check_cofactors", lambda *args: checks.append(args))
    assert oracle._member_counts(F2, 2, [blocker] + forms, None) == [0, 24, 48, 384]
    assert oracle._member_counts(F2, 2, forms, None) == [24, 48, 384]
    assert len(checks) == 2

    def fail(*args):
        raise AssertionError("built a system before refusing a form with t <= k")

    monkeypatch.setattr(oracle, "rref", fail)
    with pytest.raises(BudgetExceeded, match=message):
        oracle._member_counts(F2, 2, forms, EnumerationBudget(50))


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


# -- the member counter's batches against the per-form counter ---------------


def per_form_member_count(rep, k):
    """The member counter on one form: its own system, its own walk over the
    choices of the first n - 1 rows, one line solve per batch of them.
    None when the system is inconsistent (the count is 0)."""
    H = hnf(rep).h
    fld = rep.field
    n, q = rep.rows, fld.q
    if n == 1:
        return (q - 1) * (H.entries[0][0].degree <= k)
    nunk = n * k  # coefficients v_j[d] at column j * k + d - 1, d = 1..k
    # coefficient dp > k of column c of v_i H vanishes: A v_i = b_i
    system = []
    for c in range(n):
        col = [H.entries[j][c] for j in range(n)]
        maxdeg = k + max((int(h.degree) for h in col if h), default=0)
        for dp in range(k + 1, maxdeg + 1):
            system.append(
                [h[dp - d] for h in col for d in range(1, k + 1)]
                + [fld.neg(H.entries[i][c][dp]) for i in range(n)]
            )
    system = np.array(system, dtype=np.intp).reshape(1, -1, nunk + n)
    reduced, ranks, pivots = rref(system, nunk, fld)
    if not consistent(reduced, ranks, nunk)[0]:
        return None
    (particulars,), (basis,), _ = affine_solutions(reduced, ranks, pivots, fld)
    nb = len(basis)
    # the last row: e_(n-1) plus its particular, then its directions
    line = np.zeros((nb + 1, n, k + 1), dtype=np.intp)
    line[:, :, 1:] = np.concatenate([particulars[-1:], basis]).reshape(nb + 1, n, k)
    line[0, n - 1, 0] = 1
    # the choices of rows 0..n-2: one affine space, basis B once per row
    base = particulars[:-1].reshape(1, -1)
    spans = np.zeros((n - 1, nb, n - 1, nunk), dtype=np.intp)
    spans[range(n - 1), :, range(n - 1)] = basis
    spans = spans.reshape(1, (n - 1) * nb, (n - 1) * nunk)
    chunk = max(1, oracle._LEAF_CHUNK // (max(nunk, 1) * (nb + 1)))
    total = 0
    for points, _ in oracle._solutions(fld, base, spans, np.array([(n - 1) * nb])):
        for lo in range(0, len(points), chunk):
            choices = points[lo : lo + chunk]
            v = choices.T.reshape(n - 1, n, k, len(choices))
            rows = [[[int(i == c), *v[i, c]] for c in range(n)] for i in range(n - 1)]
            segments = [(0, len(choices), line[0], line[1:])]
            _, ranks, _, ok = oracle._line_systems(fld, rows, n - 1, segments, len(choices))
            total += solution_count(q, (nb - ranks)[ok])
    return gl_count(n, q) * total


@pytest.mark.parametrize("chunk", [oracle._LEAF_CHUNK, 7], ids=["chunk", "chunk7"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_member_counts_of_a_batch_match_the_per_form_counter(monkeypatch, q, chunk):
    """Every member case of one size counted in one batch: mixed k (so rows
    past each form's own k), t > k, inconsistent systems, zero counts,
    and nullities that differ within a batch, so a form's basis rows past
    its nullity pad its spans and its line."""
    monkeypatch.setattr(oracle, "_LEAF_CHUNK", chunk)
    nullities = []  # of the consistent forms of each batch

    def solutions(*args):
        out = affine_solutions(*args)
        nullities.append(out[2])
        return out

    monkeypatch.setattr(oracle, "affine_solutions", solutions)
    fld = field_of_order(q)
    cases = member_cases(q)
    want = [per_form_member_count(rep, k) for rep, k in cases]
    got = {}
    for n in (1, 2, 3):
        batch = [(i, rep, k) for i, (rep, k) in enumerate(cases) if rep.rows == n]
        assert len({k for _, _, k in batch}) > 1
        forms = [(hnf(rep).h.key(), k) for _, rep, k in batch]
        got.update(zip((i for i, _, _ in batch), oracle._member_counts(fld, n, forms, None)))
    assert [got[i] for i in range(len(cases))] == [w or 0 for w in want]
    assert None in want and 0 in want and any(want)
    assert any(int(det(rep).degree) > k for rep, k in cases)
    # some form's basis is narrower than its batch's, so it is padded
    assert any((free < free.max()).any() for free in nullities)


# -- the member counter's systems against the pinned reference --------------


def reference_member_systems(fld, n, forms):
    """The member counter's systems built form by form in Python, an array
    (L, height, n K + n) over forms, a list of (H, k): v_j[d] at column
    j K + d - 1 for K = max k, a row per (c, dp) for k < dp < k + the
    longest entry of column c, identity rows pinning each v_j[d] with d > k
    to 0, and every system zero-padded to one height."""
    K = max(k for _, k in forms)
    nunk = n * K
    neg, systems = fld._neg, []
    for H, k in forms:
        rows = []
        for c in range(n):
            col = [H[j][c] for j in range(n)]
            for dp in range(k + 1, k + max(map(len, col))):
                row = [0] * (nunk + n)
                for j, h in enumerate(col):
                    for d in range(max(1, dp - len(h) + 1), k + 1):
                        row[j * K + d - 1] = h[dp - d]
                    if dp < len(h):
                        row[nunk + j] = neg[h[dp]]
                rows.append(row)
        pins = [j * K + d - 1 for j in range(n) for d in range(k + 1, K + 1)]
        systems.append(rows + [[int(u == p) for u in range(nunk + n)] for p in pins])
    height = max(map(len, systems))
    zero = [0] * (nunk + n)
    padded = [rows + [zero] * (height - len(rows)) for rows in systems]
    return np.array(padded, dtype=np.intp).reshape(len(forms), height, nunk + n)


class _Built(Exception):
    """Raised by a patched rref once the member systems are captured."""


@pytest.mark.parametrize("n, q, k", [(2, 3, 2), (3, 2, 1), (2, 2, 3)])
def test_member_systems_match_the_pinned_reference(monkeypatch, n, q, k):
    """Every form with t <= n k, each at k' = t - 1 .. t + 2 (k' >= 0), in
    batches of mixed k': the counter's systems, whose rows run past each
    form's own k' where the reference pins its higher unknowns, reduce to
    the reference's ranks, pivots and consistency flags, and to its reduced
    rows up to the rank: whole where the system is consistent, on the
    unknowns where it is not (an inconsistent system's right-hand sides
    there depend on the order of its rows)."""
    fld = field_of_order(q)
    forms = [
        (key, kk)
        for t in range(n * k + 1)
        for key in iter_hnf_rep_keys(n, q, t)
        for kk in range(max(t - 1, 0), t + 3)
    ]
    built = []

    def capture(systems, ncols, field):
        built.append(systems)
        raise _Built

    flags = []
    for lo in range(0, len(forms), 2000):
        batch = forms[lo : lo + 2000]
        nunk = n * max(kk for _, kk in batch)
        with monkeypatch.context() as m:
            m.setattr(oracle, "rref", capture)
            with pytest.raises(_Built):
                oracle._member_counts(fld, n, batch, None)
        got = rref(built.pop(), nunk, fld)
        want = rref(reference_member_systems(fld, n, batch), nunk, fld)
        assert (got[1] == want[1]).all() and (got[2] == want[2]).all()
        ok = consistent(got[0], got[1], nunk)
        assert (ok == consistent(want[0], want[1], nunk)).all()
        flags.extend(ok)
        top = min(got[0].shape[1], want[0].shape[1])
        assert top >= got[1].max(initial=0)
        ranked = (np.arange(top) < got[1][:, None])[..., None]
        got, want = got[0][:, :top] * ranked, want[0][:, :top] * ranked
        assert (got[..., :nunk] == want[..., :nunk]).all()
        assert (got[ok] == want[ok]).all()
    # batches of mixed k, where a form's higher unknowns were pinned
    assert len({kk for _, kk in forms[:2000]}) > 1
    assert any(flags) and not all(flags)


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


def test_orbit_side_of_diag_x_shifts_is_gl_times_the_family():
    """V diag(x^(k - k_j)) has degree <= k exactly when column j of V has
    degree <= k_j, so with k = max k_j the orbit-side member counter gives
    #GL_n(F_q) times the Lemma 2 family: every bound vector with n <= 3 and
    entries <= 2, sum <= 4 over F_2 and <= 3 over F_3 and F_4.  Many of these
    orbits have t = nk - sum k_j > k, where the closed form says nothing."""
    checked = beyond = 0
    for q, max_sum in ((2, 4), (3, 3), (4, 3)):
        fld = field_of_order(q)
        for n in (1, 2, 3):
            for bounds in product(range(3), repeat=n):
                if sum(bounds) > max_sum:
                    continue
                k = max(bounds)
                rep = PolyMatrix.diagonal([Poly(fld, (0,) * (k - kj) + (1,)) for kj in bounds])
                want = gl_count(n, q) * count_P_bruteforce(bounds, q)
                assert count_orbit_members(rep, k) == want, (q, bounds)
                checked += 1
                beyond += n * k - sum(bounds) > k
    assert checked == 91 and beyond > 0


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


@lru_cache(maxsize=None)
def reference_p_scan(fld, bounds):
    """The full candidate scan the column solve replaced: the determinant of
    every candidate with constant term I, in batches of 2^16, keeping the
    indices whose determinant is a nonzero constant.  Cached, read-only: the
    solve and the counts are both checked against one scan."""
    n, chunk = len(bounds), 1 << 16
    total = fld.q ** (n * sum(bounds))
    tbl = tables(fld)
    found = []
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.intp)
        d = _minors(tbl, _family_entries(fld, bounds, idx), len(idx))[tuple(range(n))]
        found.append(idx[(d[1:] == 0).all(axis=0) & (d[0] != 0)])
    members = np.concatenate(found)
    members.flags.writeable = False
    return members


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
    that reducing each distinct layer matrix once replaced; row j of a
    member's layers holds the last coefficient of each entry of column j."""
    entries = _family_entries(fld, bounds, members)
    layers = np.array([[np.broadcast_to(e[-1], members.shape) for e in row] for row in entries]).T
    return rref(layers[:, ::-1].transpose(0, 2, 1), len(bounds), fld)[2]


def family_counts(fld, bounds):
    """P, then Q_i and R_i for i = 1..n, as the cached counts give them."""
    qr = [(kind, i) for kind in "QR" for i in range(1, len(bounds) + 1)]
    return [count_P_bruteforce(bounds, fld)] + [count_QR_bruteforce(*k, bounds, fld) for k in qr]


@pytest.mark.parametrize("chunk", [oracle._LEAF_CHUNK, 7])
@pytest.mark.parametrize("q", sorted(P_DIFFERENTIAL_BOUNDS))
def test_layer_masks_match_per_member_rref(monkeypatch, q, chunk):
    """The counts per projected point of each system equal those of one rref
    mask per member of the full scan."""
    monkeypatch.setattr(oracle, "_LEAF_CHUNK", chunk)
    oracle._p_members_cached.cache_clear()
    for bounds in P_DIFFERENTIAL_BOUNDS[q]:
        fld = field_of_order(q)
        assert family_counts(fld, bounds) == reference_counts(fld, bounds)
    oracle._p_members_cached.cache_clear()


def test_layer_masks_match_per_member_rref_on_the_criterion_grid():
    """The members are the full scan's where the criterion-grid test of the
    column solve walks it, and the solved members, which that test checks
    against the scan, on the rest of the grid (where k_c >= 2 too)."""
    for q, bounds in _bound_grid():
        fld = field_of_order(q)
        scanned = q ** (len(bounds) * sum(bounds)) <= 3**12
        members = None if scanned else np.concatenate(solved_pieces(fld, bounds))
        assert family_counts(fld, bounds) == reference_counts(fld, bounds, members)


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
def test_p_systems_layers_match_decoded_choices(monkeypatch, q):
    """The leading layers that the column solve hands out with each batch
    are those of its decoded choices, with the default chunk and with 7;
    (2, 2) adds a column other than the solved one whose top digit is not
    its first (q^4 choices, so only over the smaller fields)."""
    fld = field_of_order(q)
    extra = [(2, 2)] if q < 8 else []
    for chunk in (oracle._LEAF_CHUNK, 7):
        monkeypatch.setattr(oracle, "_LEAF_CHUNK", chunk)
        for bounds in P_DIFFERENTIAL_BOUNDS[q] + extra:
            _, batches = oracle._p_systems(fld, bounds, oracle.DEFAULT_MAX_ITEMS)
            for idx, *_, layers in batches:
                assert len(layers) == len(idx)
                for i, got in zip(idx.tolist(), layers.tolist()):
                    assert got == reference_leading_layers(_decode_p_member(fld, bounds, i), bounds)


def test_count_P_asserts_dependent_leading_layers(monkeypatch):
    # independent leading layers would contradict a constant determinant.
    # Row c = 0 of the layers is the solved column's projected point, so with
    # e_1 injected as the other layer, the members I + xA of (1, 1) whose
    # layers are independent are those with A_00 != 0: over F_3, tr A =
    # det A = 0 leaves A_00 = a, A_11 = -a and A_01 A_10 = -a^2, 2 for each a
    real = oracle._p_systems

    def identity_layers(*args):
        c, batches = real(*args)
        eye = np.eye(2, dtype=np.intp)
        return c, ((*batch[:-1], np.tile(eye, (len(batch[0]), 1, 1))) for batch in batches)

    oracle._p_members_cached.cache_clear()
    monkeypatch.setattr(oracle, "_p_systems", identity_layers)
    shown = "independent leading layers in 4 members of (1, 1) over F_3"
    with pytest.raises(AssertionError, match=re.escape(shown)):
        count_P_bruteforce((1, 1), 3)
    oracle._p_members_cached.cache_clear()


def reference_counts(fld, bounds, members=None):
    """P, then Q_i and R_i for i = 1..n, from one rref mask per member, each
    count read off the masks directly; the members are the full scan's
    unless given."""
    n = len(bounds)
    members = reference_p_scan(fld, bounds) if members is None else members
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
    """Every batch that reaches rref, of systems or of projected points,
    holds fewer than 2 _LEAF_CHUNK, and the counts do not depend on how the
    points are cut."""
    cases = [(q, b) for q, bs in sorted(P_DIFFERENTIAL_BOUNDS.items()) for b in bs]
    cases.append((3, (0, 0, 0, 3)))  # one system, whose leading layers come in many pieces of 7
    sizes, pieces = [], []
    real = oracle.rref

    def rref(systems, ncols, fld):
        sizes.append(len(systems))
        if systems.shape[2] == ncols:  # no right-hand side: a piece of leading layers
            pieces.append(len(systems))
        return real(systems, ncols, fld)

    monkeypatch.setattr(oracle, "_LEAF_CHUNK", chunk)
    monkeypatch.setattr(oracle, "rref", rref)
    oracle._p_members_cached.cache_clear()
    for q, b in cases:
        assert family_counts(field_of_order(q), b) == reference_counts(field_of_order(q), b)
    oracle._p_members_cached.cache_clear()
    assert sizes and max(sizes) < 2 * chunk
    if chunk == 7:
        assert len(pieces) > len(cases)  # some family came in more than one piece


@pytest.mark.parametrize(
    "bounds, q, shown",
    [
        ((1, 1, 1, 1), 5, "5^12 items"),  # the choices of the other columns
        ((0, 0, 30), 2, "2^60 items"),  # the members of their zero choice
        ((40,), 3, "3^40 exceed the 64-bit index"),
        ((0,) * 30, 2, "(cofactor products): 2^29 items"),  # one system, 30 2^29 products
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
