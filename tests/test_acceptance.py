"""End-to-end acceptance gate.

Each test prints one CRITERION line so the run log doubles as a checklist.
Criteria 1-8 are exact identities with zero tolerance; criterion 9 checks an
asymptotic statement empirically, so its tolerances (0.05 on the class ratio,
15% on the density constant) are engineering choices, stated inline.
"""

import random
from itertools import product

import pytest

from orbitcount.counting import (
    c_nt,
    orbit_count_formula,
    p_count_formula,
    p_count_recursive,
    q_count_recursive,
    r_count_recursive,
    total_count_formula,
)
from orbitcount.errors import PreconditionViolation
from orbitcount.fields import field_of_order
from orbitcount.integer_orbits import (
    count_det_norm,
    hnf_classes_for_det,
    hnf_int,
    orbit_ratio_experiment,
    snf_int,
)
from orbitcount.moves import run_move_battery, standard_move_fixtures
from orbitcount.oracle import (
    _key_t,
    census_by_det_degree,
    count_P_bruteforce,
    count_QR_bruteforce,
    enumerate_hnf_reps,
    orbit_census,
)
from orbitcount.poly import Poly
from orbitcount.polymat import PolyMatrix, hnf, same_orbit

GRID = [(2, 2, 2), (2, 3, 2), (3, 2, 1), (2, 4, 1), (2, 5, 1), (2, 7, 1)]  # (n, q, max k)

_census_cache = {}


def census(n, q, k):
    key = (n, q, k)
    if key not in _census_cache:
        _census_cache[key] = orbit_census(q, n, k)
    return _census_cache[key]


def _report(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_main_theorem_exact():
    """Every orbit census count with t <= k equals #GL * q^((n-1)(nk-t))."""
    checked = 0
    ok = True
    for n, q, kmax in GRID:
        for k in range(kmax + 1):
            buckets, _ = census(n, q, k)
            want_keys = {
                m.key() for t in range(k + 1) for m in enumerate_hnf_reps(n, q, t)
            }
            got_keys = {key for key in buckets if _key_t(key) <= k}
            ok = ok and got_keys == want_keys
            for key in got_keys:
                t = _key_t(key)
                ok = ok and buckets[key] == orbit_count_formula(n, q, t, k)
                checked += 1
    anchors = (
        orbit_count_formula(2, 2, 1, 1) == 12
        and orbit_count_formula(2, 2, 2, 2) == 24
        and orbit_count_formula(3, 2, 0, 1) == 10752
    )
    _report(1, ok and anchors, f"{checked} orbits, zero tolerance")


def test_criterion_2_corollary_census_exact():
    checked = 0
    ok = True
    for n, q, kmax in GRID:
        for k in range(kmax + 1):
            cen = census_by_det_degree(n, q, k)
            for t in range(k + 1):
                ok = ok and cen.buckets.get(t, 0) == total_count_formula(n, q, t, k)
                checked += 1
    anchors = (
        total_count_formula(2, 2, 0, 1) == 24
        and total_count_formula(2, 2, 1, 1) == 72
        and total_count_formula(2, 2, 2, 2) == 672
    )
    _report(2, ok and anchors, f"{checked} buckets, zero tolerance")


def _bound_grid():
    """(q, bounds): n <= 3 with sum(bounds) <= 5 over F_2 and F_3, <= 3 over
    F_4 and F_5."""
    for q, max_sum in ((2, 5), (3, 5), (4, 3), (5, 3)):
        for n in (1, 2, 3):
            for bounds in product(range(6), repeat=n):
                if sum(bounds) <= max_sum:
                    yield q, bounds


def test_criterion_3_lemma2_exact():
    checked = 0
    ok = True
    for q, bounds in _bound_grid():
        brute = count_P_bruteforce(bounds, q)
        ok = ok and brute == p_count_formula(bounds, q) == p_count_recursive(bounds, q)
        checked += 1
    ok = ok and count_P_bruteforce((1, 1), 2) == 4  # hand anchor: tr A = det A = 0
    grid = "n <= 3, sum <= 5 (<= 3 over F_4 and F_5)"
    _report(3, ok, f"{checked} bound vectors with {grid}, zero tolerance")


def test_criterion_4_recursion_identities_exact():
    checked = 0
    ok = True
    for q, bounds in _bound_grid():
        n = len(bounds)
        for i in range(1, n + 1):
            try:
                expect = q_count_recursive(i, bounds, q)
            except PreconditionViolation:
                continue
            ok = ok and count_QR_bruteforce("Q", i, bounds, q) == expect
            checked += 1
        for i in range(2, n + 1):
            try:
                expect = r_count_recursive(i, bounds, q)
            except PreconditionViolation:
                continue
            ok = ok and count_QR_bruteforce("R", i, bounds, q) == expect
            # (counting1): the R set splits as a disjoint union of Q sets
            ok = ok and expect == sum(
                q_count_recursive(j, bounds, q) for j in range(i, n + 1)
            )
            # Corollary scaling in the first bound, where still valid
            if i >= 2 and bounds[0] >= 1:
                dec = (bounds[0] - 1,) + bounds[1:]
                try:
                    ok = ok and expect == q ** (n - 1) * r_count_recursive(i, dec, q)
                except PreconditionViolation:
                    pass
            checked += 1
    _report(4, ok, f"{checked} identities, zero tolerance")


def test_criterion_5_move_preservation_exact():
    F2 = field_of_order(2)
    two, three = standard_move_fixtures(F2)
    ok = len(two) >= 20 and len(three) == 5
    records = run_move_battery(two + three, k_extra=2)
    ok = ok and all(r.all_equal() for r in records)
    # the orbit-preserving transformations on the same fixtures
    from orbitcount.moves import reduce_above, triangularize

    for m, l0 in two + three:
        ok = ok and same_orbit(m, triangularize(m))
        ok = ok and same_orbit(m, reduce_above(m, l0))
    _report(5, ok, f"{len(records)} move records, k in [t, t+2], zero tolerance")


def test_criterion_6_orbit_independence_exact():
    """Equal-t diagonal representatives have identical censuses at k = 2."""
    buckets, _ = census(2, 2, 2)
    F2 = field_of_order(2)
    ok = True
    pairs = 0
    for t in (0, 1, 2):
        diags = [
            m
            for m in enumerate_hnf_reps(2, 2, t)
            if m.entries[0][1].is_zero()
        ]
        counts = [buckets[m.key()] for m in diags]
        for i in range(len(counts)):
            for j in range(i + 1, len(counts)):
                ok = ok and counts[i] == counts[j]
                pairs += 1
    _report(6, ok, f"{pairs} diagonal pairs at k=2, zero tolerance")


def _random_unimodular(field, n, rng, deg=2):
    """Product of random shears and constant swaps: always unimodular."""
    m = PolyMatrix.identity(field, n)
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        coeffs = [rng.randrange(field.q) for _ in range(deg + 1)]
        f = Poly(field, coeffs)
        rows = [list(r) for r in m.entries]
        rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
        m = PolyMatrix(rows)
    return m


def test_criterion_7_hnf_canonicity_property():
    rng = random.Random(20260823)
    ok = True
    reps = [
        enumerate_hnf_reps(2, 2, 1)[0],
        enumerate_hnf_reps(2, 3, 1)[2],
        enumerate_hnf_reps(3, 2, 1)[1],
    ]
    trials = 0
    for rep in reps:
        fld = rep.field
        n = rep.rows
        for _ in range(1000):
            u = _random_unimodular(fld, n, rng)
            form = hnf(u @ rep)
            ok = ok and form.h == rep
            ok = ok and form.u @ (u @ rep) == form.h
            from orbitcount.polymat import det_constant

            ok = ok and det_constant(form.u) != 0
            trials += 1
            if not ok:
                break
    _report(7, ok, f"{trials} randomized unimodular multiples")


def test_criterion_8_zcase_class_counts_exact():
    reps = hnf_classes_for_det(4)
    ok = len(reps) == 7 and len({snf_int(r) for r in reps}) == 2
    # the same inventory out of the norm-ball enumeration at T = 30
    report = orbit_ratio_experiment(4, 30, ladder=(30,))
    ok = ok and len(report.hnf_counts[30]) == 7
    ok = ok and set(report.hnf_counts[30]) == {hnf_int(r) for r in reps}
    ok = ok and len(report.class_counts[30]) == 2
    _report(8, ok, "7 left classes, 2 two-sided classes, zero tolerance")


def test_criterion_9_zcase_asymptotics_empirical():
    report = orbit_ratio_experiment(4, 200, ladder=(50, 200))
    o_small = ((1, 0), (0, 4))
    o_big = ((2, 0), (0, 2))
    target = 1 / 6
    devs = {}
    for T in (50, 200):
        counts = report.class_counts[T]
        ratio = counts[o_big] / counts[o_small]
        devs[T] = abs(ratio - target)
    ok = devs[200] <= 0.05  # tolerance 1/6 +- 0.05
    ok = ok and devs[200] <= devs[50]  # trend toward the limit
    # exact, zero tolerance: a det-4 matrix with content 2 is twice a det-1
    # matrix of half the norm, so diag(2, 2) at rung L is the det-1 ball at
    # L/2; the census walks the ball and count_det_norm takes the quadric
    # route, so two independent routes meet here
    ok = ok and all(report.class_counts[L][o_big] == count_det_norm(1, L // 2) for L in (50, 200))
    density = count_det_norm(1, 200) / 200**2
    ok = ok and abs(density - 6.0) / 6.0 <= 0.15  # 15% tolerance
    _report(
        9,
        ok,
        f"ratio dev {devs[200]:.4f} @T=200 (<=0.05), density {density:.3f} (6.0 +-15%), "
        "diag(2,2) walk = det-1 quadric count at L/2 exact",
    )
