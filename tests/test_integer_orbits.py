import math

import numpy as np
import pytest

from orbitcount import cli, integer_orbits
from orbitcount.errors import (
    BudgetExceeded,
    InvalidParams,
    MissingZetaValue,
    NonPositiveDeterminant,
    SingularMatrix,
    UnsupportedDimension,
)
from orbitcount.fields import factorize
from orbitcount.integer_orbits import (
    RatioReport,
    _ball_blocks,
    _bezout_table,
    _block_classes,
    count_det_norm,
    det_int,
    drs_constant,
    enumerate_det_norm,
    hnf_classes_for_det,
    hnf_int,
    orbit_ratio_experiment,
    snf_int,
)
from orbitcount.oracle import EnumerationBudget


def frobenius_sq(m) -> int:
    return sum(v * v for row in m for v in row)


def reference_hnf_int(m):
    """The general-n Euclidean Hermite form, kept as the per-matrix reference
    for the 2x2 closed form."""
    m = tuple(tuple(row) for row in m)
    n = len(m)
    if det_int(m) <= 0:
        raise NonPositiveDeterminant(f"det = {det_int(m)} must be positive")
    h = [list(row) for row in m]
    for c in range(n):
        while True:
            live = [i for i in range(c, n) if h[i][c]]
            piv = min(live, key=lambda i: abs(h[i][c]))
            if piv != c:
                h[c], h[piv] = h[piv], h[c]
                h[piv] = [-v for v in h[piv]]  # keep the transform in SL
            below = [i for i in range(c + 1, n) if h[i][c]]
            if not below:
                break
            for i in below:
                q = h[i][c] // h[c][c]
                h[i] = [a - q * b for a, b in zip(h[i], h[c])]
    # positive diagonal (n is even-swappable; fix sign pairwise via -1 rows)
    for c in range(n):
        if h[c][c] < 0:
            # flip this row and the next negative one to stay in SL; with
            # det > 0 the number of negative diagonal entries is even
            other = next(j for j in range(c + 1, n) if h[j][j] < 0)
            h[c] = [-v for v in h[c]]
            h[other] = [-v for v in h[other]]
    # reduce above-diagonal entries into [0, d_c)
    for c in range(1, n):
        for i in range(c):
            q = h[i][c] // h[c][c]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[c])]
    return tuple(tuple(row) for row in h)


def reference_snf_int(m):
    """The general-n Smith form by pivot moves and a divisibility-chain pass,
    kept as the per-matrix reference for the 2x2 closed form."""
    m = tuple(tuple(row) for row in m)
    n = len(m)
    if det_int(m) == 0:
        raise SingularMatrix("Smith form requested for a singular matrix")
    a = [list(row) for row in m]
    for t in range(n):
        while True:
            # move a minimal nonzero entry of the trailing block to (t, t)
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            done = True
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        done = False
            if done:
                break
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
    # enforce the divisibility chain
    for t in range(n - 1):
        for j in range(t + 1, n):
            while a[j][j] % a[t][t]:
                g = math.gcd(a[t][t], a[j][j])
                a[j][j] = a[t][t] * a[j][j] // g
                a[t][t] = g
    return tuple(tuple(a[i][j] if i == j else 0 for j in range(n)) for i in range(n))


def test_det_int():
    assert det_int(((2, 3), (0, 2))) == 4
    with pytest.raises(UnsupportedDimension):
        det_int(((1, 2, 3), (4, 5, 6), (7, 8, 10)))
    with pytest.raises(UnsupportedDimension):
        det_int(((5,),))


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


def test_forms_reject_every_shape_but_2x2():
    shapes = [((5,),), ((2, 0, 0), (0, 6, 0), (0, 0, 10)), ((1, 2), (3,)), ((1, 2, 0), (0, 1, 0))]
    for m in shapes:
        for form in (hnf_int, snf_int):
            with pytest.raises(UnsupportedDimension):
                form(m)


def test_closed_forms_match_euclidean_reference():
    """Every matrix of the norm ball at T = 40 (hence every T <= 40), both
    forms against the general-n Euclidean loops; Smith also for det < 0."""
    checked = 0
    for det_value in (1, 2, 3, 4, 6, 12):
        for m in enumerate_det_norm(2, det_value, 40):
            assert hnf_int(m) == reference_hnf_int(m), m
            assert snf_int(m) == reference_snf_int(m), m
            checked += 1
    for det_value in (-1, -2, -4, -6, -12):
        for m in enumerate_det_norm(2, det_value, 40):
            assert snf_int(m) == reference_snf_int(m), m
            checked += 1
    assert checked == 95244 + 82412


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


def test_class_listing_is_budgeted_by_the_divisor_sum():
    assert len(hnf_classes_for_det(4, EnumerationBudget(7))) == 7
    with pytest.raises(BudgetExceeded):
        hnf_classes_for_det(4, EnumerationBudget(6))
    assert hnf_classes_for_det(1, EnumerationBudget(1)) == [((1, 0), (0, 1))]


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


def reference_enumerate_det_norm(det_value, T):
    """The earlier two-branch loop (a separate a = 0 branch with its own
    b = 0 sub-branch and d-loop), kept as the order-exact reference for
    enumerate_det_norm."""
    T2 = T * T
    side = np.arange(-T, T + 1)
    for a in range(-T, T + 1):
        ra = T2 - a * a
        if ra < 0:
            continue
        if a == 0:
            for b in side:
                b = int(b)
                if b * b > ra:
                    continue
                if b == 0:
                    if det_value != 0:
                        continue
                    for c in side:
                        c = int(c)
                        rc = ra - c * c
                        if rc < 0:
                            continue
                        dmax = math.isqrt(rc)
                        for d in range(-dmax, dmax + 1):
                            yield ((0, b), (c, d))
                    continue
                if det_value % b:
                    continue
                c = -det_value // b
                rc = ra - b * b - c * c
                if rc < 0:
                    continue
                dmax = math.isqrt(rc)
                for d in range(-dmax, dmax + 1):
                    yield ((0, b), (c, d))
            continue
        bmax = math.isqrt(ra)
        bs = np.arange(-bmax, bmax + 1)
        for b in bs:
            b = int(b)
            rb = ra - b * b
            cmax = math.isqrt(rb)
            cs = np.arange(-cmax, cmax + 1)
            num = det_value + b * cs
            ok = num % a == 0
            ds = num[ok] // a
            csel = cs[ok]
            within = ds * ds <= rb - csel * csel
            for c, d in zip(csel[within], ds[within]):
                yield ((a, b), (int(c), int(d)))


def test_enumerate_det_norm_matches_reference_in_order():
    points = 0
    for det_value in [*range(-12, 13), 36, 100]:
        for T in (1, 2, 3, 5, 8, 13, 21, 30):
            got = list(enumerate_det_norm(2, det_value, T))
            assert got == list(reference_enumerate_det_norm(det_value, T)), (det_value, T)
            assert all(type(v) is int for m in got for row in m for v in row)
            points += len(got)
    assert points == 417748


def test_enumeration_matches_reference_across_row_groups(monkeypatch):
    """Slabs of one (a, b) pair (every row is a slab of its own, since every
    row holds the pair b = 0) and of 7 pairs (rows near the rim join up)
    keep the walk's order; some block of the 7-pair walk holds more than
    one row."""
    multi_row = 0
    for det_value in [*range(-12, 13), 36, 100]:
        for T in (1, 2, 3, 5, 8, 13, 21, 30):
            want = list(reference_enumerate_det_norm(det_value, T))
            for size in (1, 7):
                monkeypatch.setattr(integer_orbits, "_SLAB_PAIRS", size)
                assert list(enumerate_det_norm(2, det_value, T)) == want, (size, det_value, T)
                blocks = _ball_blocks(det_value, T, _bezout_table(T))
                rows = [np.unique(a).size for a, *_ in blocks]
                assert size == 7 or max(rows, default=0) <= 1, (det_value, T)
                multi_row += size == 7 and max(rows, default=0) > 1
    assert multi_row
    monkeypatch.undo()
    assert sum(1 for _ in _ball_blocks(4, 200, _bezout_table(200))) > 1


def test_ball_blocks_are_slabs_of_ascending_rows():
    """Each block is a run of ascending rows that no other block shares, and
    the blocks hold exactly the ball's points of determinant det: as many
    as the quadric route counts."""
    for det_value in [*range(-12, 13), 36, 100]:
        for T in (1, 2, 5, 13, 30, 64, 121, 200):
            bezout, last, total = _bezout_table(T), None, 0
            for a, b, c, d in _ball_blocks(det_value, T, bezout):
                if not a.size:
                    continue
                assert (np.diff(a) >= 0).all(), (det_value, T)
                assert last is None or last < a[0], (det_value, T)
                assert (a * d - b * c == det_value).all(), (det_value, T)
                last, total = a[-1], total + a.size
            assert total == count_det_norm(det_value, T), (det_value, T)


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
        list(enumerate_det_norm(2, 1, 10**4, EnumerationBudget(100)))


def test_all_seven_classes_appear_by_T30():
    report = orbit_ratio_experiment(4, 30, ladder=(30,))
    assert len(report.hnf_counts[30]) == 7
    assert len(report.class_counts[30]) == 2


def test_smith_diag_2_2_is_twice_the_det_1_ball():
    # a det-4 matrix with content 2 is 2 * (a det-1 matrix), and its norm
    # halves, so the class diag(2, 2) at T = 60 is the det-1 ball at T = 30
    report = orbit_ratio_experiment(4, 60, ladder=(60,))
    assert report.class_counts[60][((2, 0), (0, 2))] == count_det_norm(1, 30) == 5156


def test_enumerate_rejects_budget_below_1():
    for budget_items in (0, -1):
        with pytest.raises(InvalidParams):
            list(enumerate_det_norm(2, 4, 10, EnumerationBudget(budget_items)))


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
    # past the float range k and sigma(k) stay exact: 6 sigma(k) / k is 15 at
    # 10^400 and 12 at 2^1100 up to rounding
    for k, sigma in ((10**400, (2**401 - 1) * (5**401 - 1) // 4), (2**1100, 2**1101 - 1)):
        assert drs_constant(2, k) == pytest.approx(6 * sigma / k)


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


def test_det_past_the_ball_has_no_matrix():
    # |ad - bc| <= (a^2 + b^2 + c^2 + d^2) / 2, so 2|D| > T^2 leaves none
    assert count_det_norm(10**20, 5) == 0
    assert count_det_norm(-(10**20), 5) == 0


def reference_orbit_ratio_experiment(det_value, T, ladder=None):
    """The per-matrix census (one hnf_int and one snf_int call per point of
    the ball), kept as the reference for the batched classification."""
    ladder = tuple(sorted(set(ladder or ()) | {T}))
    class_counts = {L: {} for L in ladder}
    hnf_counts = {L: {} for L in ladder}
    for m in enumerate_det_norm(2, det_value, max(ladder)):
        s, h, nsq = snf_int(m), hnf_int(m), frobenius_sq(m)
        for L in ladder:
            if nsq <= L * L:
                class_counts[L][s] = class_counts[L].get(s, 0) + 1
                hnf_counts[L][h] = hnf_counts[L].get(h, 0) + 1
    return RatioReport(det_value, ladder, class_counts, hnf_counts)


def test_block_classes_match_euclidean_reference_pointwise():
    """The batched Smith and Hermite keys of every matrix of the T = 40 ball,
    point by point, against the general-n Euclidean loops."""
    bezout = _bezout_table(40)
    checked = 0
    for det_value in (1, 2, 3, 4, 6, 12):
        for a, b, c, d in _ball_blocks(det_value, 40, bezout):
            if not a.size:
                continue
            g, g1, corner = _block_classes(a, b, c, d, det_value, bezout)
            rows = zip(*(v.tolist() for v in (a, b, c, d, g, g1, corner)))
            for a_, b_, c_, d_, g_, g1_, h_ in rows:
                m = ((a_, b_), (c_, d_))
                assert ((g_, 0), (0, det_value // g_)) == reference_snf_int(m), m
                assert ((g1_, h_), (0, det_value // g1_)) == reference_hnf_int(m), m
                checked += 1
    assert checked == 95244


def test_bezout_table_is_gcd_and_inverse():
    gcds, invs = _bezout_table(30)
    m, r = np.meshgrid(np.arange(1, 31), np.arange(30), indexing="ij")
    assert (gcds[1:] == np.gcd(r, m)).all()
    assert ((invs[1:] * r - gcds[1:]) % m == 0).all()


RATIO_CASES = [(4, 60, [15, 30]), (12, 40, None), (6, 41, None), (1, 30, None)]


@pytest.mark.parametrize("det_value, T, ladder", RATIO_CASES)
def test_ratio_experiment_matches_per_matrix_reference(det_value, T, ladder):
    got = orbit_ratio_experiment(det_value, T, ladder)
    want = reference_orbit_ratio_experiment(det_value, T, ladder)
    assert got == want
    assert got.to_json() == want.to_json()
    assert all(type(v) is int for d in got.class_counts.values() for v in d.values())


def test_ratio_experiment_matches_reference_across_row_groups(monkeypatch):
    for det_value, T, ladder in RATIO_CASES:
        want = reference_orbit_ratio_experiment(det_value, T, ladder)
        for size in (1, 7):
            monkeypatch.setattr(integer_orbits, "_SLAB_PAIRS", size)
            assert orbit_ratio_experiment(det_value, T, ladder) == want, (size, det_value, T)


def mobius(h):
    exps = factorize(h).values() if h > 1 else ()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def test_smith_classes_are_content_times_primitive_counts():
    """A det-D matrix with content g is g times a primitive matrix, so by
    Moebius inversion over the content the Smith class diag(g, D/g) at T
    holds sum over h^2 | D/g^2 of mu(h) N_{D/(gh)^2}(T/(gh)), exactly; every
    gh divides T = 72 here, so T/(gh) is the exact norm bound."""
    T, classes = 72, 0
    for D in (4, 8, 9, 12, 16, 18, 36):
        report = orbit_ratio_experiment(D, T, ladder=(T,))
        for ((g, _), _), count in report.class_counts[T].items():
            want = 0
            for h in range(1, math.isqrt(D // (g * g)) + 1):
                if (D // (g * g)) % (h * h) == 0:
                    assert T % (g * h) == 0
                    want += mobius(h) * count_det_norm(D // (g * h) ** 2, T // (g * h))
            assert count == want, (D, g)
            classes += 1
    assert classes == 17


def walk_count(det_value, T):
    """N_D(T) as the sizes of the ball walk's blocks: the reference for the
    quadric route of ``count_det_norm``."""
    return sum(a.size for a, *_ in _ball_blocks(det_value, T, _bezout_table(T)))


@pytest.mark.parametrize("det_value, T, expect", [
    (1, 2, 20), (4, 4, 68), (4, 30, 9372), (4, 60, 37468), (1, 120, 86116),
    (6, 41, 20320), (1, 200, None), (4, 200, None),
])
def test_quadric_route_matches_the_ball_walk(det_value, T, expect):
    n = count_det_norm(det_value, T)
    assert walk_count(det_value, T) == n
    if expect is not None:
        assert n == expect


def test_quadric_route_matches_the_ball_walk_on_every_small_ball():
    mismatches = [(D, T) for D in range(-13, 14) for T in range(1, 26)
                  if count_det_norm(D, T) != walk_count(D, T)]
    assert mismatches == []


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


def test_count_det_norm_refuses_bad_T_and_over_budget_balls(monkeypatch, capsys):
    monkeypatch.setattr(integer_orbits, "np", _NoNumpy())  # refusals build no array
    for T in (0, -3):
        with pytest.raises(InvalidParams):
            count_det_norm(4, T)
    with pytest.raises(BudgetExceeded):
        count_det_norm(1, 10**4, EnumerationBudget(100))
    with pytest.raises(BudgetExceeded):
        count_det_norm(1, 300)  # 601^3 > the default budget 10^8
    # the CLI's zcase ratio walks the same ball: exit 2 and exit 3
    assert cli.main(["zcase", "ratio", "--det", "4", "--T", "0"]) == 2
    assert cli.main(["zcase", "ratio", "--det", "4", "--T", "300"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_det_past_the_ball_returns_before_any_array(monkeypatch):
    monkeypatch.setattr(integer_orbits, "np", _NoNumpy())
    assert count_det_norm(10**20, 5) == 0
    assert count_det_norm(-(10**20), 5) == 0
