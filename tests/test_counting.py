from itertools import product

import pytest

from orbitcount.counting import (
    CountReport,
    _compositions,
    c_nt,
    clear_caches,
    gl_count,
    orbit_count_formula,
    p_count_formula,
    p_count_recursive,
    q_count_recursive,
    r_count_recursive,
    total_count_formula,
)
from orbitcount.errors import BoundTooSmall, InvalidParams, PreconditionViolation
from orbitcount.oracle import enumerate_hnf_reps


def test_gl_count_values():
    assert gl_count(1, 2) == 1
    assert gl_count(2, 2) == 6
    assert gl_count(2, 3) == 48
    assert gl_count(3, 2) == 168
    assert gl_count(2, 4) == 180


def test_gl_count_rejects_bad_params():
    with pytest.raises(InvalidParams):
        gl_count(0, 2)
    with pytest.raises(InvalidParams):
        gl_count(2, 1)


def test_orbit_count_anchors():
    assert orbit_count_formula(2, 2, 1, 1) == 12
    assert orbit_count_formula(2, 2, 0, 1) == 24
    assert orbit_count_formula(2, 2, 2, 2) == 24
    assert orbit_count_formula(3, 2, 0, 1) == 10752
    assert orbit_count_formula(2, 3, 0, 1) == 48 * 9


def test_orbit_count_refuses_small_bound():
    with pytest.raises(BoundTooSmall):
        orbit_count_formula(2, 2, 3, 2)
    with pytest.raises(InvalidParams):
        orbit_count_formula(2, 2, -1, 2)


def test_orbit_count_at_k_equals_t_depends_only_on_t_parity_free():
    # at k = t the count is #GL * q^((n-1)(n-1)t)
    for n, q, t in product((2, 3), (2, 3), (0, 1, 2)):
        assert orbit_count_formula(n, q, t, t) == gl_count(n, q) * q ** (
            (n - 1) * (n - 1) * t
        )


def test_c_nt_values():
    assert c_nt(2, 2, 0) == 1
    assert c_nt(2, 2, 1) == 6
    assert c_nt(2, 2, 2) == 28
    assert c_nt(2, 3, 1) == 12
    assert c_nt(3, 2, 1) == 14


def test_c_nt_multiplies_out_min_t_n_minus_1_factors():
    # n = 1 has one canonical form per degree, q^t: no Gaussian factor at all
    assert c_nt(1, 2, 14000) == 2**14000


def test_c_nt_is_a_sum_over_compositions():
    # spell out t = 2, n = 2: (2,0) -> q^2, (1,1) -> q^3, (0,2) -> q^4
    q = 3
    assert c_nt(2, q, 2) == q**2 + q**3 + q**4


def reference_c_nt(n, q, t):
    """The sum over compositions of t into n parts, kept as the reference
    for the closed form of c_nt."""
    return sum(
        q ** sum((i + 1) * ti for i, ti in enumerate(parts)) for parts in _compositions(t, n)
    )


def test_c_nt_closed_form_matches_compositions_sum():
    for n, q, t in product(range(1, 6), (2, 3, 4, 5, 7, 8, 9), range(8)):
        assert c_nt(n, q, t) == reference_c_nt(n, q, t), (n, q, t)


def test_c_nt_counts_the_canonical_forms():
    for n, q, t in [(1, 2, 3), (2, 2, 2), (2, 3, 2), (2, 4, 1), (3, 2, 2), (3, 3, 1), (4, 2, 1)]:
        assert len(enumerate_hnf_reps(n, q, t)) == c_nt(n, q, t) == reference_c_nt(n, q, t)


def test_total_count_anchors():
    assert total_count_formula(2, 2, 0, 1) == 24
    assert total_count_formula(2, 2, 1, 1) == 72
    assert total_count_formula(2, 2, 2, 2) == 672


def test_total_scales_by_fixed_factor_in_k():
    # raising k by one multiplies every orbit by q^(n(n-1))
    for n, q, t in product((2, 3), (2, 3), (0, 1)):
        for k in (t, t + 1):
            assert total_count_formula(n, q, t, k + 1) == total_count_formula(
                n, q, t, k
            ) * q ** (n * (n - 1))


def test_p_formula_anchor_hand_derivation():
    # bounds (1,1), q=2: V = I + x*A with det constant forces tr A = det A = 0;
    # over F_2 that is 4 of the 16 matrices
    assert p_count_formula((1, 1), 2) == 4
    assert p_count_formula((1, 0), 3) == 3
    assert p_count_formula((1, 1, 1), 2) == 64


def test_p_recursive_matches_formula_on_grid():
    for q in (2, 3):
        for n in (1, 2, 3, 4):
            for bounds in product(range(4), repeat=n):
                if sum(bounds) <= 6:
                    assert p_count_recursive(bounds, q) == p_count_formula(bounds, q)


def test_p_recursive_takes_large_bounds_without_recursion_error():
    # one step per unit of the bounds: these walked past the stack limit
    # when each step was a recursive call
    assert p_count_recursive((200, 200, 200), 9) == p_count_formula((200, 200, 200), 9)
    assert p_count_recursive((2000, 2000), 2) == p_count_formula((2000, 2000), 2)


def test_p_recursive_permutation_invariant():
    assert p_count_recursive((2, 1, 0), 3) == p_count_recursive((0, 1, 2), 3)


def test_p_bad_bounds():
    with pytest.raises(InvalidParams):
        p_count_formula((), 2)
    with pytest.raises(InvalidParams):
        p_count_recursive((1, -1), 2)


@pytest.mark.parametrize("q, message", [(6, "not a prime power"), (1, "q >= 2"), (0, "q >= 2")])
def test_p_q_r_counts_refuse_a_q_with_no_field(q, message):
    """Like c_nt and gl_count: a q that is no prime power names no F_q."""
    for count in (
        lambda: p_count_formula((1, 1), q),
        lambda: p_count_recursive((1, 1), q),
        lambda: q_count_recursive(1, (2, 1), q),
        lambda: r_count_recursive(2, (2, 1), q),
    ):
        with pytest.raises(InvalidParams, match=message):
            count()


def _valid_r_indices(bounds):
    n = len(bounds)
    for i in range(2, n + 1):
        tail = bounds[i - 1 :]
        if all(b >= 1 for b in tail) and all(
            tail[j] >= tail[j + 1] for j in range(len(tail) - 1)
        ):
            yield i


def test_counting1_disjoint_union():
    """#R^i = sum of #Q^j for j in [i, n]."""
    for q in (2, 3):
        for bounds in [(1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1)]:
            n = len(bounds)
            for i in _valid_r_indices(bounds):
                total = sum(q_count_recursive(j, bounds, q) for j in range(i, n + 1))
                assert r_count_recursive(i, bounds, q) == total


def test_corollary_scaling():
    """#R^i(l_1, ...) = q^(n-1) * #R^i(l_1 - 1, ...) when column 1 stays >= 1
    and out of the tail."""
    for q in (2, 3):
        for bounds in [(2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2, 1)]:
            n = len(bounds)
            dec = (bounds[0] - 1,) + bounds[1:]
            if bounds[0] < 1:
                continue
            for i in _valid_r_indices(bounds):
                if i <= 1:
                    continue
                lhs = r_count_recursive(i, bounds, q)
                try:
                    rhs = r_count_recursive(i, dec, q)
                except PreconditionViolation:
                    continue
                assert lhs == q ** (n - 1) * rhs


def test_r_equals_q_at_last_index():
    for q in (2, 3):
        for bounds in [(1, 1), (2, 2), (1, 1, 1)]:
            n = len(bounds)
            assert r_count_recursive(n, bounds, q) == q_count_recursive(n, bounds, q)
            assert r_count_recursive(n, bounds, q) == p_count_recursive(
                bounds[:-1] + (bounds[-1] - 1,), q
            )


def test_precondition_violations():
    with pytest.raises(PreconditionViolation):
        r_count_recursive(1, (1, 1), 2)  # r starts at 2
    with pytest.raises(PreconditionViolation):
        r_count_recursive(2, (1, 0), 2)  # zero in the tail
    with pytest.raises(PreconditionViolation):
        r_count_recursive(2, (1, 1, 2), 2)  # increasing tail
    with pytest.raises(PreconditionViolation):
        q_count_recursive(4, (1, 1), 2)


def test_memoization_purity():
    a = p_count_recursive((3, 2, 1), 3)
    b = r_count_recursive(2, (2, 2, 1), 2)
    clear_caches()
    assert p_count_recursive((3, 2, 1), 3) == a
    assert r_count_recursive(2, (2, 2, 1), 2) == b


def test_count_report_consistency():
    r = CountReport.compare({"n": 2}, 12, 12)
    assert r.match is True
    assert r.to_json()["formula_value"] == "12"
    with pytest.raises(InvalidParams):
        CountReport({"n": 2}, 12, 13, True)
    with pytest.raises(InvalidParams):
        CountReport({"n": 2}, 12, 13)


def test_counts_are_exact_integers_at_larger_sizes():
    v = orbit_count_formula(4, 5, 3, 6)
    assert isinstance(v, int)
    assert v == gl_count(4, 5) * 5 ** (3 * (4 * 6 - 3))


def test_q_must_be_a_prime_power():
    for q in (6, 10, 12, 15, 36):
        with pytest.raises(InvalidParams):
            gl_count(2, q)
        with pytest.raises(InvalidParams):
            orbit_count_formula(2, q, 0, 1)
    for q in (2, 4, 8, 9, 25, 27, 49, 7919):
        assert gl_count(1, q) == q - 1
