from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from orbitcount.errors import (
    BothZero,
    DivisionByZero,
    InvalidParams,
    MixedFields,
    NegativeCutoff,
)
from orbitcount.fields import field_of_order, prime_field
from orbitcount.poly import NEG_INF, Poly, _submul, poly_gcd, poly_xgcd, truncate_low

F2 = field_of_order(2)
F3 = field_of_order(3)
F4 = field_of_order(4)
F8 = field_of_order(8)
F9 = field_of_order(9)
F509 = field_of_order(509)


def p2(*c):
    return Poly(F2, c)


def polys(field, max_deg=5):
    return st.lists(
        st.integers(0, field.q - 1), min_size=0, max_size=max_deg + 1
    ).map(lambda cs: Poly(field, cs))


# -- the ring operations one coefficient at a time, on GF's scalar methods:
# the slow path that poly._submul replaced, kept as its reference


def reference_add(a, b):
    f = a.field
    x, y = a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] = f.add(out[i], c)
    return Poly(f, out)


def reference_neg(a):
    f = a.field
    return Poly(f, [f.neg(c) for c in a.coeffs])


def reference_sub(a, b):
    f = a.field
    x, y = a.coeffs, b.coeffs
    out = list(x) + [0] * (len(y) - len(x))
    for i, c in enumerate(y):
        out[i] = f.sub(out[i], c)
    return Poly(f, out)


def reference_mul(a, b):
    f = a.field
    x, y = a.coeffs, b.coeffs
    out = [0] * max(0, len(x) + len(y) - 1)
    for i, cx in enumerate(x):
        for j, cy in enumerate(y):
            out[i + j] = f.add(out[i + j], f.mul(cx, cy))
    return Poly(f, out)


def reference_scale(a, c):
    f = a.field
    return Poly(f, [f.mul(c, v) for v in a.coeffs])


def reference_submul(field, a, c, b):
    """a - c·b on coefficient lists, as the normalised tuple _submul returns."""
    return reference_sub(Poly(field, a), reference_mul(Poly(field, c), Poly(field, b))).coeffs


KERNEL_FIELDS = [F2, F3, F4, F8, F9, F509]


@st.composite
def submul_operands(draw):
    """(field, a, c, b): coefficient lists of up to 6 entries, trailing zeros
    and empty lists included; half the time a agrees with c·b above its j
    lowest coefficients, so that a - c·b cancels down to degree < j (to 0
    for j = 0)."""
    f = draw(st.sampled_from(KERNEL_FIELDS))
    coeffs = st.lists(st.integers(0, f.q - 1), max_size=6)
    a, c, b = draw(coeffs), draw(coeffs), draw(coeffs)
    if draw(st.booleans()):
        prod = list(reference_mul(Poly(f, c), Poly(f, b)).coeffs)
        j = draw(st.integers(0, len(prod)))
        a = draw(st.lists(st.integers(0, f.q - 1), min_size=j, max_size=j)) + prod[j:]
    return f, a, c, b


@settings(max_examples=400, deadline=None)
@given(submul_operands())
@example((F3, [], [], []))
@example((F4, [], [2, 3], [1, 0, 3]))
@example((F9, [4, 7], [], [5, 1]))
@example((F509, [1, 2], [3], []))
@example((F8, [0, 6, 5], [1, 1], [0, 6]))
def test_submul_matches_the_reference(ops):
    f, a, c, b = ops
    args = [list(a), list(c), list(b)]
    got = _submul(f, *args)
    assert got == list(reference_submul(f, a, c, b))  # normalised: no trailing zero
    assert args == [a, c, b]  # no argument is written to


@settings(max_examples=400, deadline=None)
@given(submul_operands())
@example((F3, [], [], []))
@example((F509, [], [7], [1, 508]))
def test_ring_ops_match_the_reference(ops):
    """Poly add, sub, neg, mul and scale against the per-coefficient loops,
    on pairs whose sum or difference cancels to a lower degree or to 0."""
    f, a, c, b = ops
    x, y = Poly(f, a), Poly(f, b)
    w = reference_mul(Poly(f, c), y)  # x agrees with w at the top half the time
    for u, v in ((x, y), (x, w), (x, reference_neg(w)), (y, y)):
        assert u + v == reference_add(u, v)
        assert u - v == reference_sub(u, v)
        assert u * v == reference_mul(u, v)
    assert -x == reference_neg(x)
    for s in {0, 1, f.q - 1, *c}:
        assert x.scale(s) == reference_scale(x, s)


def test_normalization_and_degree():
    assert Poly(F2, (1, 1, 0, 0)).coeffs == (1, 1)
    assert Poly(F2, ()).degree == NEG_INF
    assert Poly(F2, (0, 0)).is_zero()
    assert p2(0, 1).degree == 1
    assert Poly(F3, (2, 0, 1)).lc == 1
    assert Poly(F3, ()).lc == 0


def test_degree_of_zero_below_everything():
    assert NEG_INF < -(10**9)
    assert Poly(F2, ()).degree <= 0  # degree bound predicates need no branch


def test_safe_indexing():
    f = p2(1, 0, 1)
    assert f[0] == 1 and f[1] == 0 and f[2] == 1
    assert f[5] == 0 and f[-1] == 0


@given(polys(F3), polys(F3), polys(F3))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Poly.zero(F3)
    assert (a - b) + b == a


@given(polys(F2), polys(F2))
def test_mul_degree_additive(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).degree == a.degree + b.degree


@given(polys(F3, 6), polys(F3, 4))
def test_divmod_identity(f, g):
    if g.is_zero():
        with pytest.raises(DivisionByZero):
            divmod(f, g)
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_divmod_examples():
    # (x^2 + 1) = (x + 1)(x + 1) over F_2
    q, r = divmod(p2(1, 0, 1), p2(1, 1))
    assert q == p2(1, 1) and r.is_zero()
    q, r = divmod(Poly(F3, (1, 0, 1)), Poly(F3, (1, 1)))
    assert q * Poly(F3, (1, 1)) + r == Poly(F3, (1, 0, 1))


def test_gcd_exhaustive_low_degree_f2():
    """gcd against a direct common-divisor search, all pairs of degree <= 3."""
    all_polys = [Poly(F2, c) for c in product(range(2), repeat=4)]
    nonzero = [f for f in all_polys if not f.is_zero()]
    for f in all_polys:
        for g in nonzero:
            d = poly_gcd(f, g)
            assert (f % d).is_zero() or f.is_zero()
            assert (g % d).is_zero()
            best = max(
                (h for h in nonzero if (f.is_zero() or (f % h).is_zero()) and (g % h).is_zero()),
                key=lambda h: h.degree,
            )
            assert d.degree == best.degree
            assert d.lc == 1


@given(polys(F3), polys(F3))
def test_xgcd_bezout(f, g):
    if f.is_zero() and g.is_zero():
        with pytest.raises(BothZero):
            poly_xgcd(f, g)
        return
    d, s, t = poly_xgcd(f, g)
    assert s * f + t * g == d
    assert d.lc == 1


def test_gcd_of_two_zeros_rejected():
    with pytest.raises(BothZero):
        poly_gcd(Poly(F2, ()), Poly(F2, ()))


def test_truncate_low():
    f = Poly(F3, (1, 2, 0, 1, 2))
    assert truncate_low(f, 2) == Poly(F3, (1, 2))
    assert truncate_low(f, 0) == Poly(F3, (1,))
    assert truncate_low(f, 10) == f
    assert truncate_low(Poly(F3, ()), 3).is_zero()
    with pytest.raises(NegativeCutoff):
        truncate_low(f, -1)


@given(polys(F2, 6), st.integers(0, 8))
def test_truncation_splits_polynomial(f, u):
    low = truncate_low(f, u)
    high = f - low
    assert low.degree <= u
    assert high.is_zero() or high.degree > u
    assert low + high == f


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        p2(1) + Poly(F3, (1,))
    with pytest.raises(MixedFields):
        poly_gcd(p2(1, 1), Poly(F3, (1, 1)))


def test_coefficients_outside_the_field_are_rejected():
    """Poly takes field elements as they are; from_ints is the constructor
    that reduces.  Each case once gave a wrong answer or a bare IndexError:
    7 * 2 over F_5 indexed past the tables, and -1 over F_4 read as 3 in a
    product or stayed -1 through a sum."""
    F5 = prime_field(5)
    with pytest.raises(InvalidParams):
        Poly(F5, [7]) * Poly(F5, [2])
    with pytest.raises(InvalidParams):
        Poly(F4, [-1]) * Poly.one(F4)
    with pytest.raises(InvalidParams):
        Poly(F4, [-1]) + Poly.zero(F4)
    assert Poly.from_ints(F5, [7]) * Poly(F5, [2]) == Poly(F5, [4])
    assert Poly(F4, [3, 0, 0]).coeffs == (3,)


def test_monic():
    f = Poly(F3, (1, 2))
    assert f.monic().lc == 1
    assert f.monic() == Poly(F3, (2, 1))
    assert Poly(F3, ()).monic().is_zero()


def test_extension_field_arithmetic_sanity():
    # in F_4 with x^2+x+1, element 2 is the power-basis generator g with g^2 = g+1 = 3
    a = Poly(F4, (2,))
    assert (a * a) == Poly(F4, (3,))
    f = Poly(F4, (2, 1))
    q, r = divmod(f * f, f)
    assert q == f and r.is_zero()
