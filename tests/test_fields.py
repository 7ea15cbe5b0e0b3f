import contextlib
import hashlib
import random
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitcount.errors import (
    BudgetExceeded,
    DivisionByZero,
    InvalidParams,
    NonPrimeCharacteristic,
    ReducibleModulus,
    UnsupportedSize,
)
from orbitcount.fields import (
    GF,
    _build_tables,
    digits,
    factorize,
    field_of_order,
    field_spec,
    prime_field,
    tables,
)
from orbitcount.poly import Poly


SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9]


@pytest.fixture(params=SMALL_ORDERS)
def fld(request):
    return field_of_order(request.param)


def test_field_axioms_exhaustive(fld):
    """Associativity, commutativity, distributivity, identities, inverses,
    checked over every pair (and triple where cheap)."""
    q = fld.q
    els = list(fld.elements())
    for a in els:
        assert fld.add(a, 0) == a
        assert fld.mul(a, 1) == a
        assert fld.add(a, fld.neg(a)) == 0
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
    for a in els:
        for b in els:
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            assert 0 <= fld.add(a, b) < q
            assert 0 <= fld.mul(a, b) < q
    trip = els if q <= 5 else els[:4]
    for a in trip:
        for b in trip:
            for c in trip:
                assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
                assert fld.mul(a, fld.add(b, c)) == fld.add(
                    fld.mul(a, b), fld.mul(a, c)
                )


def test_units_have_multiplicative_order_dividing_q_minus_1(fld):
    for a in fld.units():
        acc = 1
        for _ in range(fld.q - 1):
            acc = fld.mul(acc, a)
        assert acc == 1


def test_characteristic(fld):
    acc = 0
    for _ in range(fld.p):
        acc = fld.add(acc, 1)
    assert acc == 0


def test_div_matches_mul_inv(fld):
    for a in fld.elements():
        for b in fld.units():
            assert fld.div(a, b) == fld.mul(a, fld.inv(b))


def test_division_by_zero():
    f = prime_field(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.div(3, 0)


def test_nonprime_characteristic_rejected():
    for p in (1, 4, 6, 9, 15):
        with pytest.raises(NonPrimeCharacteristic):
            GF(p)


def test_characteristic_0_with_a_modulus_rejected():
    """A modulus is reduced mod p only for p >= 2, so p = 0 is refused as
    not prime, with or without an extension degree, not divided by."""
    for e, modulus in ((2, [1, 1, 1]), (1, [1, 1])):
        with pytest.raises(NonPrimeCharacteristic, match="characteristic 0 is not prime"):
            field_spec(0, e, modulus)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        GF(2, 2, (1, 0, 1))
    # x^2 factors trivially
    with pytest.raises(ReducibleModulus):
        GF(3, 2, (0, 0, 1))


def test_modulus_shape_validation():
    with pytest.raises(ReducibleModulus):
        GF(2, 2)  # missing modulus
    with pytest.raises(ReducibleModulus):
        GF(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ReducibleModulus):
        GF(2, 1, (1, 1, 1))  # prime field takes none


def test_size_cap():
    with pytest.raises(UnsupportedSize):
        GF(521)
    with pytest.raises(UnsupportedSize):
        GF(2, 10, tuple([1] + [0] * 9 + [1]))


@pytest.mark.parametrize("q", [6, 1, 0, 12])
def test_field_of_order_refuses_a_q_that_is_not_a_prime_power(q):
    with pytest.raises(InvalidParams, match=f"^q = {q} is not a prime power, so F_q does not exist$"):
        field_of_order(q)


@pytest.mark.parametrize("q", [16, 25])
def test_field_of_order_refuses_a_prime_power_it_ships_no_modulus_for(q):
    with pytest.raises(UnsupportedSize, match=f"no default construction for q = {q}"):
        field_of_order(q)


def test_field_spec_caching_and_equality():
    assert field_spec(2) is field_spec(2)
    assert field_spec(2, 2, (1, 1, 1)) is field_spec(2, 2, (1, 1, 1))
    assert field_spec(2) == GF(2)
    assert field_spec(2) != field_spec(3)


def test_json_round_trip(fld):
    assert GF.from_json(fld.to_json()) == fld


def test_extension_field_generator_covers_units():
    f9 = field_of_order(9)
    seen = set()
    acc = 1
    g = reference_tables(3, 2, (1, 0, 1))[0][1]
    for _ in range(8):
        acc = f9.mul(acc, g)
        seen.add(acc)
    assert seen == set(range(1, 9))


@pytest.mark.parametrize("q", [4, 8, 9])
def test_extension_neg_and_sub_are_digitwise(q):
    fld = field_of_order(q)

    def pack(ds):
        return sum(d * fld.p**i for i, d in enumerate(ds))

    for a in fld.elements():
        da = digits(a, fld.p, fld.e)
        assert fld.neg(a) == pack([-d % fld.p for d in da])
        for b in fld.elements():
            db = digits(b, fld.p, fld.e)
            assert fld.sub(a, b) == pack([(x - y) % fld.p for x, y in zip(da, db)])


def test_digits_round_trip():
    for base, width in ((2, 6), (3, 4), (4, 3), (9, 2)):
        for v in range(base**width):
            ds = digits(v, base, width)
            assert all(0 <= d < base for d in ds)
            assert sum(d * base**i for i, d in enumerate(ds)) == v


def test_digits_of_an_array_match_the_ints_and_leave_it_unchanged():
    idx = np.arange(3**4, dtype=np.int64)
    ds = digits(idx, 3, 4)
    assert np.array_equal(idx, np.arange(3**4))
    for v in range(3**4):
        assert [int(d[v]) for d in ds] == digits(v, 3, 4)


# -- reference field construction ---------------------------------------------
# The coefficient-list kernels extension fields were built on before they moved
# onto Poly, kept here as the reference for the irreducibility verdict and the
# tables.


def reference_fp_polymul(a, b, p):
    """Multiply two F_p coefficient lists (little-endian)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def reference_fp_polymod(a, m, p):
    """Reduce coefficient list a modulo the monic list m over F_p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, cm in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * cm) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def reference_modulus_is_irreducible(modulus, p):
    """No root in F_p and no monic divisor of degree 2..e/2."""
    e = len(modulus) - 1
    for r in range(p):
        acc = 0
        for c in reversed(modulus):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    for d in range(2, e // 2 + 1):
        for idx in range(p**d):
            if not reference_fp_polymod(modulus, digits(idx, p, d) + [1], p):
                return False
    return True


def reference_tables(p, e, modulus):
    """(exp, add, neg) of F_{p^e} built on the reference kernels, exp the
    powers of its least generator."""
    q = p**e

    def pack(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def raw_mul(a, b):
        prod = reference_fp_polymul(digits(a, p, e), digits(b, p, e), p)
        return pack(reference_fp_polymod(prod, modulus, p))

    for g in range(2, q):
        acc, exp = 1, [1]
        for _ in range(q - 1):
            acc = raw_mul(acc, g)
            if acc == 1:
                break
            exp.append(acc)
        if len(exp) == q - 1:
            break
    add = [
        [pack([(x + y) % p for x, y in zip(digits(a, p, e), digits(b, p, e))]) for b in range(q)]
        for a in range(q)
    ]
    neg = [row.index(0) for row in add]
    return exp, add, neg


@pytest.mark.parametrize("p, degrees", [(2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2, 3)), (7, (2, 3))])
def test_irreducibility_verdict_matches_the_reference(p, degrees):
    for e in degrees:
        verdicts = []
        for low in product(range(p), repeat=e):
            modulus = list(low) + [1]
            try:
                GF(p, e, modulus)
                verdict = True
            except ReducibleModulus as exc:
                assert str(exc) == f"modulus {modulus} is reducible over F_{p}"
                verdict = False
            assert verdict == reference_modulus_is_irreducible(modulus, p), modulus
            verdicts.append(verdict)
        # both verdicts occur at every degree
        assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize(
    "p, e, modulus",
    [
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 1, 0, 1)),
        (3, 2, (1, 0, 1)),
        (3, 5, (1, 2, 0, 0, 0, 1)),  # x^5 + 2x + 1
        (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),  # x^8 + x^4 + x^3 + x + 1
    ],
)
def test_extension_tables_match_the_reference(p, e, modulus):
    fld = GF(p, e, modulus)
    exp, add, neg = reference_tables(p, e, modulus)
    # the reference's powers of a generator fix every product and inverse
    units = len(exp)
    for i in range(units):
        assert fld._inv[exp[i]] == exp[-i % units]
        for j in range(units):
            assert fld._mul[exp[i]][exp[j]] == exp[(i + j) % units]
    assert fld._add == add
    assert fld._neg == neg


@pytest.mark.parametrize("p", [2, 3])
def test_the_build_refuses_every_reducible_modulus_and_returns(p):
    """The product table alone decides irreducibility: the build refuses a
    modulus with a zero divisor and builds every other one."""
    for e in (2, 3, 4):
        for low in product(range(p), repeat=e):
            modulus = tuple(low) + (1,)
            if reference_modulus_is_irreducible(modulus, p):
                assert len(_build_tables(p, e, modulus)) == 4
            else:
                with pytest.raises(ReducibleModulus, match=r"^modulus \[.*\] is reducible over F_\d+$"):
                    _build_tables(p, e, modulus)


LARGE_FIELDS = [
    (3, 5, (1, 2, 0, 0, 0, 1)),  # x^5 + 2x + 1
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),  # x^8 + x^4 + x^3 + x + 1
    (2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)),  # x^9 + x^4 + 1
    (509, 1, None),
]


@pytest.mark.parametrize("p, e, modulus", LARGE_FIELDS[2:])
def test_every_table_entry_is_a_shared_element(p, e, modulus):
    """Past q = 256 a fresh int per entry would grow each table by about
    7 MB, so every entry is the element object that add[0] holds."""
    fld = GF(p, e, modulus)
    elems = fld._add[0]
    for table in (fld._add, fld._mul, [fld._neg, fld._inv]):
        for row in table:
            assert all(v is elems[v] for v in row)


@pytest.mark.parametrize("p, e, modulus", LARGE_FIELDS)
def test_field_axioms_on_seeded_triples_of_the_large_fields(p, e, modulus):
    fld = GF(p, e, modulus)
    rng = random.Random(20261022)
    for _ in range(2000):
        a, b, c = (rng.randrange(fld.q) for _ in range(3))
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
    assert all(fld.mul(a, fld.inv(a)) == 1 for a in fld.units())


# sha256 of repr((add, mul, neg, inv)), recorded from the generator-and-log
# construction, so a change to how the tables are built changes no entry
TABLE_PINS = {
    (2, 1, None): "56694e59ba662059b9a98064b56f3a544c6ab7ba90369fbb6d488ad261fbfc3f",
    (3, 1, None): "2cf114b6bf565083c2b0f131d09528bd576860c73c2cc0f88823dcf3961dd407",
    (2, 2, (1, 1, 1)): "31811d564c5efe37a2e61c6c52585ec72350dd1cdb5115c7a68cef9477b46b02",
    (5, 1, None): "8fc1cc289306313ed8f5f575e75bf1c3792d7c4245be4dd6b2421ff5e6210ed0",
    (7, 1, None): "bc6987198b096bb509a4ca6b3d9f1cff429e4206a9d8d5303739f0b6039b3fce",
    (2, 3, (1, 1, 0, 1)): "0b3ae15e0169772efbee483d496717c4f9fd41f7a880d51db75132cc2c6fdf26",
    (3, 2, (1, 0, 1)): "508f161589db080714cde977898ba3ba418e552e9f30400593f61aab4201ba6e",
    (11, 1, None): "6dd507bc3ee48fd437cc72e4c6a32a434f661743d93508fe721840a35c84772e",
    (13, 1, None): "23b4e0d968cbf69d8ab5d75dfd43ebdcc01ac673ba54b0241c05d203b9e0d5e5",
    (509, 1, None): "2b081e4418369b66046d7d0054492d4850a46608c84211ef1a84e79ca00b6487",
    (3, 5, (1, 2, 0, 0, 0, 1)): "945538255124676b89e51e5f2d8231e1698361300e442a2353384c23bf8ab3f3",
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)): "e32738b23275eed86b377546c73d3edcffa3583cbc1875d45a22c5e52dee4a57",
    (2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)): "4f269c81306ace0dc43392fc164476e2a503ef2b9aa4599e46cf08edfc96782f",
}


def test_the_pins_cover_every_shipped_field_up_to_13():
    shipped = []
    for q in range(2, 14):
        with contextlib.suppress(InvalidParams, UnsupportedSize):
            shipped.append(field_of_order(q)._key())
    assert shipped == [k for k in TABLE_PINS if k[0] ** k[1] <= 13]


@pytest.mark.parametrize("p, e, modulus", list(TABLE_PINS))
def test_tables_match_their_pins(p, e, modulus):
    fld = field_spec(p, e, modulus)
    tables_repr = repr((fld._add, fld._mul, fld._neg, fld._inv))
    assert hashlib.sha256(tables_repr.encode()).hexdigest() == TABLE_PINS[p, e, modulus]


# -- the tables against the modular formulas ---------------------------------
# Prime fields computed with these formulas before every field became its
# tables; they stay here as the reference the tables are checked against.


def reference_prime_ops(p):
    """(add, mul, neg, inv) of F_p by modular arithmetic."""
    return (
        lambda a, b: (a + b) % p,
        lambda a, b: (a * b) % p,
        lambda a: (-a) % p,
        lambda a: pow(a, p - 2, p),
    )


@pytest.mark.parametrize("p", [p for p in range(2, 32) if factorize(p) == {p: 1}] + [509])
def test_prime_tables_match_the_modular_formulas(p):
    fld = GF(p)
    add, mul, neg, inv = reference_prime_ops(p)
    els = range(p)
    assert fld._add == [[add(a, b) for b in els] for a in els]
    assert fld._mul == [[mul(a, b) for b in els] for a in els]
    assert fld._neg == [neg(a) for a in els]
    assert fld._inv == [0] + [inv(a) for a in els[1:]]
    assert [fld.sub(a, b) for a in els for b in els] == [(a - b) % p for a in els for b in els]
    assert [fld.inv(a) for a in els[1:]] == fld._inv[1:]


TABLE_FIELDS = [
    (2, 1, None),
    (3, 1, None),
    (2, 2, (1, 1, 1)),
    (3, 2, (1, 0, 1)),
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),  # q = 256, the largest uint8 field
    (257, 1, None),  # the smallest uint16 field
    (509, 1, None),
    (2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)),  # x^9 + x^4 + 1
]


@pytest.mark.parametrize("p, e, modulus", TABLE_FIELDS)
def test_numpy_tables_match_the_scalar_ops(p, e, modulus):
    fld = field_spec(p, e, modulus)
    add, mul, neg, inv = tables(fld)
    dtype = np.uint8 if fld.q <= 256 else np.uint16
    assert [t.dtype for t in (add, mul, neg, inv)] == [dtype] * 4
    els = fld.elements()
    assert add.tolist() == [[fld.add(a, b) for b in els] for a in els]
    assert mul.tolist() == [[fld.mul(a, b) for b in els] for a in els]
    assert neg.tolist() == [fld.neg(a) for a in els]
    assert inv.tolist() == [0] + [fld.inv(a) for a in fld.units()]


def test_the_largest_fields_build_quickly():
    for spec in ((509,), (2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))):
        start = time.perf_counter()
        GF(*spec)
        assert time.perf_counter() - start < 0.5


def reference_field_ops(fld):
    """(add, mul) of fld from the coefficient-list kernels: digitwise mod p,
    and the product of the digit polynomials mod p, reduced by the modulus."""
    p, e = fld.p, fld.e

    def pack(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def add(a, b):
        return pack([(x + y) % p for x, y in zip(digits(a, p, e), digits(b, p, e))])

    def mul(a, b):
        prod = reference_fp_polymul(digits(a, p, e), digits(b, p, e), p)
        return pack(prod if fld.modulus is None else reference_fp_polymod(prod, fld.modulus, p))

    return add, mul


@pytest.mark.parametrize(
    "p, e, modulus",
    [(2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)), (3, 2, (1, 0, 1)), (3, 5, (1, 2, 0, 0, 0, 1))],
)
def test_extension_mul_and_inv_tables_match_the_reference(p, e, modulus):
    fld = GF(p, e, modulus)
    _, mul = reference_field_ops(fld)
    els = range(fld.q)
    assert fld._mul == [[mul(a, b) for b in els] for a in els]
    assert [mul(a, fld._inv[a]) for a in els[1:]] == [1] * (fld.q - 1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 4, 8, 9]), st.data())
def test_poly_mul_matches_the_schoolbook_reference(q, data):
    fld = field_of_order(q)
    coeffs = st.lists(st.integers(0, q - 1), max_size=7)
    a, b = data.draw(coeffs), data.draw(coeffs)
    add, mul = reference_field_ops(fld)
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = add(out[i + j], mul(ca, cb))
    assert Poly(fld, a) * Poly(fld, b) == Poly(fld, out)


# -- factorize ---------------------------------------------------------------


@pytest.mark.parametrize(
    "k, expected",
    [
        (1, {}),
        (2**80, {2: 80}),
        (3**50, {3: 50}),
        (10**9 + 7, {10**9 + 7: 1}),
        (999999999989, {999999999989: 1}),  # the largest prime below 10^12
        (2**3 * 3 * 10007**2, {2: 3, 3: 1, 10007: 2}),
        (2 * 999999999989, {2: 1, 999999999989: 1}),  # past 10^12, its cofactor is not
    ],
)
def test_factorize(k, expected):
    assert factorize(k) == expected


def test_factorize_refuses_a_large_prime_at_once():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        factorize(10**18 + 3)
    assert time.perf_counter() - start < 1.0
