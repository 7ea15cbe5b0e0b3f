import numpy as np
import pytest

from orbitcount.errors import (
    DivisionByZero,
    NonPrimeCharacteristic,
    ReducibleModulus,
    UnsupportedSize,
)
from orbitcount.fields import GF, digits, field_of_order, field_spec, prime_field


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
    g = f9._exp[1]
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
