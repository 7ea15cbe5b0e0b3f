"""Exact arithmetic in finite fields F_q with q = p^e, q <= 512.

Elements are plain integers in ``[0, q)``.  For prime fields the value is the
residue itself; for extension fields the base-p digits of the value are the
coefficients of the element in the power basis of the defining modulus
(little-endian, so value ``p`` is the generator ``x`` of the power basis).

Every field, prime or extension, is its four tables: add, mul, neg and inv,
lists built once at construction, so each per-element operation is one
lookup.  Addition is digitwise, and x·b is b with its digits shifted up one
place and the top one folded back through the modulus; so row a of add and
of mul is row a - p^i plus digit i or x^i, i the lowest nonzero digit of a.
A modulus is refused when its product table has a zero divisor.  ``tables``
hands the batched numpy kernels the same tables as arrays.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    BudgetExceeded,
    DivisionByZero,
    InvalidParams,
    NonPrimeCharacteristic,
    ReducibleModulus,
    UnsupportedSize,
)

MAX_Q = 512

# trial division stops here: every k below FACTOR_LIMIT**2 = 10**12 factors
# exactly, and a larger cofactor with no prime factor up to the limit is
# refused instead of searched
FACTOR_LIMIT = 10**6


def factorize(k: int) -> dict:
    """The prime factorization {p: e} of k by trial division ({} for k < 2).

    Raises BudgetExceeded when a cofactor of at least FACTOR_LIMIT**2 has no
    prime factor up to FACTOR_LIMIT, so the search is bounded for every k.
    """
    out = {}
    rest, d = k, 2
    while d * d <= rest:
        if d > FACTOR_LIMIT:
            raise BudgetExceeded(
                f"factoring {k} exceeds the trial-division limit: "
                f"{rest} has no prime factor up to {FACTOR_LIMIT}"
            )
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def digits(v, base: int, width: int):
    """The ``width`` least significant base-``base`` digits of ``v``,
    little-endian.  ``v`` is an int or an integer numpy array; for an array
    each digit is an array of its shape, and the input is left unchanged."""
    out = []
    for _ in range(width):
        v, d = divmod(v, base)
        out.append(d)
    return out


def is_int_list(values) -> bool:
    """Whether values is a JSON list of integers (booleans excluded)."""
    return isinstance(values, list) and all(type(v) is int for v in values)


def _build_tables(p: int, e: int, modulus):
    """The add, mul, neg and inv tables of F_{p^e} (inv[0] is 0), every entry
    one of the q shared element objects.

    Both tables grow one row at a time from a - p^i, i the lowest nonzero
    digit of a: add[a] is add[a - p^i] with digit i stepped once more, and
    mul[a] is mul[a - p^i] plus the row of x^i·b.  Those rows come from
    x·(r + t x^(e-1)) = r·x - t·(modulus below x^e).  A zero in mul[a] past
    column 0 is a zero divisor: the modulus is then reducible, and refused.
    """
    q, top = p**e, p ** (e - 1)
    elems = list(range(q))
    steps = []  # steps[i][b]: b with digit i stepped up by one, mod p
    for w in (p**i for i in range(e)):
        steps.append([elems[b + w if b // w % p < p - 1 else b - (p - 1) * w] for b in elems])
    growth = [next((a - p**i, i) for i in range(e) if a % p ** (i + 1)) for a in elems[1:]]
    add = [elems]
    for prev, i in growth:
        add.append(list(map(steps[i].__getitem__, add[prev])))
    neg = [elems[row.index(0)] for row in add]
    times_x = [elems]  # times_x[i][b] = x^i·b
    for _ in range(1, e):
        xe = neg[sum(c * p**j for j, c in enumerate(modulus[:-1]))]
        multiples = [0]  # t·x^e for t in F_p
        for _ in range(1, p):
            multiples.append(add[multiples[-1]][xe])
        times_x.append([add[v % top * p][multiples[v // top]] for v in times_x[-1]])
    mul = [[0] * q]
    for prev, i in growth:
        row = [add[u][v] for u, v in zip(mul[prev], times_x[i])]
        if 0 in row[1:]:
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
        mul.append(row)
    inv = [0] + [elems[row.index(1)] for row in mul[1:]]
    return add, mul, neg, inv


class GF:
    """The finite field F_q, q = p^e, acting on integer-coded elements."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        if e < 1:
            raise UnsupportedSize(f"extension degree must be >= 1, got {e}")
        # exponents first: p >= 2 makes p**e >= 2**e, so an e past the bit
        # length of the cap is refused without building p**e
        if p >= 2 and (e >= MAX_Q.bit_length() or p**e > MAX_Q):
            shown = p if e == 1 else f"{p}^{e}"
            raise UnsupportedSize(f"q = {shown} exceeds the supported cap {MAX_Q}")
        if factorize(p) != {p: 1}:
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        q = p**e
        if e == 1:
            if modulus is not None:
                raise ReducibleModulus("prime fields take no modulus")
        else:
            if modulus is None:
                raise ReducibleModulus(f"a degree-{e} modulus is required for e > 1")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {e}, got {list(modulus)}"
                )
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self._element_set = frozenset(range(q))  # Poly's range check, one hash per coefficient
        self._add, self._mul, self._neg, self._inv = _build_tables(p, e, modulus)

    # -- arithmetic: one lookup each, on elements in [0, q) -----------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    # -- identity / serialization -------------------------------------------

    def _key(self):
        return (self.p, self.e, self.modulus)

    def __eq__(self, other):
        # fields are interned by field_spec, so identity settles almost every call
        return self is other or (isinstance(other, GF) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e}, modulus={list(self.modulus)})"

    def to_json(self) -> dict:
        out = {"p": self.p, "e": self.e}
        if self.modulus is not None:
            out["modulus"] = list(self.modulus)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "GF":
        """The field ``to_json`` wrote; any other shape raises InvalidParams."""
        ok = isinstance(obj, dict) and is_int_list([obj.get("p"), obj.get("e", 1)])
        modulus = obj.get("modulus") if ok else None
        if not ok or not (modulus is None or is_int_list(modulus)):
            shape = '{"p": int, "e": int, "modulus": [int]}'
            raise InvalidParams(f"a field must be {shape}, got {obj!r}")
        return field_spec(obj["p"], obj.get("e", 1), modulus)


@lru_cache(maxsize=None)
def tables(fld: GF):
    """The add, mul, neg and inv tables of fld (the inverse of 0 read as 0)
    as numpy arrays of the narrowest unsigned dtype that holds q, for the
    batched kernels of ``linalg``, ``polymat`` and ``oracle``."""
    # numpy loads here, not at the top: fields is the first module the
    # package imports, and loading numpy ahead of the others raises the peak
    # resident memory of every run by about 0.7 MB
    import numpy as np

    dtype = np.uint8 if fld.q <= 256 else np.uint16
    return tuple(np.array(t, dtype=dtype) for t in (fld._add, fld._mul, fld._neg, fld._inv))


@lru_cache(maxsize=None)
def _cached_field(p, e, modulus):
    return GF(p, e, None if modulus is None else list(modulus))


def field_spec(p: int, e: int = 1, modulus=None) -> GF:
    """Validate and return (a cached copy of) the field F_{p^e}."""
    # no c % p below p = 2, which GF refuses as not prime
    key = None if modulus is None else tuple(c % p if p >= 2 else c for c in modulus)
    return _cached_field(p, e, key)


def prime_field(p: int) -> GF:
    return field_spec(p, 1)


# Convenient default moduli for the small extension fields used in tests.
DEFAULT_MODULI = {
    4: (2, 2, (1, 1, 1)),       # x^2 + x + 1
    8: (2, 3, (1, 1, 0, 1)),    # x^3 + x + 1
    9: (3, 2, (1, 0, 1)),       # x^2 + 1
}


def field_of_order(q: int) -> GF:
    """Return F_q, picking a default modulus for the prime powers we ship."""
    if q > MAX_Q:
        raise UnsupportedSize(f"q = {q} exceeds the supported cap {MAX_Q}")
    factors = factorize(q)
    if len(factors) != 1:
        raise InvalidParams(f"q = {q} is not a prime power, so F_q does not exist")
    if factors == {q: 1}:
        return prime_field(q)
    if q in DEFAULT_MODULI:
        p, e, modulus = DEFAULT_MODULI[q]
        return field_spec(p, e, modulus)
    raise UnsupportedSize(f"no default construction for q = {q}")
