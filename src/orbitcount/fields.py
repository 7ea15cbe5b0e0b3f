"""Exact arithmetic in finite fields F_q with q = p^e, q <= 512.

Elements are plain integers in ``[0, q)``.  For prime fields the value is the
residue itself; for extension fields the base-p digits of the value are the
coefficients of the element in the power basis of the defining modulus
(little-endian, so value ``p`` is the generator ``x`` of the power basis).

Extension fields multiply through log/exp tables built once at construction,
so all per-element operations are O(1) table lookups.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    DivisionByZero,
    NonPrimeCharacteristic,
    ReducibleModulus,
    UnsupportedSize,
)

MAX_Q = 512


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def digits(v, base: int, width: int):
    """The ``width`` least significant base-``base`` digits of ``v``,
    little-endian.  ``v`` is an int or an integer numpy array; for an array
    each digit is an array of its shape, and the input is left unchanged."""
    out = []
    for _ in range(width):
        out.append(v % base)
        v = v // base
    return out


def _fp_polymul(a, b, p):
    """Multiply two F_p coefficient lists (little-endian)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _fp_polymod(a, m, p):
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


def _modulus_is_irreducible(modulus, p):
    """Exhaustive irreducibility test: no root in F_p and no monic divisor of
    degree <= e/2.  Fine at the sizes this package supports."""
    e = len(modulus) - 1
    # root search
    for r in range(p):
        acc = 0
        for c in reversed(modulus):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    # trial division by monic polynomials of degree 2..e//2
    for d in range(2, e // 2 + 1):
        for idx in range(p**d):
            if not _fp_polymod(modulus, digits(idx, p, d) + [1], p):
                return False
    return True


class GF:
    """The finite field F_q, q = p^e, acting on integer-coded elements."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        if e < 1:
            raise UnsupportedSize(f"extension degree must be >= 1, got {e}")
        q = p**e
        if q > MAX_Q:
            raise UnsupportedSize(f"q = {q} exceeds the supported cap {MAX_Q}")
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
            if not _modulus_is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        if e > 1:
            self._build_tables()

    # -- table construction for extension fields -----------------------------

    def _pack(self, coeffs) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def _unpack(self, v: int):
        return digits(v, self.p, self.e)

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _fp_polymul(self._unpack(a), self._unpack(b), self.p)
        return self._pack(_fp_polymod(prod, self.modulus, self.p))

    def _build_tables(self):
        q = self.q
        # find a multiplicative generator by direct order computation
        for g in range(2, q):
            acc = 1
            exp = [1]
            for _ in range(q - 1):
                acc = self._raw_mul(acc, g)
                if acc == 1:
                    break
                exp.append(acc)
            if len(exp) == q - 1:
                break
        else:  # pragma: no cover - a generator always exists
            raise UnsupportedSize("no multiplicative generator found")
        self._exp = exp
        self._log = [0] * q
        for i, v in enumerate(exp):
            self._log[v] = i
        # digitwise addition table
        self._add = [
            [
                self._pack([(x + y) % self.p for x, y in zip(self._unpack(a), self._unpack(b))])
                for b in range(q)
            ]
            for a in range(q)
        ]
        self._neg = [self._add[a].index(0) for a in range(q)]

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

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
        return field_spec(obj["p"], obj.get("e", 1), obj.get("modulus"))


@lru_cache(maxsize=None)
def tables(fld: GF):
    """The addition, multiplication, negation and inverse tables of fld as
    numpy arrays (the inverse of 0 read as 0), built on first use.  The
    batched kernels of ``linalg`` and ``oracle`` compute through them."""
    # numpy loads here, not at the top: fields is the first module the
    # package imports, and loading numpy ahead of the others raises the peak
    # resident memory of every run by about 0.7 MB
    import numpy as np

    elems = fld.elements()
    add = np.array([[fld.add(a, b) for b in elems] for a in elems], dtype=np.intp)
    mul = np.array([[fld.mul(a, b) for b in elems] for a in elems], dtype=np.intp)
    neg = np.array([fld.neg(a) for a in elems], dtype=np.intp)
    inv = np.array([0] + [fld.inv(a) for a in fld.units()], dtype=np.intp)
    return add, mul, neg, inv


@lru_cache(maxsize=None)
def _cached_field(p, e, modulus):
    return GF(p, e, None if modulus is None else list(modulus))


def field_spec(p: int, e: int = 1, modulus=None) -> GF:
    """Validate and return (a cached copy of) the field F_{p^e}."""
    key = None if modulus is None else tuple(c % p for c in modulus)
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
    if _is_prime(q):
        return prime_field(q)
    if q in DEFAULT_MODULI:
        p, e, modulus = DEFAULT_MODULI[q]
        return field_spec(p, e, modulus)
    raise UnsupportedSize(f"no default construction for q = {q}")
