"""Polynomials over a finite field, with exact degree semantics.

Coefficients are stored little-endian (index i holds the coefficient of x^i)
and always normalized: the last stored coefficient is nonzero, or the tuple is
empty for the zero polynomial.  ``deg(0)`` is ``NEG_INF``, which compares below
every integer, so degree-bound predicates need no special case for zero.

Three kernels on coefficient lists do the arithmetic: ``_trim`` normalises
(``Poly``, ``oracle``'s decoders), ``_submul`` is a - c·b (``Poly``'s ring
ops, ``polymat._hermite``'s row steps) and ``_divmod_coeffs`` divides
(``Poly`` divmod, ``polymat._hermite``).
"""

from __future__ import annotations

from .errors import BothZero, DivisionByZero, InvalidParams, MixedFields, NegativeCutoff
from .fields import GF

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs=()):
        coeffs = _trim(coeffs)
        if not field._element_set.issuperset(coeffs):  # from_ints reduces
            raise InvalidParams(f"coefficients {list(coeffs)} are not all in [0, {field.q})")
        self.field = field
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def const(cls, field, c):
        return cls(field, (c % field.q,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def from_ints(cls, field, ints):
        """Build from the repo-wide text format: little-endian integer list."""
        return cls(field, [c % field.q for c in ints])

    def to_ints(self):
        return list(self.coeffs)

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.coeffs == other.coeffs
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.coeffs)

    def _check(self, other) -> GF:
        if self.field != other.field:
            raise MixedFields(f"{self.field} vs {other.field}")
        return self.field

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        f = self._check(other)
        return Poly(f, _submul(f, self.coeffs, (f._neg[1],), other.coeffs))

    def __neg__(self):
        f = self.field
        return Poly(f, _submul(f, (), (1,), self.coeffs))

    def __sub__(self, other):
        f = self._check(other)
        return Poly(f, _submul(f, self.coeffs, (1,), other.coeffs))

    def __mul__(self, other):
        f = self._check(other)
        return Poly(f, _submul(f, (), (-self).coeffs, other.coeffs))

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly(f, _submul(f, (), (f._neg[c],), self.coeffs))

    def __divmod__(self, other):
        f = self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        quot, rem = _divmod_coeffs(f, self.coeffs, other.coeffs)
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.lc == 1:
            return self
        return self.scale(self.field.inv(self.lc))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{c}*{xs}")
        return "+".join(terms)


def _trim(coeffs) -> tuple:
    """A coefficient list as a normalised ``Poly.coeffs`` tuple."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


def _submul(field: GF, a, c, b) -> list:
    """a - c·b on little-endian coefficient lists through the field's
    tables, as a normalised list (no trailing zero); no argument is written
    to."""
    add, mul, neg = field._add, field._mul, field._neg
    out = list(a) + [0] * (len(c) + len(b) - 1 - len(a))
    for i, ci in enumerate(c):
        if ci:
            row = mul[neg[ci]]
            for j, bj in enumerate(b, i):
                out[j] = add[out[j]][row[bj]]
    while out and not out[-1]:
        out.pop()
    return out


def _divmod_coeffs(field: GF, a, b):
    """(quot, rem) of a by b, little-endian coefficient lists (b normalised
    and nonzero), by long division from the top coefficient down through the
    field's tables; rem keeps len(a) entries, its top ones 0.  The one long
    division of ``Poly`` and ``polymat._hermite``; a and b are not written to."""
    add, mul, neg = field._add, field._mul, field._neg
    db = len(b) - 1
    rem, quot, ilb = list(a), [0] * (len(a) - db), field._inv[b[-1]]
    for i in range(len(a) - 1, db - 1, -1):
        if rem[i]:
            quot[i - db] = qc = mul[rem[i]][ilb]
            row = mul[neg[qc]]
            for j, bc in enumerate(b, i - db):
                rem[j] = add[rem[j]][row[bc]]
    return quot, rem


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    return poly_xgcd(f, g)[0]


def poly_xgcd(f: Poly, g: Poly):
    """Extended gcd: returns (d, s, t) with s*f + t*g = d, d monic."""
    fld = f._check(g)
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    r0, r1 = f, g
    s0, s1 = Poly.one(fld), Poly.zero(fld)
    t0, t1 = Poly.zero(fld), Poly.one(fld)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    c = fld.inv(r0.lc)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def truncate_low(f: Poly, u: int) -> Poly:
    """Keep only the terms of degree <= u."""
    if u < 0:
        raise NegativeCutoff(f"truncation cutoff must be >= 0, got {u}")
    return Poly(f.field, f.coeffs[: u + 1])
