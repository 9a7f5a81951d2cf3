"""Exact arithmetic in the cyclotomic field Q[w], w = exp(i*pi/4).

A scalar is (n0 + n1*w + n2*w^2 + n3*w^3) / d: four integer coordinates on
the basis {1, w, w^2, w^3}, reduced by w^4 = -1, over one denominator d > 0
with gcd(n0, n1, n2, n3, d) = 1, as number-field elements are kept in
FLINT/Antic (`nf_elem`, https://flintlib.org).  The form is unique, so
equality and hashing compare integers; `Scalar.a` gives the coordinates as
`Fraction`s.  The field holds i = w^2, sqrt(2) = w - w^3 and every scalar the
engine produces.  Floats appear only in `Scalar.to_complex`.  Conjugation
maps (n0, n1, n2, n3) to (n0, -n3, -n2, -n1), as conj(w^k) = -w^{4-k}.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, sqrt
from typing import Union

_Rat = Union[int, Fraction]

_SQRT1_2 = sqrt(0.5)

# Embeddings of the basis powers w^0..w^3 into floating-point C.
_BASIS_COMPLEX = (1 + 0j, complex(_SQRT1_2, _SQRT1_2), 1j, complex(-_SQRT1_2, _SQRT1_2))


def _new(n: tuple, d: int) -> "Scalar":
    """A scalar from coordinates already in canonical form."""
    s = object.__new__(Scalar)
    s.n, s.d = n, d
    return s


def _canon(n0: int, n1: int, n2: int, n3: int, d: int) -> "Scalar":
    """(n0 + n1 w + n2 w^2 + n3 w^3) / d for d > 0, divided by the common gcd."""
    g = gcd(n0, n1, n2, n3, d)
    if g != 1:
        return _new((n0 // g, n1 // g, n2 // g, n3 // g), d // g)
    return _new((n0, n1, n2, n3), d)


class Scalar:
    """An element (n0 + n1*w + n2*w^2 + n3*w^3) / d of Q[w], kept gcd-reduced."""

    __slots__ = ("n", "d")

    def __init__(self, a0: _Rat = 0, a1: _Rat = 0, a2: _Rat = 0, a3: _Rat = 0):
        if type(a0) is int and type(a1) is int and type(a2) is int and type(a3) is int:
            self.n, self.d = (a0, a1, a2, a3), 1
            return
        f = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in (a0, a1, a2, a3)]
        self.d = d = lcm(f[0].denominator, f[1].denominator, f[2].denominator, f[3].denominator)
        self.n = tuple([c.numerator * (d // c.denominator) for c in f])

    @property
    def a(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The four rational coordinates on the basis 1, w, w^2, w^3."""
        return tuple(Fraction(c, self.d) for c in self.n)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        d, e = self.d, other.d
        if d == e:
            if d == 1:
                return _new((a0 + b0, a1 + b1, a2 + b2, a3 + b3), 1)
            return _canon(a0 + b0, a1 + b1, a2 + b2, a3 + b3, d)
        return _canon(a0 * e + b0 * d, a1 * e + b1 * d, a2 * e + b2 * d, a3 * e + b3 * d, d * e)

    def __sub__(self, other: "Scalar") -> "Scalar":
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        d, e = self.d, other.d
        if d == e:
            if d == 1:
                return _new((a0 - b0, a1 - b1, a2 - b2, a3 - b3), 1)
            return _canon(a0 - b0, a1 - b1, a2 - b2, a3 - b3, d)
        return _canon(a0 * e - b0 * d, a1 * e - b1 * d, a2 * e - b2 * d, a3 * e - b3 * d, d * e)

    def __neg__(self) -> "Scalar":
        a0, a1, a2, a3 = self.n
        return _new((-a0, -a1, -a2, -a3), self.d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        # Convolution of coordinates folded by w^4 = -1.
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        c0 = a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1
        c1 = a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2
        c2 = a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3
        c3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        d = self.d * other.d
        if d == 1:
            return _new((c0, c1, c2, c3), 1)
        return _canon(c0, c1, c2, c3, d)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def galois(self, k: int) -> "Scalar":
        """Apply the field automorphism w -> w^k (k odd mod 8)."""
        out = [0, 0, 0, 0]
        for j, c in enumerate(self.n):
            e = (j * k) % 8
            out[e % 4] += c if e < 4 else -c
        return _new(tuple(out), self.d)

    def inverse(self) -> "Scalar":
        """Field inverse; raises ZeroDivisionError on 0.

        Real x = (p + q*sqrt(2)) / d: 1/x = d (p - q*sqrt(2)) / (p^2 - 2q^2), whose
        denominator is nonzero but may be negative.  Else 1/x = conj(x) / (x conj(x)).
        """
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if not self.is_real():
            c = self.conj()
            return c * (self * c).inverse()
        p, q = self.n[0], self.n[1]
        norm = p * p - 2 * q * q
        if norm < 0:
            norm, p, q = -norm, -p, -q
        d = self.d
        return _canon(d * p, -d * q, 0, d * q, norm)

    def conj(self) -> "Scalar":
        a0, a1, a2, a3 = self.n
        return _new((a0, -a3, -a2, -a1), self.d)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.n)

    def is_real(self) -> bool:
        return self.n[2] == 0 and self.n[3] == -self.n[1]

    def is_rational(self) -> bool:
        return not (self.n[1] or self.n[2] or self.n[3])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return Fraction(self.n[0], self.d)

    def sign_real(self) -> int:
        """Exact sign (-1, 0, 1) of a real scalar (p + q*sqrt(2)) / d."""
        if not self.is_real():
            raise ValueError(f"scalar {self} is not real")
        p, q = self.n[0], self.n[1]  # d > 0 does not change the sign
        if (p >= 0) == (q >= 0) or not p or not q:
            return (p > 0) - (p < 0) or (q > 0) - (q < 0)
        # Opposite signs: the larger of p^2 and 2q^2 wins; they never tie,
        # since sqrt(2) is irrational.
        return (1 if p > 0 else -1) if p * p > 2 * q * q else (1 if q > 0 else -1)

    def real(self) -> "Scalar":
        return (self + self.conj()) * HALF

    def imag(self) -> "Scalar":
        """The real scalar y with self = x + i*y."""
        return (self - self.conj()) * HALF * I.inverse()

    # -- embeddings ------------------------------------------------------

    def to_complex(self) -> complex:
        d = self.d
        return sum((c / d * b for c, b in zip(self.n, _BASIS_COMPLEX) if c), 0j)

    # -- protocol --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scalar) and self.d == other.d and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.n, self.d))

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
TWO = Scalar(2)
HALF = Scalar(Fraction(1, 2))
OMEGA = Scalar(0, 1)  # w = exp(i*pi/4)
I = Scalar(0, 0, 1)  # w^2
SQRT2 = Scalar(0, 1, 0, -1)  # w - w^3


# -- text form -----------------------------------------------------------
#
#   scalar   := signed-term (("+" | "-") term)*
#   term     := rational | rational? "w" ("^" ("2" | "3"))?
#   rational := INT ("/" POSINT)?
#
# No whitespace inside (the ends are stripped) and ASCII digits only.  "w"
# denotes the primitive eighth root of unity, so "1/2w^2" reads as
# (1/2) * w^2 and "-w^3+1" as 1 - w^3.

_TERM = r"(?=[0-9w])[0-9]*(?:/[0-9]+)?(?:w(?:\^[23])?)?"
_SCALAR = re.compile(rf"-?{_TERM}(?:[+-]{_TERM})*")
# The terms of a string `_SCALAR` accepts: sign, numerator, denominator, "w", exponent.
_TERMS = re.compile(r"([+-]?)(?=[0-9w])([0-9]*)(?:/([0-9]+))?(w?)(?:\^([23]))?")


class ScalarParseError(ValueError):
    pass


def parse_scalar(text: str) -> Scalar:
    """The scalar `text` writes in the grammar above.

    A `ScalarParseError` names the position (in the stripped text) where the
    longest well-formed prefix ends, or a zero denominator.
    """
    s = text.strip()
    if not _SCALAR.fullmatch(s):
        m = _SCALAR.match(s)
        raise ScalarParseError(f"bad scalar at {m.end() if m else 0} in {text!r}")
    coeffs = [Fraction(0)] * 4
    for sign, num, den, w, power in _TERMS.findall(s):
        if den and not int(den):
            raise ScalarParseError(f"zero denominator in {text!r}")
        coeffs[int(power or len(w))] += Fraction(int(sign + (num or "1")), int(den or 1))
    return Scalar(*coeffs)


_POWER_SUFFIX = ("", "w", "w^2", "w^3")


def format_scalar(x: Scalar) -> str:
    """Canonical text for a scalar; `parse_scalar` round-trips it exactly."""
    parts: list[str] = []
    for k, c in enumerate(x.a):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        body = str(mag) if k == 0 or mag != 1 else ""
        parts.append(f"{sign}{body}{_POWER_SUFFIX[k]}")
    return "".join(parts) if parts else "0"
