"""Exact arithmetic in the cyclotomic field Q[w], w = exp(i*pi/4).

A scalar is stored as four rational coordinates (a0, a1, a2, a3) over the
basis {1, w, w^2, w^3} with the single reduction rule w^4 = -1.  This field
contains the imaginary unit (i = w^2), sqrt(2) = w - w^3, and every scalar
the engine ever produces: spider parameters, matrix entries, normal-form
coefficients.  All arithmetic is exact; floats appear only at the very edge
(`Scalar.to_complex`) when a numeric embedding is requested.

Complex conjugation acts on coordinates as (a0, a1, a2, a3) ->
(a0, -a3, -a2, -a1), since conj(w^k) = w^{-k} = -w^{4-k} for k = 1..3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

_Rat = Union[int, Fraction]

_ONE_COORDS = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))

_SQRT1_2 = math.sqrt(0.5)

# Embeddings of the basis powers w^0..w^3 into floating-point C.
_BASIS_COMPLEX = (
    complex(1.0, 0.0),
    complex(_SQRT1_2, _SQRT1_2),
    complex(0.0, 1.0),
    complex(-_SQRT1_2, _SQRT1_2),
)


class Scalar:
    """An element a0 + a1*w + a2*w^2 + a3*w^3 of Q[w] with exact coordinates."""

    __slots__ = ("a",)

    def __init__(self, a0: _Rat = 0, a1: _Rat = 0, a2: _Rat = 0, a3: _Rat = 0):
        self.a = (Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3))

    @staticmethod
    def _raw(coeffs: tuple) -> "Scalar":
        s = object.__new__(Scalar)
        s.a = coeffs
        return s

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        x, y = self.a, other.a
        return Scalar._raw((x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]))

    def __sub__(self, other: "Scalar") -> "Scalar":
        x, y = self.a, other.a
        return Scalar._raw((x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]))

    def __neg__(self) -> "Scalar":
        x = self.a
        return Scalar._raw((-x[0], -x[1], -x[2], -x[3]))

    def __mul__(self, other: "Scalar") -> "Scalar":
        # Convolution of coordinates folded by w^4 = -1.
        if self.a == _ONE_COORDS:
            return other
        if other.a == _ONE_COORDS:
            return self
        x, y = self.a, other.a
        out = [Fraction(0)] * 4
        for i in range(4):
            xi = x[i]
            if not xi:
                continue
            for j in range(4):
                yj = y[j]
                if not yj:
                    continue
                k = i + j
                if k >= 4:
                    out[k - 4] -= xi * yj
                else:
                    out[k] += xi * yj
        return Scalar._raw(tuple(out))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def galois(self, k: int) -> "Scalar":
        """Apply the field automorphism w -> w^k (k odd mod 8)."""
        out = [Fraction(0)] * 4
        for j, c in enumerate(self.a):
            if not c:
                continue
            e = (j * k) % 8
            if e >= 4:
                out[e - 4] -= c
            else:
                out[e] += c
        return Scalar._raw(tuple(out))

    def inverse(self) -> "Scalar":
        """Field inverse via the Galois conjugates; raises ZeroDivisionError on 0."""
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        g3, g5, g7 = self.galois(3), self.galois(5), self.galois(7)
        cofactor = g3 * g5 * g7
        norm = self * cofactor
        a = norm.a
        assert a[1] == 0 and a[2] == 0 and a[3] == 0, "field norm must be rational"
        n = a[0]
        return Scalar._raw(tuple(c / n for c in cofactor.a))

    def conj(self) -> "Scalar":
        a = self.a
        return Scalar._raw((a[0], -a[3], -a[2], -a[1]))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.a)

    def is_real(self) -> bool:
        return self.a[2] == 0 and self.a[3] == -self.a[1]

    def is_rational(self) -> bool:
        return self.a[1] == 0 and self.a[2] == 0 and self.a[3] == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        return self.a[0]

    def real_parts(self) -> tuple[Fraction, Fraction]:
        """For a real scalar p + q*sqrt(2), return (p, q) exactly."""
        if not self.is_real():
            raise ValueError(f"scalar {self} is not real")
        return self.a[0], self.a[1]

    def sign_real(self) -> int:
        """Exact sign (-1, 0, 1) of a real scalar p + q*sqrt(2)."""
        p, q = self.real_parts()
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # Opposite signs: compare p^2 against 2 q^2; sqrt(2) is irrational so
        # p + q*sqrt(2) = 0 can never happen with p, q rational nonzero.
        if p > 0:  # q < 0
            return 1 if p * p > 2 * q * q else -1
        return 1 if p * p < 2 * q * q else -1

    def real(self) -> "Scalar":
        return (self + self.conj()) * HALF

    def imag(self) -> "Scalar":
        """The real scalar y with self = x + i*y."""
        return (self - self.conj()) * HALF * I.inverse()

    # -- embeddings ------------------------------------------------------

    def to_complex(self) -> complex:
        z = 0j
        for c, b in zip(self.a, _BASIS_COMPLEX):
            if c:
                z += float(c) * b
        return z

    # -- protocol --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scalar) and self.a == other.a

    def __hash__(self) -> int:
        return hash(self.a)

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


def conjugate(x: Scalar) -> Scalar:
    return x.conj()


# -- text form -----------------------------------------------------------
#
#   scalar   := signed-term (("+" | "-") term)*
#   term     := rational | rational? "w" ("^" ("2" | "3"))?
#   rational := INT ("/" POSINT)?
#
# No whitespace anywhere.  "w" denotes the primitive eighth root of unity,
# so "1/2w^2" reads as (1/2) * w^2 and "-w^3+1" as 1 - w^3.


class ScalarParseError(ValueError):
    pass


def parse_scalar(text: str) -> Scalar:
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar")
    pos = 0
    n = len(s)
    coeffs = [Fraction(0)] * 4

    def parse_uint() -> int:
        nonlocal pos
        start = pos
        while pos < n and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise ScalarParseError(f"expected digits at {start} in {text!r}")
        return int(s[start:pos])

    first = True
    while pos < n:
        sign = 1
        if s[pos] == "+":
            if first:
                raise ScalarParseError(f"unexpected '+' at start of {text!r}")
            pos += 1
        elif s[pos] == "-":
            sign = -1
            pos += 1
        elif not first:
            raise ScalarParseError(f"expected '+' or '-' at {pos} in {text!r}")
        first = False
        if pos >= n:
            raise ScalarParseError(f"dangling sign in {text!r}")

        coef = Fraction(1)
        have_coef = False
        if s[pos].isdigit():
            num = parse_uint()
            den = 1
            if pos < n and s[pos] == "/":
                pos += 1
                den = parse_uint()
                if den == 0:
                    raise ScalarParseError(f"zero denominator in {text!r}")
            coef = Fraction(num, den)
            have_coef = True
        power = 0
        if pos < n and s[pos] == "w":
            pos += 1
            power = 1
            if pos < n and s[pos] == "^":
                pos += 1
                if pos < n and s[pos] in "23":
                    power = int(s[pos])
                    pos += 1
                else:
                    raise ScalarParseError(f"bad exponent at {pos} in {text!r}")
        elif not have_coef:
            raise ScalarParseError(f"expected term at {pos} in {text!r}")
        coeffs[power] += sign * coef

    return Scalar(*coeffs)


_POWER_SUFFIX = ("", "w", "w^2", "w^3")


def format_scalar(x: Scalar) -> str:
    """Canonical text for a scalar; `parse_scalar` round-trips it exactly."""
    parts: list[str] = []
    for k in range(4):
        c = x.a[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = _POWER_SUFFIX[k]
        else:
            body = f"{mag}{_POWER_SUFFIX[k]}"
        parts.append(sign + body)
    return "".join(parts) if parts else "0"
