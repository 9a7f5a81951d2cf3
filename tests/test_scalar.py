"""Ring, field, and embedding laws for the exact cyclotomic scalars."""

import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zwtick import (
    HALF,
    I,
    MINUS_ONE,
    OMEGA,
    ONE,
    SQRT2,
    Scalar,
    ScalarParseError,
    TWO,
    ZERO,
    format_scalar,
    parse_scalar,
)

from zwtick.scalar import MAX_DIGITS

from _support import parse_scalar_reference

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
scalars = st.builds(Scalar, fractions, fractions, fractions, fractions)

W8 = cmath.exp(1j * cmath.pi / 4)
OMEGA3 = OMEGA * OMEGA * OMEGA


def power(s: Scalar, k: int) -> Scalar:
    out = ONE
    for _ in range(k):
        out = out * s
    return out


def embed(s: Scalar) -> complex:
    return sum(float(c) * W8**k for k, c in enumerate(s.a))


def close(a: complex, b: complex) -> bool:
    return abs(a - b) < 1e-9


class TestFrozenValues:
    def test_omega_powers(self):
        assert power(OMEGA, 4) == MINUS_ONE
        assert power(OMEGA, 8) == ONE
        assert OMEGA * OMEGA == I
        assert I * I == MINUS_ONE

    def test_sqrt2(self):
        assert SQRT2 == OMEGA - OMEGA3
        assert SQRT2 * SQRT2 == TWO

    def test_conj_basis(self):
        assert ONE.conj() == ONE
        assert OMEGA.conj() == -OMEGA3
        assert I.conj() == -I
        assert SQRT2.conj() == SQRT2

    def test_modulus_of_omega(self):
        assert OMEGA * OMEGA.conj() == ONE

    def test_half_times_two(self):
        assert HALF * TWO == ONE


class TestFieldLaws:
    @given(scalars, scalars, scalars)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a + (-a) == ZERO

    @given(scalars)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == ONE

    @given(scalars, scalars)
    def test_conj_is_ring_map(self, a, b):
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a

    @given(scalars)
    def test_real_imag_split(self, a):
        assert a.real() + I * a.imag() == a
        assert a.real().is_real()
        assert a.imag().is_real()

    @given(scalars)
    def test_norm_is_real_nonnegative(self, a):
        n = a * a.conj()
        assert n.is_real()
        assert n.sign_real() >= 0
        assert n.sign_real() == 0 if a.is_zero() else n.sign_real() == 1


class TestEmbedding:
    @given(scalars, scalars)
    def test_homomorphism(self, a, b):
        assert close((a + b).to_complex(), embed(a) + embed(b))
        assert close((a * b).to_complex(), embed(a) * embed(b))

    @given(scalars)
    def test_conj_matches_complex(self, a):
        assert close(a.conj().to_complex(), embed(a).conjugate())

    @given(scalars)
    def test_sign_real_matches_float(self, a):
        r = a.real()
        re = embed(a).real
        if abs(re) > 1e-6:
            assert r.sign_real() == (1 if re > 0 else -1)


class TestTextFormat:
    @given(scalars)
    def test_round_trip(self, a):
        assert parse_scalar(format_scalar(a)) == a

    def test_examples(self):
        assert parse_scalar("0") == ZERO
        assert parse_scalar("-1") == MINUS_ONE
        assert parse_scalar("1/2") == HALF
        assert parse_scalar("w") == OMEGA
        assert parse_scalar("w^2") == I
        assert parse_scalar("1+w^2") == ONE + I
        assert parse_scalar("-w^3") == -OMEGA3

    @pytest.mark.parametrize("bad", ["", "q", "1+", "w^4", "1//2", "++1"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)

    # Pieces of scalar text, valid and not: random strings of them hit every
    # branch of the grammar, inner spaces and non-ASCII digits included.
    PIECES = ("0", "1", "2", "3", "4", "12", "1/2", "/", "w", "w^2", "w^3", "^", "+", "-", " ", "x", "\u0661", "\u00b2")
    EDGES = ("", "+1", "--1", "1+", "w^1", "w^4", "1//2", "1/0", "1/00", "1 +1", "1/ 2", " 1/2w ", "\u00b2", "\u0661")

    def test_matches_reference_scanner(self):
        def outcome(parse, text):
            try:
                return parse(text)
            except ScalarParseError:
                return None

        rng = random.Random(18)
        texts = list(self.EDGES)
        texts += ["".join(rng.choices(self.PIECES, k=rng.randint(1, 8))) for _ in range(20_000)]
        accepted = 0
        for text in texts:
            got = outcome(parse_scalar, text)
            assert got == outcome(parse_scalar_reference, text), text
            accepted += got is not None
        assert 2_000 < accepted < len(texts) - 2_000

    def test_error_names_a_position(self):
        with pytest.raises(ScalarParseError, match=r"at 1 in '1/'"):
            parse_scalar("1/")
        with pytest.raises(ScalarParseError, match="zero denominator"):
            parse_scalar("1/0")

    def test_digit_limit_is_named_in_zwticks_words(self):
        # Numbers of up to MAX_DIGITS digits read and write; longer ones are
        # refused both ways with zwtick's own limit, and the interpreter's
        # int/str setting is left as it was.
        setting = getattr(sys, "get_int_max_str_digits", lambda: None)()
        longest = "9" * MAX_DIGITS
        for text in (longest, f"-{longest}/7+1/{longest}w^3", f"1/2-{longest}w"):
            a = parse_scalar(text)
            assert parse_scalar(format_scalar(a)) == a
        for text in ("1" + "0" * MAX_DIGITS, "1/" + "3" * (MAX_DIGITS + 1), "w-" + "5" * 5001 + "w^3"):
            with pytest.raises(ScalarParseError, match=f"more than {MAX_DIGITS} decimal digits, the most zwtick") as exc:
                parse_scalar(text)
            assert "set_int_max_str_digits" not in str(exc.value)
        big = 10**MAX_DIGITS
        for a in (Scalar(big), Scalar(0, Fraction(1, big)), Scalar(Fraction(1, 2), 0, 0, -big - 3)):
            with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} decimal digits, the most zwtick") as exc:
                format_scalar(a)
            assert "set_int_max_str_digits" not in str(exc.value)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == setting


class TestPredicates:
    def test_rational_value(self):
        assert Scalar(Fraction(3, 4)).rational_value() == Fraction(3, 4)
        assert Scalar(Fraction(3, 4)).is_rational()
        assert not OMEGA.is_rational()

    def test_real_sign_exact_on_sqrt2_combinations(self):
        assert (SQRT2 - Scalar(1)).sign_real() == 1
        assert (SQRT2 - Scalar(2)).sign_real() == -1
        assert (SQRT2 * SQRT2 - TWO).sign_real() == 0

    def test_is_real(self):
        assert SQRT2.is_real()
        assert not OMEGA.is_real()
        assert (OMEGA + OMEGA.conj()).is_real()


# -- differential tests against a four-Fraction reference -----------------
#
# The reference below keeps the four coordinates as separate Fractions and
# computes the inverse from the three Galois conjugates, the textbook
# construction, independently of the integer form under test.


def ref_mul(x: tuple, y: tuple) -> tuple:
    out = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4):
            if i + j >= 4:
                out[i + j - 4] -= x[i] * y[j]
            else:
                out[i + j] += x[i] * y[j]
    return tuple(out)


def ref_galois(x: tuple, k: int) -> tuple:
    out = [Fraction(0)] * 4
    for j, c in enumerate(x):
        e = (j * k) % 8
        if e >= 4:
            out[e - 4] -= c
        else:
            out[e] += c
    return tuple(out)


def ref_inverse(x: tuple) -> tuple:
    cofactor = ref_mul(ref_mul(ref_galois(x, 3), ref_galois(x, 5)), ref_galois(x, 7))
    norm = ref_mul(x, cofactor)
    assert norm[1:] == (0, 0, 0)
    return tuple(c / norm[0] for c in cofactor)


def coords(s: Scalar) -> tuple:
    """The Fraction coordinates of s, after checking the canonical form."""
    assert all(type(c) is int for c in s.n) and type(s.d) is int
    assert s.d > 0
    assert math.gcd(*s.n, s.d) == 1
    a = s.a
    assert all(type(c) is Fraction for c in a)
    return a


def check_ops(x: Scalar, y: Scalar) -> None:
    a, b = coords(x), coords(y)
    assert coords(x + y) == tuple(p + q for p, q in zip(a, b))
    assert coords(x - y) == tuple(p - q for p, q in zip(a, b))
    assert coords(x * y) == ref_mul(a, b)
    assert coords(-x) == tuple(-p for p in a)
    assert coords(x.conj()) == (a[0], -a[3], -a[2], -a[1])
    for k in (1, 3, 5, 7):
        assert coords(x.galois(k)) == ref_galois(a, k)
    if x.is_zero():
        assert a == (0, 0, 0, 0)
    else:
        assert coords(x.inverse()) == ref_inverse(a)
        assert x * x.inverse() == ONE


def big_fraction(rng: random.Random) -> Fraction:
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30))


big_fractions = st.fractions(max_denominator=10**30)
big_scalars = st.builds(Scalar, big_fractions, big_fractions, big_fractions, big_fractions)


class TestIntegerCoordinates:
    @given(scalars, scalars)
    def test_small_coordinates_match_reference(self, x, y):
        check_ops(x, y)

    @given(big_scalars, big_scalars)
    def test_large_denominators_match_reference(self, x, y):
        check_ops(x, y)

    def test_seeded_denominators_up_to_1e30(self):
        rng = random.Random(404)
        for _ in range(150):
            x = Scalar(*(big_fraction(rng) for _ in range(4)))
            y = Scalar(*(big_fraction(rng) for _ in range(4)))
            check_ops(x, y)
            check_ops(x, x)  # equal denominators
            check_ops(x, x.conj())

    def test_inverse_of_real_scalars_with_negative_norm(self):
        # p + q*sqrt(2) with p^2 < 2q^2: the norm p^2 - 2q^2 down to Q is negative.
        for p, q in [(1, -1), (-1, 1), (Fraction(1, 3), Fraction(5, 7)), (3, -(10**20) - 1)]:
            x = Scalar(p, q, 0, -q)
            assert x.is_real() and p * p - 2 * q * q < 0
            check_ops(x, ONE)
        assert (SQRT2 - ONE).inverse() == SQRT2 + ONE

    def test_equal_values_are_equal_and_hash_alike(self):
        pairs = [
            (Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 2)), ONE),
            (Scalar(Fraction(2, 4), 0, 0, 0), HALF),
            (Scalar(Fraction(3), Fraction(-6, 3)), Scalar(3, -2)),
            (Scalar(Fraction(1, 3)) * Scalar(3), ONE),
            (HALF * TWO - ONE, ZERO),
            (OMEGA * Scalar(Fraction(1, 6)) + OMEGA * Scalar(Fraction(1, 3)), OMEGA * HALF),
        ]
        for x, y in pairs:
            coords(x)
            assert x == y and hash(x) == hash(y)
            assert (x.n, x.d) == (y.n, y.d)
        assert Scalar(Fraction(1, 2)) != Scalar(Fraction(1, 3))
        assert Scalar(1, 2) != Scalar(1, 2, 0, 1)

    @given(big_scalars)
    def test_text_round_trip_and_coordinates(self, x):
        assert parse_scalar(format_scalar(x)) == x
        assert all(type(c) is Fraction for c in x.a)
        assert Scalar(*x.a) == x

    def test_int_and_fraction_arguments_agree(self):
        assert Scalar(1, -2, 3, 0) == Scalar(Fraction(1), Fraction(-2), Fraction(3), Fraction(0))
        assert Scalar(1, 2, 3, 4).d == 1
        assert Scalar(Fraction(1, 4), Fraction(1, 6)).d == 12
