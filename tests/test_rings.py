"""Element arithmetic, parsing, and formatting across the six rings."""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from scfactor import DivisionByNonUnit, Module, ParseError, Vec, make_ring
from scfactor.rings import (MAX_MODULUS, FloatComplex, GaussianRationals, IntegersMod,
                            Rationals, RationalQuaternions, _fmt_signed, _parse_terms, _qmul,
                            _ratio_bits, is_prime)

# Components with zeros, signs, denominators sharing small prime factors, and
# numerators far past one machine word.
_DENOMS = st.sampled_from([1, 2, 3, 4, 6, 9, 12, 36, 2**61 - 1, 6**40])
_NUMERS = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-2**200, 2**200))
_QCOMP = st.builds(Fraction, _NUMERS, _DENOMS)
_QUAT = st.tuples(_QCOMP, _QCOMP, _QCOMP, _QCOMP)


class TestIntegersMod:
    def test_inverse_frozen(self):
        R = IntegersMod(26)
        assert R.el(7).inverse() == R.el(15)
        assert R.el(7) * R.el(15) == R.one

    def test_non_unit_inverse_raises(self):
        R = IntegersMod(26)
        with pytest.raises(DivisionByNonUnit):
            R.el(13).inverse()

    def test_prime_flag(self):
        assert IntegersMod(11).is_prime
        assert not IntegersMod(12).is_prime

    def test_is_prime_matches_trial_division(self):
        for m in range(100_000):
            want = m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))
            assert is_prime(m) == want, m

    def test_is_prime_rejects_pseudoprimes(self):
        # Carmichael numbers, then the least strong pseudoprimes to the
        # bases 2, 2..7 and 2..37 (the last is caught only by base 41).
        for m in (561, 1105, 1729, 2465, 2821, 6601, 8911, 2047, 3215031751,
                  318665857834031151167461):
            assert not is_prime(m), m
        for p in (10**9 + 7, 10**18 + 9, 2**61 - 1, 2**89 - 1):
            assert is_prime(p), p

    def test_modulus_limit(self):
        assert IntegersMod(MAX_MODULUS).m == MAX_MODULUS
        # MAX_MODULUS + 1 is a strong pseudoprime to every base used
        with pytest.raises(ParseError, match=str(MAX_MODULUS)):
            IntegersMod(MAX_MODULUS + 1)

    def test_char(self):
        assert IntegersMod(12).char() == 12

    def test_negative_literal_wraps(self):
        R = IntegersMod(7)
        assert R.parse("-1") == R.el(6)

    def test_bad_modulus(self):
        with pytest.raises(ParseError):
            IntegersMod(1)


class TestRationals:
    def test_parse_fraction(self):
        R = Rationals()
        assert str(R.parse("2/6")) == "1/3"

    def test_division_by_zero(self):
        R = Rationals()
        with pytest.raises(DivisionByNonUnit):
            R.el(1) / R.el(0)

    def test_every_nonzero_is_unit(self):
        R = Rationals()
        assert R.el("-3/7").is_unit
        assert not R.zero.is_unit


class TestGaussianRationals:
    def test_inverse_frozen(self):
        R = GaussianRationals()
        inv = R.parse("1+2i").inverse()
        assert str(inv) == "1/5-2/5i"

    def test_parse_format_roundtrip(self):
        R = GaussianRationals()
        for text in ["1/2-2/3i", "-i", "3", "2i", "-1/4+i"]:
            assert R.parse(str(R.parse(text))) == R.parse(text)


class TestFloatComplex:
    def test_relative_tolerance_eq(self):
        R = FloatComplex(tolerance=1e-9)
        assert R.el(1.0) == R.el(1.0 + 1e-12)
        assert R.el(1.0) != R.el(1.0 + 1e-6)

    def test_scientific_literal(self):
        R = FloatComplex()
        z = R.parse("1.5e-3+2i")
        assert z.v == complex(1.5e-3, 2.0)

    def test_hash_refused(self):
        R = FloatComplex()
        with pytest.raises(TypeError):
            hash(R.el(1.0))

    def test_fraction_literal_rejected(self):
        R = FloatComplex()
        with pytest.raises(ParseError):
            R.parse("1/2")


class TestQuaternions:
    def test_hamilton_products(self):
        R = RationalQuaternions()
        i, j, k = R.parse("i"), R.parse("j"), R.parse("k")
        assert i * j == k
        assert j * i == -k
        assert i * i == -R.one

    def test_division_order_matters(self):
        R = RationalQuaternions()
        i, j, k = R.parse("i"), R.parse("j"), R.parse("k")
        assert i / j == -k          # right division: i * j^-1
        assert j.inverse() * i == k

    def test_inverse_two_sided(self):
        R = RationalQuaternions()
        q = R.parse("1+i+j+k")
        assert q * q.inverse() == R.one
        assert q.inverse() * q == R.one
        assert str(q.inverse()) == "1/4-1/4i-1/4j-1/4k"

    def test_not_commutative_flag(self):
        assert not RationalQuaternions().commutative

    def test_parse_format_roundtrip(self):
        R = RationalQuaternions()
        for text in ["1-i+2j-k", "-1/2+1/2i", "j", "-k"]:
            assert R.parse(str(R.parse(text))) == R.parse(text)

    def test_scalar_payloads(self):
        R = RationalQuaternions()
        assert R.el(Fraction(-3, 4)).v == (-3, 0, 0, 0, 4)
        assert R.el(0).v == R.zero.v == (0, 0, 0, 0, 1)
        assert R.el((Fraction(1, 6), 0, Fraction(-1, 4), 2)).v == (2, 0, -3, 24, 12)

    @settings(max_examples=300, deadline=None)
    @given(_QUAT, _QUAT)
    @example((Fraction(0),) * 4, (Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(5, 6)))
    @example((Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(1), Fraction(0)))
    @example((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)),
             (Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(0)))
    def test_payload_matches_fraction_reference(self, a, b):
        """The integer 5-tuple payload against Fraction 4-tuples, the payload
        it replaced: every operation, in both orders, and the canonical form
        of every result."""
        R = RationalQuaternions()
        pa, pb = R._normalize(a), R._normalize(b)
        for q, p in ((a, pa), (b, pb)):
            assert _fractions(p) == q
            assert _ratio_bits(p) == max(max(c.numerator.bit_length(), c.denominator.bit_length())
                                     for c in q)
            assert R.fmt(p) == _fmt_signed(list(zip(q, ("", "i", "j", "k"))))
            assert R._parse(R.fmt(p)) == p
            assert _fractions(R._neg(p)) == tuple(-c for c in q)
            n = sum(c * c for c in q)
            inv = R._inv(p)
            assert inv is None if n == 0 else \
                _fractions(inv) == (q[0] / n, -q[1] / n, -q[2] / n, -q[3] / n)
        assert R._eq(pa, pb) == (a == b)
        for (x, px), (y, py) in (((a, pa), (b, pb)), ((b, pb), (a, pa))):
            got = R._add(px, py)
            assert _fractions(got) == tuple(u + v for u, v in zip(x, y))
            assert R._eq(R._add(got, R._neg(py)), px)
            assert _fractions(R._mul(px, py)) == _qmul(x, y)
        results = [pa, pb, R._neg(pa), R._add(pa, pb), R._mul(pa, pb), R._mul(pb, pa),
                   R._inv(pa) or pa]
        for p in results:
            assert len(p) == 5 and all(type(c) is int for c in p)
            assert p[4] > 0 and math.gcd(*p) == 1


def _fractions(p):
    """A rational-quaternion payload as the Fraction 4-tuple it stands for."""
    return tuple(Fraction(c, p[4]) for c in p[:4])


# Literal texts from the characters of the rational grammar and its near
# misses: "d" (which Fraction's decimal group accepts), "_", spaces, a tab,
# and a non-ASCII digit.
_LITERAL = st.text(alphabet="0123456789+-./eEd_i jk\t\u0663", max_size=14)
_LITERAL_EXAMPLES = ["1.5", "1e-3", "-3/4", "6/4", " 2 / 4 ", "1/0", "-3/0", "0/0", "1.d", "1.",
                     ".5", "1_000/2_0", "1__0", "+.5e+2_0", "", "-", "1/2-2/3i", "i-i", "3/0i",
                     "-k+1/2j", "\u0663/2", "1e-3+2E2i"]


def _outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as exc:
        return None, str(exc)


def _examples(texts):
    def apply(test):
        for text in texts:
            test = example(text)(test)
        return test
    return apply


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the literal grammar is that of Python 3.11's Fraction")
class TestLiteralsAgainstFraction:
    """The literal parsers against fractions.Fraction, which they replaced:
    accept or refuse alike, the same value, and the same ParseError text."""

    @staticmethod
    def _tame(text):
        # an exponent of five digits or more makes Fraction compute 10**e
        return not re.search(r"[eE][-+]?[\d_]{5}", text)

    @staticmethod
    def _fraction(text):
        """Fraction(text), with the parser's refusal of an exponent whose
        power of 10 passes 8192 bits (above 2466), which Fraction lacks."""
        q = Fraction(text)
        exp = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", text)
        if exp and abs(int(exp[1])) > 2466:
            raise ValueError("exponent larger than 2466 in absolute value: "
                             "10**e would pass the limit of 8192 bits")
        return q

    @settings(max_examples=600, deadline=None)
    @given(_LITERAL)
    @_examples(_LITERAL_EXAMPLES)
    def test_rational(self, text):
        if not self._tame(text):
            return

        def oracle(t):
            try:
                q = self._fraction(t.strip().replace(" ", ""))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational literal {t!r}: {exc}") from exc
            return (q.numerator, q.denominator)
        assert _outcome(Rationals()._parse, text) == _outcome(oracle, text)

    @settings(max_examples=600, deadline=None)
    @given(_LITERAL)
    @_examples(_LITERAL_EXAMPLES)
    def test_gaussian_and_quaternion(self, text):
        if not self._tame(text):
            return
        for ring, units in ((GaussianRationals(), "i"), (RationalQuaternions(), "ijk")):
            def oracle(t, units=units):
                terms = _parse_terms(t, units, self._fraction)
                return tuple(terms.get(u, Fraction(0)) for u in ("", *units))

            def parts(t, ring=ring):
                p = ring._parse(t)
                return tuple(Fraction(c, p[-1]) for c in p[:-1])
            assert _outcome(parts, text) == _outcome(oracle, text)


class TestMakeRing:
    def test_all_kinds(self):
        assert make_ring("integers-mod-m", modulus=7).finite
        assert make_ring("exact-rational").exact
        assert make_ring("gaussian-rational").commutative
        assert not make_ring("float-complex").exact
        assert not make_ring("rational-quaternion").commutative
        assert not make_ring("float-quaternion").exact

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            make_ring("octonions")

    def test_tolerance_plumbed(self):
        R = make_ring("float-complex", tolerance=1e-3)
        assert R.el(1.0) == R.el(1.0 + 1e-4)


class TestModule:
    def test_vector_arithmetic(self):
        M = Module(IntegersMod(7), 2)
        v = M.parse(["1", "2"])
        w = M.parse(["3", "4"])
        assert v + w == M.parse(["4", "6"])
        assert v - w == M.parse(["5", "5"])
        assert IntegersMod(7).el(3) * v == M.parse(["3", "6"])

    def test_bare_string_only_for_dim_one(self):
        M1 = Module(Rationals(), 1)
        assert M1.parse("5/3") == M1.parse(["5/3"])
        M2 = Module(Rationals(), 2)
        with pytest.raises(ParseError):
            M2.parse("5/3")

    def test_component_count_checked(self):
        M = Module(Rationals(), 2)
        with pytest.raises(ParseError):
            M.parse(["1"])

    def test_is_zero(self):
        M = Module(IntegersMod(5), 2)
        assert M.zero.is_zero
        assert not M.parse(["0", "1"]).is_zero

    def test_fmt_list(self):
        M = Module(GaussianRationals(), 2)
        assert M.fmt(M.parse(["1/2-2/3i", "0"])) == ["1/2-2/3i", "0"]


class TestElBasics:
    def test_int_comparison(self):
        R = IntegersMod(9)
        assert R.el(4) == 4
        assert R.el(4) == 13

    def test_cross_ring_rejected(self):
        a = IntegersMod(5).el(1)
        with pytest.raises(ValueError):
            IntegersMod(7).el(a)

    def test_pow(self):
        R = IntegersMod(11)
        assert R.el(2) ** 10 == R.one

    def test_sort_key_orders_units(self):
        R = IntegersMod(12)
        keys = [R.el(u).sort_key() for u in (1, 5, 7, 11)]
        assert keys == sorted(keys)
