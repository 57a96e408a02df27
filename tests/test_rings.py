"""Payload arithmetic, parsing, and formatting across the six rings, and the
element oracle's arithmetic on top of it."""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from elements import el, vec, zero_vec
from scfactor import DivisionByNonUnit, Module, ParseError, make_ring
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
        assert el(R, 7).inverse() == el(R, 15)
        assert el(R, 7) * el(R, 15) == el(R, 1)

    def test_non_unit_inverse_raises(self):
        R = IntegersMod(26)
        with pytest.raises(DivisionByNonUnit):
            el(R, 13).inverse()

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
        assert el(R, "-1") == el(R, 6)

    def test_bad_modulus(self):
        with pytest.raises(ParseError):
            IntegersMod(1)


class TestRationals:
    def test_parse_fraction(self):
        R = Rationals()
        assert str(el(R, "2/6")) == "1/3"

    def test_division_by_zero(self):
        R = Rationals()
        with pytest.raises(DivisionByNonUnit):
            el(R, 1) / el(R, 0)

    def test_every_nonzero_is_unit(self):
        R = Rationals()
        assert el(R, "-3/7").is_unit
        assert not el(R, 0).is_unit


class TestGaussianRationals:
    def test_inverse_frozen(self):
        R = GaussianRationals()
        inv = el(R, "1+2i").inverse()
        assert str(inv) == "1/5-2/5i"

    def test_parse_format_roundtrip(self):
        R = GaussianRationals()
        for text in ["1/2-2/3i", "-i", "3", "2i", "-1/4+i"]:
            assert el(R, str(el(R, text))) == el(R, text)


class TestFloatComplex:
    def test_relative_tolerance_eq(self):
        R = FloatComplex(tolerance=1e-9)
        assert el(R, 1.0) == el(R, 1.0 + 1e-12)
        assert el(R, 1.0) != el(R, 1.0 + 1e-6)

    def test_scientific_literal(self):
        R = FloatComplex()
        z = el(R, "1.5e-3+2i")
        assert z.v == complex(1.5e-3, 2.0)

    def test_hash_refused(self):
        R = FloatComplex()
        with pytest.raises(TypeError):
            hash(el(R, 1.0))

    def test_fraction_literal_rejected(self):
        R = FloatComplex()
        with pytest.raises(ParseError):
            el(R, "1/2")


class TestQuaternions:
    def test_hamilton_products(self):
        R = RationalQuaternions()
        i, j, k = el(R, "i"), el(R, "j"), el(R, "k")
        assert i * j == k
        assert j * i == -k
        assert i * i == -el(R, 1)

    def test_division_order_matters(self):
        R = RationalQuaternions()
        i, j, k = el(R, "i"), el(R, "j"), el(R, "k")
        assert i / j == -k          # right division: i * j^-1
        assert j.inverse() * i == k

    def test_inverse_two_sided(self):
        R = RationalQuaternions()
        q = el(R, "1+i+j+k")
        assert q * q.inverse() == el(R, 1)
        assert q.inverse() * q == el(R, 1)
        assert str(q.inverse()) == "1/4-1/4i-1/4j-1/4k"

    def test_not_commutative_flag(self):
        assert not RationalQuaternions().commutative

    def test_parse_format_roundtrip(self):
        R = RationalQuaternions()
        for text in ["1-i+2j-k", "-1/2+1/2i", "j", "-k"]:
            assert el(R, str(el(R, text))) == el(R, text)

    def test_scalar_payloads(self):
        R = RationalQuaternions()
        assert el(R, Fraction(-3, 4)).v == (-3, 0, 0, 0, 4)
        assert el(R, 0).v == R.zero == (0, 0, 0, 0, 1)
        assert el(R, (Fraction(1, 6), 0, Fraction(-1, 4), 2)).v == (2, 0, -3, 24, 12)

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
        assert el(R, 1.0) == el(R, 1.0 + 1e-4)

    @pytest.mark.parametrize("kind", ["integers-mod-m", "exact-rational", "gaussian-rational",
                                      "rational-quaternion"])
    def test_tolerance_refused_on_exact_kinds(self, kind):
        modulus = 7 if kind == "integers-mod-m" else None
        with pytest.raises(ParseError, match=f"ring kind '{kind}' does not take a tolerance"):
            make_ring(kind, modulus=modulus, tolerance=0.5)

    @pytest.mark.parametrize("kind", ["float-complex", "float-quaternion"])
    def test_modulus_refused_on_float_kinds(self, kind):
        with pytest.raises(ParseError, match=f"ring kind '{kind}' does not take a modulus"):
            make_ring(kind, modulus=7)
        with pytest.raises(ParseError, match="does not take a modulus"):
            make_ring(kind, modulus=7, tolerance=1e-6)


class TestModule:
    def test_vector_arithmetic(self):
        M = Module(IntegersMod(7), 2)
        v = vec(M, ["1", "2"])
        w = vec(M, ["3", "4"])
        assert v + w == vec(M, ["4", "6"])
        assert v - w == vec(M, ["5", "5"])
        assert el(IntegersMod(7), 3) * v == vec(M, ["3", "6"])

    def test_bare_string_only_for_dim_one(self):
        M1 = Module(Rationals(), 1)
        assert M1.payloads("5/3") == M1.payloads(["5/3"]) == [(5, 3)]
        assert M1.payloads((10, 6)) == [(5, 3)]          # a bare payload
        M2 = Module(Rationals(), 2)
        with pytest.raises(ParseError, match="expected 2 components, got 1"):
            M2.payloads("5/3")

    def test_component_count_checked(self):
        M = Module(Rationals(), 2)
        with pytest.raises(ParseError):
            M.payloads(["1"])

    def test_is_zero(self):
        M = Module(IntegersMod(5), 2)
        assert zero_vec(M).is_zero
        assert not vec(M, ["0", "1"]).is_zero

    def test_fmt_list(self):
        M = Module(GaussianRationals(), 2)
        assert list(map(M.ring.fmt, M.payloads(["1/2-2/3i", "0"]))) == ["1/2-2/3i", "0"]


class TestRingPayload:
    @pytest.mark.parametrize("kind, literal, payload", [
        ("integers-mod-m", "-1", 6),
        ("exact-rational", "2/6", (1, 3)),
        ("gaussian-rational", "1/2-i", (1, -2, 2)),
        ("float-complex", "1.5-2i", 1.5 - 2j),
        ("rational-quaternion", "1/2+j", (1, 0, 2, 0, 2)),
        ("float-quaternion", "0.5-k", (0.5, 0.0, 0.0, -1.0)),
    ])
    def test_literal_int_and_payload(self, kind, literal, payload):
        # a literal, an int and a payload all come out canonical
        R = make_ring(kind, modulus=7) if kind == "integers-mod-m" else make_ring(kind)
        assert R.payload(literal) == payload
        assert R.payload(payload) == payload
        assert R.payload(3) == R._normalize(3) and R.payload(0) == R.zero
        assert R._eq(R.payload(1), R.one)

    def test_exact_payload_brought_to_lowest_terms(self):
        assert Rationals().payload((4, 6)) == (2, 3)
        assert RationalQuaternions().payload((2, 0, 4, 0, 6)) == (1, 0, 2, 0, 3)
        with pytest.raises(ParseError):
            Rationals().payload((1, 0))

    def test_booleans_refused(self):
        with pytest.raises(ParseError, match="booleans are not ring elements"):
            IntegersMod(7).payload(True)

    def test_inverse(self):
        R = IntegersMod(26)
        assert R.inverse(7) == 15
        with pytest.raises(DivisionByNonUnit, match="13 is not a unit in Z_26"):
            R.inverse(13)


class TestElBasics:
    def test_int_comparison(self):
        R = IntegersMod(9)
        assert el(R, 4) == 4
        assert el(R, 4) == 13

    def test_cross_ring_rejected(self):
        a = el(IntegersMod(5), 1)
        with pytest.raises(ValueError):
            el(IntegersMod(7), a)

    def test_pow(self):
        R = IntegersMod(11)
        assert el(R, 2) ** 10 == el(R, 1)

    def test_sort_key_orders_units(self):
        R = IntegersMod(12)
        keys = [el(R, u).sort_key() for u in (1, 5, 7, 11)]
        assert keys == sorted(keys)
