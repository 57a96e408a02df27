"""Polynomial arithmetic, deflation, and the unit-root searches."""

import functools
import json
import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from scfactor import NotAValidRoot, ParseError, Poly, deflate, durand_kerner, poly_gcd, unit_roots
from scfactor import poly as poly_mod
from scfactor.cli import main
from scfactor.errors import NoncommutativeRing
from scfactor.poly import MAX_COMPOSITE_MODULUS, verified_roots
from scfactor.rings import (FloatComplex, GaussianRationals, IntegersMod,
                            Rationals, RationalQuaternions)


def P(ring, *ascending):
    return Poly(ring, [ring.el(c) for c in ascending])


class TestPolyBasics:
    def test_trim_and_degree(self):
        R = Rationals()
        assert P(R, 1, 0, 0).degree == 0
        assert P(R).degree == -1
        assert P(R, 0, 0, 3).degree == 2

    def test_horner_eval(self):
        R = Rationals()
        p = P(R, "-1", "-2", 0, 1)   # x^3 - 2x - 1
        assert p(R.el(-1)) == R.zero
        assert p(R.el(2)) == R.el(3)

    def test_mul_and_divmod(self):
        from scfactor.poly import divmod_poly
        R = IntegersMod(7)
        a = P(R, 1, 1)       # x + 1
        b = P(R, "-1", "-1", 1)  # x^2 - x - 1
        q, r = divmod_poly(a * b, a)
        assert q == b and r.is_zero

    def test_derivative_char_collapse(self):
        R = IntegersMod(3)
        p = P(R, 0, 2, 0, 1)  # x^3 + 2x
        assert p.derivative() == P(R, 2)

    def test_fmt(self):
        R = Rationals()
        assert P(R, "-1", "-2", 0, 1).fmt() == "x^3 - 2*x - 1"
        assert P(R, "-1", 0, 1).fmt("L") == "L^2 - 1"

    def test_monic(self):
        R = Rationals()
        assert P(R, 2, 4).monic() == P(R, "1/2", 1)


class TestGcd:
    def test_frozen_pair(self):
        R = Rationals()
        g = poly_gcd(P(R, "-1", "-2", 0, 1), P(R, "-1", 0, 1))
        assert g == P(R, 1, 1)

    def test_gcd_with_zero(self):
        R = Rationals()
        g = poly_gcd(P(R, 2, 4), Poly(R, []))
        assert g == P(R, "1/2", 1)

    def test_coprime(self):
        R = IntegersMod(5)
        g = poly_gcd(P(R, 1, 1), P(R, 2, 1))
        assert g.degree == 0


class TestDeflate:
    def test_frozen(self):
        R = Rationals()
        out = deflate(P(R, "-1", "-2", 0, 1), R.el(-1))
        assert out == P(R, "-1", "-1", 1)

    def test_non_root_raises(self):
        R = Rationals()
        with pytest.raises(NotAValidRoot):
            deflate(P(R, "-1", "-2", 0, 1), R.el(2))

    def test_reconstruction(self):
        R = IntegersMod(11)
        p = P(R, 3, 1) * P(R, "-4", 1)
        out = deflate(p, R.el(4))
        assert out * P(R, "-4", 1) == p


class TestUnitRoots:
    def test_z26_contains_minus_one(self):
        R = IntegersMod(26)
        rr = unit_roots(P(R, "-1", "-2", 0, 1), P(R, "-1", 0, 1))
        assert (R.el(25), 1) in rr.roots
        assert rr.method == "exhaustive-units" and rr.exhaustive

    def test_z11_golden_pair(self):
        R = IntegersMod(11)
        Q = P(R, "-1", "-1", 1)
        PP = P(R, 1, 1) * Q
        rr = unit_roots(PP, Q)
        assert [(int(r.v), m) for r, m in rr.roots] == [(4, 1), (8, 1)]

    def test_z5_double_root(self):
        R = IntegersMod(5)
        Q = P(R, "-1", "-1", 1)
        PP = P(R, 1, 1) * Q
        rr = unit_roots(PP, Q)
        assert [(int(r.v), m) for r, m in rr.roots] == [(3, 2)]

    def test_composite_multiplicity_capped(self):
        R = IntegersMod(12)
        rr = unit_roots(P(R, "-1", "-2", 0, 1), P(R, "-1", 0, 1))
        assert (R.el(11), 1) in rr.roots
        assert any("composite" in n for n in rr.notes)

    def test_rational_root(self):
        R = Rationals()
        rr = unit_roots(P(R, "-1", "-2", 0, 1), P(R, "-1", 0, 1))
        assert [(str(r), m) for r, m in rr.roots] == [("-1", 1)]
        assert rr.exhaustive

    def test_rational_no_root(self):
        R = Rationals()
        rr = unit_roots(P(R, 1, 0, 1), P(R, 1, 0, 1))  # x^2 + 1 twice
        assert rr.roots == [] and rr.exhaustive

    def test_gaussian_pair(self):
        R = GaussianRationals()
        rr = unit_roots(P(R, 1, 0, 1), P(R, 0, 1, 0, 1))  # x^2+1, x^3+x
        assert sorted(str(r) for r, _ in rr.roots) == ["-i", "i"]

    def test_zero_root_dropped_with_note(self):
        R = Rationals()
        rr = unit_roots(P(R, 0, 0, 1), Poly(R, []))       # x^2, no constraint
        assert rr.roots == []
        assert any("0" in n for n in rr.notes)

    def test_float_conjugate_pair_ordering(self):
        R = FloatComplex()
        # P = x^3 - x^2 + x - 1 has roots 1, +-i; Q = x^2 + 1 keeps +-i.
        # -i must come first so greedy chain construction is deterministic.
        PP = P(R, "-1", "1", "-1", "1")
        QQ = P(R, "1", "0", "1")
        rr = unit_roots(PP, QQ)
        vals = [r.v for r, _ in rr.roots]
        assert len(vals) == 2
        assert abs(vals[0] - (-1j)) < 1e-8 and abs(vals[1] - 1j) < 1e-8
        assert rr.method == "numeric" and not rr.exhaustive

    def test_noncommutative_refused(self):
        R = RationalQuaternions()
        with pytest.raises(NoncommutativeRing):
            unit_roots(P(R, 1, 1), P(R, 1, 1))

    def test_zero_first_poly_rejected(self):
        R = Rationals()
        with pytest.raises(ParseError):
            unit_roots(Poly(R, []), P(R, 1, 1))


class TestDurandKerner:
    def test_cube_roots_of_unity(self):
        roots = durand_kerner([-1.0, 0.0, 0.0, 1.0])
        roots = sorted(roots, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        import cmath
        expect = sorted([1, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)],
                        key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        for got, want in zip(roots, expect):
            assert abs(got - want) < 1e-10

    def test_non_convergence_raises(self):
        with pytest.raises(ValueError):
            durand_kerner([1.0, 2.0, 3.0, 4.0, 5.0, 1.0], max_iter=1)


class TestVerifiedRoots:
    def test_good_claim(self):
        R = IntegersMod(11)
        Q = P(R, "-1", "-1", 1)
        PP = P(R, 1, 1) * Q
        rr = verified_roots(PP, Q, [R.el(4), R.el(8)])
        assert rr.method == "user-supplied"
        assert [(int(r.v), m) for r, m in rr.roots] == [(4, 1), (8, 1)]

    def test_repeated_claim_counts_multiplicity(self):
        R = IntegersMod(5)
        Q = P(R, "-1", "-1", 1)
        PP = P(R, 1, 1) * Q
        rr = verified_roots(PP, Q, [R.el(3), R.el(3)])
        assert [(int(r.v), m) for r, m in rr.roots] == [(3, 2)]

    def test_bad_claim(self):
        R = IntegersMod(11)
        Q = P(R, "-1", "-1", 1)
        PP = P(R, 1, 1) * Q
        with pytest.raises(NotAValidRoot):
            verified_roots(PP, Q, [R.el(5)])

    def test_non_unit_claim(self):
        R = IntegersMod(12)
        with pytest.raises(NotAValidRoot):
            verified_roots(P(R, 0, 1), Poly(R, []), [R.el(4)])


# ---------------------------------------------------------------------------
# residue roots (gcd route mod p, Hensel lifts and the CRT mod m) against the
# old unit scan


def _horner(cs, x, m):
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


@functools.lru_cache(maxsize=8)
def _values(cs, m):
    """The nonzero cs evaluated by Horner at every u in range(m), mod m."""
    vals = [cs[-1]] * m
    for c in reversed(cs[:-1]):
        vals = [(v * u + c) % m for u, v in enumerate(vals)]
    return vals


def _scan_mult(cs, u, m):
    """How often x - u divides cs over Z_m, by repeated synthetic division."""
    count = 0
    while cs and _horner(cs, u, m) == 0:
        out, acc = [0] * (len(cs) - 1), 0
        for i in range(len(cs) - 1, 0, -1):
            acc = (acc * u + cs[i]) % m
            out[i - 1] = acc
        cs = out
        count += 1
    return count


def _scan_unit_roots(pc, qc, m):
    """Reference: evaluate P and Q at every unit of Z_m, as the seed did."""
    prime = m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))
    pv = _values(tuple(pc), m)
    qv = _values(tuple(qc), m) if qc else pv
    roots = []
    for u in range(1, m):
        if pv[u] or qv[u] or math.gcd(u, m) != 1:
            continue
        if prime:
            mult = _scan_mult(pc, u, m)
            if qc:
                mult = min(mult, _scan_mult(qc, u, m))
        else:
            mult = 1
        roots.append((u, mult))
    notes = ["composite modulus: multiplicities reported as 1"] if roots and not prime else []
    return roots, notes


def _from_roots(roots, cofactor, m):
    """prod (x - r) * cofactor over Z_m, ascending raw ints."""
    cs = [c % m for c in cofactor]
    for r in roots:
        cs = [((cs[i - 1] if i else 0) - r * (cs[i] if i < len(cs) else 0)) % m
              for i in range(len(cs) + 1)]
    return cs


def _assert_matches_scan(R, pc, qc):
    m = R.m
    PP, QQ = Poly(R, pc), Poly(R, qc)
    if PP.is_zero:
        return
    rr = unit_roots(PP, QQ)
    want, notes = _scan_unit_roots([c.v for c in PP.coeffs], [c.v for c in QQ.coeffs], m)
    assert [(r.v, mult) for r, mult in rr.roots] == want, (m, pc, qc)
    assert (rr.method, rr.exhaustive, rr.notes) == ("exhaustive-units", True, notes)


PRIMES_UNDER_200 = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


class TestResidueRootsAgainstScan:
    @pytest.mark.parametrize("p", PRIMES_UNDER_200)
    def test_random_planted_pairs(self, p):
        R = IntegersMod(p)
        rng = random.Random(p)
        for case in range(12):
            common = [rng.randrange(p) for _ in range(rng.randrange(4))]
            if case % 3 == 0 and common:
                common.append(common[0])             # repeated root
            if case % 4 == 1:
                common.append(0)                     # root 0 is not a unit
            own = [rng.randrange(p) for _ in range(rng.randrange(3))]
            pc = _from_roots(common + own,
                             [rng.randrange(p) for _ in range(rng.randrange(3))] + [1], p)
            if case % 4 == 0:
                qc = []                              # Q = 0: no constraint
            else:
                qc = _from_roots(common[:rng.randrange(len(common) + 1)],
                                 [rng.randrange(p)] + [rng.randrange(1, p)], p)
            _assert_matches_scan(R, pc, qc)

    @pytest.mark.parametrize("p", PRIMES_UNDER_200)
    def test_multiplicities_differ_between_p_and_q(self, p):
        # each root goes into P and Q at its own multiplicity (0 to 3), so the
        # reported multiplicity, min(mult_P, mult_Q) as the scan finds it by
        # deflating P and Q separately, is sometimes P's and sometimes Q's
        R = IntegersMod(p)
        rng = random.Random(2000 + p)
        for _ in range(6):
            roots = rng.sample(range(1, p), min(p - 1, 3))
            mp = [rng.randrange(4) for _ in roots]
            mq = [rng.randrange(4) for _ in roots]
            pc = _from_roots([r for r, e in zip(roots, mp) for _ in range(e)],
                             [rng.randrange(p), 1], p)
            qc = _from_roots([r for r, e in zip(roots, mq) for _ in range(e)],
                             [rng.randrange(1, p)], p)
            _assert_matches_scan(R, pc, qc)
            _assert_matches_scan(R, pc, [])

    @pytest.mark.parametrize("p", PRIMES_UNDER_200)
    def test_random_dense_pairs(self, p):
        R = IntegersMod(p)
        rng = random.Random(1000 + p)
        for _ in range(8):
            pc = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
            qc = [rng.randrange(p) for _ in range(rng.randrange(0, 7))]
            _assert_matches_scan(R, pc, qc)

    def test_every_polynomial_over_f2_and_f3(self):
        for p in (2, 3):
            R = IntegersMod(p)
            for pc in product(range(p), repeat=4):
                for qc in product(range(p), repeat=3):
                    _assert_matches_scan(R, list(pc), list(qc))

    def test_composites_match_scan(self):
        # every composite m < 2000: planted common roots with repeats, Q = 0,
        # and P or Q scaled by a p^j dividing m, so that it vanishes mod p (or
        # mod the full p^e) and only the higher digits constrain the lifts
        primes = {p for p in range(2, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))}
        for m in set(range(4, 2000)) - primes:
            powers = [p ** e for p in primes for e in range(1, 11) if m % p ** e == 0]
            R = IntegersMod(m)
            rng = random.Random(m)
            for case in range(3):
                r = [rng.randrange(m) for _ in range(3)]
                pc = _from_roots([r[0], r[0], r[1]], [rng.randrange(m), 1], m)
                qc = _from_roots([r[0], r[2]][:2 - case], [rng.randrange(1, m)], m)
                scale = rng.choice(powers)
                if case == 1:
                    qc = [c * scale % m for c in qc]
                elif case == 2:
                    pc = [c * scale % m for c in pc]
                _assert_matches_scan(R, pc, qc)
                _assert_matches_scan(R, pc, [])

    def test_composite_modulus_cap(self):
        R = IntegersMod(MAX_COMPOSITE_MODULUS + 2)
        with pytest.raises(ParseError, match=str(MAX_COMPOSITE_MODULUS)):
            unit_roots(P(R, 1, 1), Poly(R, []))


# ---------------------------------------------------------------------------
# rational roots by p-adic lifting against the divisor search it replaced


def _int_divisors(n):
    n = abs(n)
    return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0
                   for d in (k, n // k)})


def _divisor_candidates(f, gauss):
    """Reference: every +-a/b with a | f(0) and b | lead f (rational root
    theorem), for the integer polynomial f, as payloads (n, d)."""
    ints = [a for a, _ in f]
    cands = {Fraction(s * a, b) for a in _int_divisors(ints[0])
             for b in _int_divisors(ints[-1]) for s in (1, -1)}
    return sorted((q.numerator, q.denominator) for q in cands)


def _rational_poly(R, roots, cofactor):
    cs = [Fraction(c) for c in cofactor]
    for r in roots:
        cs = [(cs[i - 1] if i else 0) - r * (cs[i] if i < len(cs) else 0)
              for i in range(len(cs) + 1)]
    return Poly(R, cs)


class TestRationalRouteAgainstDivisors:
    def test_random_small_coefficient_pairs(self, monkeypatch):
        R = Rationals()
        rng = random.Random(2024)
        for case in range(300):
            common = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(rng.randint(1, 3))]
            if case % 3 == 0:
                common.append(common[0])
            own = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(rng.randint(0, 2))]
            cof = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))] + [rng.randint(1, 5)]
            PP = _rational_poly(R, common + own, cof)
            QQ = (Poly(R, []) if case % 4 == 0 else
                  _rational_poly(R, common[:rng.randint(0, len(common))],
                                 [rng.randint(-3, 3), rng.randint(1, 3)]))
            got = unit_roots(PP, QQ)
            with monkeypatch.context() as mp:
                mp.setattr(poly_mod, "_rational_root_candidates", _divisor_candidates)
                want = unit_roots(PP, QQ)
            assert [(r.v, mult) for r, mult in got.roots] == \
                [(r.v, mult) for r, mult in want.roots], (PP, QQ)
            assert (got.method, got.exhaustive, got.notes) == \
                (want.method, want.exhaustive, want.notes)

    def test_large_roots_found_quickly(self):
        R = Rationals()
        big = Fraction(10**12 + 39, 7)
        g = _rational_poly(R, [big, Fraction(-3, 5)], [-(10**24 + 7), 0, 1])
        t0 = time.perf_counter()
        rr = unit_roots(g * P(R, 2, 1), g)
        assert time.perf_counter() - t0 < 2.0
        assert [(r.v, mult) for r, mult in rr.roots] == [((-3, 5), 1), ((10**12 + 39, 7), 1)]
        assert rr.method == "rational-root" and rr.exhaustive


# ---------------------------------------------------------------------------
# Gaussian-rational roots by p-adic lifting against the divisor search it replaced


def _gaussian_int_divisors(z):
    """One associate (re > 0, im >= 0) of every d in Z[i] with d | z (z != 0),
    found among the Gaussian integers whose norm divides N(z)."""
    nz = z[0] * z[0] + z[1] * z[1]
    out = []
    for nd in _int_divisors(nz):
        for x in range(1, math.isqrt(nd) + 1):
            y = math.isqrt(nd - x * x)
            if y * y == nd - x * x and (z[0] * x + z[1] * y) % nd == 0 \
                    and (z[1] * x - z[0] * y) % nd == 0:
                out.append((x, y))
    return out


def _gaussian_divisor_candidates(zs, gauss):
    """Reference: every unit * a/b with a | f(0) and b | lead f in Z[i], for
    the Gaussian-integer polynomial f, as payloads (x, y, d)."""
    cands = set()
    for a in _gaussian_int_divisors(zs[0]):
        for b in _gaussian_int_divisors(zs[-1]):
            nb = b[0] * b[0] + b[1] * b[1]
            re = Fraction(a[0] * b[0] + a[1] * b[1], nb)
            im = Fraction(a[1] * b[0] - a[0] * b[1], nb)
            for u in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                cands.add((re * u[0] - im * u[1], re * u[1] + im * u[0]))
    return sorted(GaussianRationals().el(c).v for c in cands)


def _poly_with_roots(R, roots, cofactor):
    out = Poly(R, [R.el(c) for c in cofactor])
    for r in roots:
        out = out * Poly(R, [-R.el(r), R.one])
    return out


class TestGaussianRouteAgainstDivisors:
    def test_random_small_coefficient_pairs(self, monkeypatch):
        R = GaussianRationals()
        rng = random.Random(2025)

        def rand_root(lo, hi, den):
            return (Fraction(rng.randint(lo, hi), rng.randint(1, den)),
                    Fraction(rng.randint(lo, hi), rng.randint(1, den)))

        for case in range(150):
            common = [rand_root(-4, 4, 2) for _ in range(rng.randint(1, 2))]
            if case % 3 == 0:
                common.append(common[0])
            if case % 5 == 0:
                common.append((0, 0))
            # With Q = 0 every root of P is common, so P needs no roots of its own.
            own = [rand_root(-3, 3, 2) for _ in range(rng.randint(0, case % 4 and 1))]
            cof = [(rng.randint(-2, 2), rng.randint(-2, 2))
                   for _ in range(rng.randint(0, 1))] + [(rng.randint(1, 2), rng.randint(0, 1))]
            PP = _poly_with_roots(R, common + own, cof)
            QQ = (Poly(R, []) if case % 4 == 0 else
                  _poly_with_roots(R, common[:rng.randint(0, len(common))],
                                 [(rng.randint(-3, 3), rng.randint(-2, 2)), (1, rng.randint(0, 1))]))
            got = unit_roots(PP, QQ)
            with monkeypatch.context() as mp:
                mp.setattr(poly_mod, "_rational_root_candidates", _gaussian_divisor_candidates)
                want = unit_roots(PP, QQ)
            assert [(r.v, mult) for r, mult in got.roots] == \
                [(r.v, mult) for r, mult in want.roots], (PP, QQ)
            assert (got.method, got.exhaustive, got.notes) == \
                (want.method, want.exhaustive, want.notes)

    def test_large_roots_found_quickly(self):
        R = GaussianRationals()
        big = (Fraction(10**12 + 39, 7), Fraction(-(10**9 + 7), 3))
        small = (Fraction(-3, 5), Fraction(2))
        g = _poly_with_roots(R, [big, small], [(-(10**24 + 7), 0), (0, 0), (1, 0)])
        t0 = time.perf_counter()
        rr = unit_roots(g * P(R, 2, 1), g)
        assert time.perf_counter() - t0 < 2.0
        assert [(r.v, mult) for r, mult in rr.roots] == \
            [((-3, 10, 5), 1), ((3 * (10**12 + 39), -7 * (10**9 + 7), 21), 1)]
        assert rr.method == "rational-root" and rr.exhaustive


class TestPadicLifting:
    @pytest.mark.parametrize("ring, root", [
        (Rationals(), 2**31 + 6),                   # p = 2: M = 2^32 is too small
        (GaussianRationals(), (0, 5**16 - 10)),     # p = 5: M = 5^16 is too small
    ], ids=["rational", "gaussian"])
    def test_lift_reaches_the_bound(self, ring, root):
        # g = (x - root)(x + 1) has |lead * root| = |g(0)|, so the root is read
        # off correctly only once M exceeds twice its size, one squaring later.
        g = _poly_with_roots(ring, [root, -1], [1])
        rr = unit_roots(g * P(ring, 2, 1), g)
        assert [r.v for r, _ in rr.roots] == sorted((ring.el(-1).v, ring.el(root).v))

    @pytest.mark.parametrize("ring, roots, prime", [
        # lead f = 5 after clearing denominators: 5 divides N(lead f)
        (GaussianRationals(), [(Fraction(1, 5), 1), (2, 0)], 13),
        # 2 and i collide mod 5 under i -> 2, though not under i -> 3
        (GaussianRationals(), [(2, 0), (0, 1), (3, 1)], 13),
        # two of 1, 7 and 31 collide mod 2, 3 and 5
        (Rationals(), [1, 7, 31], 7),
    ], ids=["gaussian-lead", "gaussian-one-embedding", "rational-discriminant"])
    def test_prime_search_skips_bad_primes(self, monkeypatch, ring, roots, prime):
        primes = []
        real = poly_mod._roots_mod_p

        def spy(f, p):
            primes.append(p)
            return real(f, p)

        monkeypatch.setattr(poly_mod, "_roots_mod_p", spy)
        g = _poly_with_roots(ring, roots, [1])
        rr = unit_roots(g * P(ring, 1, 1), g)
        assert set(primes) == {prime}
        assert sorted(r.v for r, _ in rr.roots) == sorted(ring.el(r).v for r in roots)


# ---------------------------------------------------------------------------
# whole jobs that the unit scan or the divisor search could not finish


def _order3_job(tmp_path, ring, a, b):
    doc = {"ring": ring, "module": {"dim": 1},
           "recurrence": {"a": [str(v) for v in a], "b": [str(v) for v in b],
                          "g": {"kind": "expression", "exprs": ["u1*u1"]}},
           "initial": ["1", "2", "3"]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("p", [10**9 + 7, 10**18 + 9])
def test_factor_job_over_large_prime(tmp_path, capsys, p):
    # P = (x - r1)(x - r2)(x - r3), Q = (x - r1)(x - r2): the chain takes
    # r1 and r2 in ascending order and leaves r3 in the first-order factor.
    r1, r2, r3 = 5, p - 3, 123456789
    e1, e2, e3 = r1 + r2 + r3, r1 * r2 + r1 * r3 + r2 * r3, r1 * r2 * r3
    a = [e1 % p, -e2 % p, e3 % p]
    b = [1, -(r1 + r2) % p, r1 * r2 % p]
    path = _order3_job(tmp_path, {"kind": "integers-mod-m", "modulus": p}, a, b)
    t0 = time.perf_counter()
    code = main(["factor", path, "--json"])
    assert time.perf_counter() - t0 < 2.0
    out = capsys.readouterr()
    assert code == 0 and "Traceback" not in out.err
    steps = json.loads(out.out)["chain"]["steps"]
    assert [st["rho"] for st in steps] == [str(r1), str(r2)]


def test_rational_job_with_huge_irrational_gcd(tmp_path, capsys):
    # P = x^3 - N x and Q = x^2 - N share x^2 - N, N = 10^24 + 7, which has
    # no rational root; a divisor search would trial-divide up to 10^12.
    n = 10**24 + 7
    path = _order3_job(tmp_path, {"kind": "exact-rational"}, [0, n, 0], [1, 0, -n])
    t0 = time.perf_counter()
    code = main(["factor", path])
    assert time.perf_counter() - t0 < 2.0
    assert code == 3
    assert "method rational-root, exhaustive" in capsys.readouterr().out


def test_gaussian_job_with_huge_irrational_gcd(tmp_path, capsys):
    # The same gcd x^2 - N over Q(i): a Gaussian divisor search would
    # enumerate the divisors of N^2 = N(g(0)).
    n = 10**24 + 7
    path = _order3_job(tmp_path, {"kind": "gaussian-rational"}, [0, n, 0], [1, 0, -n])
    t0 = time.perf_counter()
    code = main(["factor", path])
    assert time.perf_counter() - t0 < 2.0
    assert code == 3
    assert "method rational-root, exhaustive" in capsys.readouterr().out


def test_composite_modulus_over_cap_exits_2(tmp_path, capsys):
    m = 2 * 1000003
    path = _order3_job(tmp_path, {"kind": "integers-mod-m", "modulus": m}, [0, 2, 1], [1, 0, -1])
    assert main(["factor", path]) == 2
    err = capsys.readouterr().err
    assert str(MAX_COMPOSITE_MODULUS) in err and "Traceback" not in err
