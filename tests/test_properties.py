"""Property-based checks: algebra laws, planted-root factorizations, engine
round trips. Examples are kept small so the whole module stays fast."""

import json
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from scfactor import (GMap, Module, Poly, Recurrence, build_family, deflate,
                      factor_chain, factor_once, make_coeff,
                      make_ring, poly_gcd, simulate, verify_equivalence)
from scfactor.cli import canonical_json
from scfactor.poly import divmod_poly

PRIMES = [5, 7, 11, 13, 97]
MODULI = PRIMES + [6, 12, 26]

small_int = st.integers(min_value=-50, max_value=50)


def sq_map(module):
    return GMap.expression(module, ["u1*u1"], {})


class TestRingLaws:
    @given(m=st.sampled_from(MODULI), xs=st.tuples(small_int, small_int, small_int))
    def test_residue_arithmetic(self, m, xs):
        R = make_ring("integers-mod-m", modulus=m)
        a, b, c = (R.el(x) for x in xs)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + R.zero == a and a * R.one == a
        assert a * b == b * a
        assert a - a == R.zero

    @given(m=st.sampled_from(MODULI), x=small_int)
    def test_unit_inverse(self, m, x):
        R = make_ring("integers-mod-m", modulus=m)
        e = R.el(x)
        assume(e.is_unit)
        assert e * e.inverse() == R.one
        assert e.inverse().inverse() == e

    @given(m=st.sampled_from(MODULI), x=small_int)
    def test_parse_format_round_trip_residue(self, m, x):
        R = make_ring("integers-mod-m", modulus=m)
        e = R.el(x)
        assert R.parse(str(e)) == e

    @given(n=small_int, d=st.integers(min_value=1, max_value=40))
    def test_parse_format_round_trip_rational(self, n, d):
        R = make_ring("exact-rational")
        e = R.parse(f"{n}/{d}")
        assert R.parse(str(e)) == e

    @given(a=small_int, b=small_int)
    def test_parse_format_round_trip_gaussian(self, a, b):
        R = make_ring("gaussian-rational")
        e = R.el(a) + R.el(b) * R.parse("i")
        assert R.parse(str(e)) == e

    @given(w=st.tuples(small_int, small_int, small_int, small_int))
    def test_quaternion_associativity_and_inverse(self, w):
        R = make_ring("rational-quaternion")
        units = [R.one, R.parse("i"), R.parse("j"), R.parse("k")]
        q = sum((R.el(c) * u for c, u in zip(w, units)), R.zero)
        p = R.parse("1+2i") * q - R.parse("k")
        assert (q * p) * q == q * (p * q)
        assert R.parse(str(q)) == q
        assume(q.is_unit)
        assert q * q.inverse() == R.one
        assert q.inverse() * q == R.one


class TestPolyLaws:
    @given(p=st.sampled_from(PRIMES), r=small_int,
           coeffs=st.lists(small_int, min_size=1, max_size=5))
    def test_deflate_recovers_cofactor(self, p, r, coeffs):
        R = make_ring("integers-mod-m", modulus=p)
        Q = Poly(R, coeffs)
        assume(not Q.is_zero)
        rho = R.el(r)
        prod = Q * Poly(R, [-rho, R.one])
        assert deflate(prod, rho) == Q

    @given(p=st.sampled_from(PRIMES),
           ac=st.lists(small_int, min_size=1, max_size=5),
           bc=st.lists(small_int, min_size=1, max_size=5))
    def test_gcd_divides_both_and_is_monic(self, p, ac, bc):
        R = make_ring("integers-mod-m", modulus=p)
        A, B = Poly(R, ac), Poly(R, bc)
        assume(not (A.is_zero and B.is_zero))
        g = poly_gcd(A, B)
        assert g.leading == R.one
        for h in (A, B):
            if not h.is_zero:
                _, rem = divmod_poly(h, g)
                assert rem.is_zero

    @given(p=st.sampled_from(PRIMES),
           ac=st.lists(small_int, min_size=1, max_size=4),
           bc=st.lists(small_int, min_size=1, max_size=4))
    def test_division_identity(self, p, ac, bc):
        R = make_ring("integers-mod-m", modulus=p)
        A, B = Poly(R, ac), Poly(R, bc)
        assume(not B.is_zero)
        q, rem = divmod_poly(A, B)
        assert q * B + rem == A
        assert rem.is_zero or rem.degree < B.degree


class TestPlantedFactorizations:
    @settings(max_examples=40)
    @given(p=st.sampled_from(PRIMES),
           r=st.integers(min_value=1, max_value=96),
           s=st.integers(min_value=1, max_value=96),
           u=st.one_of(st.none(), small_int),
           init=st.lists(small_int, min_size=4, max_size=4))
    def test_fsc_chain_verifies(self, p, r, s, u, init):
        # fsc guarantees P = (x - r) Q; planting the unit root s inside Q
        # guarantees a common unit root, so a reduction must exist and the
        # two simulations must agree
        assume(r % p != 0 and s % p != 0)
        R = make_ring("integers-mod-m", modulus=p)
        M = Module(R, 1)
        if u is None:
            btail = [str(-s)]                      # Q = x - s
        else:
            btail = [str(-(s + u)), str(s * u)]    # Q = (x - s)(x - u)
        fam = build_family(M, "fsc", {"r": str(r), "b": btail}, sq_map(M))
        chain = factor_chain(fam.recurrence)
        assert chain.steps
        window = init[:fam.recurrence.order]
        rep = verify_equivalence(fam.recurrence, chain, window, 30)
        assert rep.equal

    @settings(max_examples=40)
    @given(p=st.sampled_from(PRIMES),
           a=st.lists(small_int, min_size=1, max_size=2),
           b=st.integers(min_value=1, max_value=96),
           init=st.lists(small_int, min_size=4, max_size=4))
    def test_alsp_substitution_verifies(self, p, a, b, init):
        assume(b % p != 0 and a[-1] % p != 0)
        from scfactor import substitution_factorization
        R = make_ring("integers-mod-m", modulus=p)
        M = Module(R, 1)
        fam = build_family(M, "alsp",
                           {"a": [str(v) for v in a], "b": str(b)}, sq_map(M))
        sub = substitution_factorization(fam)
        window = init[:fam.recurrence.order]
        rep = verify_equivalence(fam.recurrence, sub, window, 30)
        assert rep.equal


# (kind, modulus): a prime and a composite modulus, and the commutative rings
# that have a constant-root route
COMMUTATIVE_RINGS = [("integers-mod-m", 97), ("integers-mod-m", 45), ("exact-rational", None),
                     ("gaussian-rational", None), ("float-complex", None)]
scalar_parts = st.tuples(small_int, small_int, st.integers(min_value=1, max_value=6))


def _scalar(R, parts):
    """A residue n, a rational n/d, a Gaussian rational n/d + m*i, or the
    complex float n/d + m*i."""
    n, m, d = parts
    if R.kind == "integers-mod-m":
        return R.el(n)
    if R.kind == "exact-rational":
        return R.el(Fraction(n, d))
    if R.kind == "gaussian-rational":
        return R.el((Fraction(n, d), Fraction(m)))
    return R.el(complex(n / d, m))


class TestFactorOnceAgainstDeflation:
    @settings(max_examples=150, deadline=None)
    @given(ring=st.sampled_from(COMMUTATIVE_RINGS), rho=scalar_parts,
           p_cof=st.lists(scalar_parts, min_size=1, max_size=4),
           q_cof=st.lists(scalar_parts, max_size=4))
    def test_rows_are_the_deflated_pair(self, ring, rho, p_cof, q_cof):
        # P = (x - rho) * monic cofactor and Q = (x - rho) * cofactor (zero when
        # the cofactor is), so rho is a planted common root; factor_once's Horner
        # rows must be the coefficients of P / (x - rho) and Q / (x - rho)
        kind, modulus = ring
        R = make_ring(kind, modulus=modulus)
        rho = _scalar(R, rho)
        assume(rho.is_unit)
        x_rho = Poly(R, [-rho, R.one])
        P = x_rho * Poly(R, [_scalar(R, c) for c in p_cof] + [R.one])
        Q = x_rho * Poly(R, [_scalar(R, c) for c in q_cof[:len(p_cof)]])
        k = P.degree - 1
        M = Module(R, 1)
        rec = Recurrence(M, [-P.coeff(k - i) for i in range(k + 1)],
                         [Q.coeff(k - i) for i in range(k + 1)], sq_map(M))
        assert rec.char_pair() == (P, Q)
        step = factor_once(rec, rho)
        P1 = deflate(P, rho)
        assert list(step.p) == [P1.coeff(k - 1 - i) for i in range(k)]
        if not Q.is_zero:
            Q1 = deflate(Q, rho)
            assert list(step.q) == [Q1.coeff(k - 1 - i) for i in range(k)]


class TestEngineProperties:
    @settings(max_examples=40)
    @given(p=st.sampled_from(PRIMES),
           a=st.lists(small_int, min_size=2, max_size=3),
           i1=st.lists(small_int, min_size=3, max_size=3),
           i2=st.lists(small_int, min_size=3, max_size=3))
    def test_simulation_is_linear_when_g_vanishes(self, p, a, i1, i2):
        R = make_ring("integers-mod-m", modulus=p)
        M = Module(R, 1)
        rec = Recurrence(M, [str(v) for v in a], ["0"] * len(a), GMap.zero(M))
        k1 = rec.order
        w1, w2 = i1[:k1], i2[:k1]
        ws = [M.el(x) + M.el(y) for x, y in zip(w1, w2)]
        t1 = simulate(rec, w1, 20)
        t2 = simulate(rec, w2, 20)
        ts = simulate(rec, ws, 20)
        for n in range(ts.end):
            assert ts.value_at(n) == t1.value_at(n) + t2.value_at(n)

    @given(m=st.sampled_from(MODULI),
           vals=st.lists(small_int, min_size=1, max_size=6),
           n=st.integers(min_value=-30, max_value=100))
    def test_coeff_seq_periodic_extension(self, m, vals, n):
        R = make_ring("integers-mod-m", modulus=m)
        seq = make_coeff(R, [str(v) for v in vals])
        assert seq.at(n) == R.el(vals[n % len(vals)])
        assert seq.reduced().at(n) == seq.at(n)
        assert len(vals) % seq.reduced().period == 0


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-10**6, max_value=10**6)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)


class TestSerializationProperties:
    @given(obj=json_values)
    def test_canonical_json_is_idempotent(self, obj):
        s = canonical_json(obj)
        assert s.endswith("\n")
        assert canonical_json(json.loads(s)) == s
