"""Acceptance gate: ten end-to-end criteria, one test function per criterion.

Every expected value here was derived by hand (root finding, Horner factor
coefficients, short trajectory tables) before being frozen; nothing is pinned
from program output without an independent derivation noted inline.
conftest.py prints one PASS/FAIL line per criterion after the run.
"""

import random
import time
from fractions import Fraction

import pytest

from scfactor import (CertificateFailure, CoeffSeq, FactorizationChain, GMap,
                      Irreducible, Module, NotAValidRoot, Poly, Recurrence,
                      build_family, build_variable_factor, criterion_check,
                      deflate, factor_chain, factor_once,
                      linear_complete, make_coeff, make_ring, simulate,
                      simulate_chain, simulate_substitution,
                      substitution_factorization, unit_roots,
                      variable_certificate, variable_chain,
                      verify_equivalence)

PRIMES_UNDER_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def zmod(m):
    ring = make_ring("integers-mod-m", modulus=m)
    return ring, Module(ring, 1)


def rationals():
    ring = make_ring("exact-rational")
    return ring, Module(ring, 1)


def sq_map(module):
    return GMap.expression(module, ["u1*u1"], {})


def coeff_of(poly, j):
    return poly.coeffs[j] if j < len(poly.coeffs) else poly.ring.zero


def frac0(module, vec):
    """First component of a rational vector as a Fraction."""
    return Fraction(module.fmt(vec)[0])


def test_criterion_01():
    # x_{n+1} = 2 x_{n-1} + x_{n-2} + g_n(x_n - x_{n-2}) over Z_m for every
    # m in 3..50.  P = x^3 - 2x - 1 and Q = x^2 - 1 share the root -1
    # (P(-1) = -1 + 2 - 1 = 0, Q(-1) = 0) and m-1 is a unit mod every m.
    # Horner cofactors for rho = -1: p = (-1, -1), q = (1, -1), so the factor
    # is t_{n+1} = t_n + t_{n-1} + g_n(t_n - t_{n-1}).
    t0 = time.perf_counter()
    rng = random.Random(20260817)
    for m in range(3, 51):
        ring, mod = zmod(m)
        rec = Recurrence(mod, ["0", "2", "1"], ["1", "0", "-1"], sq_map(mod))
        report = unit_roots(Poly(ring, ["-1", "-2", "0", "1"]),
                            Poly(ring, ["-1", "0", "1"]))
        assert any(r == ring.el(m - 1) for r, _ in report.roots)

        step = factor_once(rec, ring.el(-1))
        assert step.factor.a == (make_coeff(ring, 1), make_coeff(ring, 1))
        assert step.factor.b == (make_coeff(ring, 1), make_coeff(ring, -1))
        assert step.factor.describe("t") == \
            "t[n+1] = t[n] + t[n-1] + g[n](t[n] - t[n-1])"

        chain = factor_chain(rec)
        for _ in range(5):
            window = [rng.randrange(m) for _ in range(3)]
            rep = verify_equivalence(rec, chain, window, 200)
            assert rep.equal and rep.first_divergence is None
            assert rep.compared == 203
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02():
    # golden pair: P = x^3 - 2x - 1 = (x + 1)(x^2 - x - 1), Q = x^2 - x - 1.
    # The common roots are the roots of x^2 - x - 1, which exist mod an odd
    # prime p exactly when the discriminant 5 is a square mod p, i.e. p = 5
    # or p = +-1 mod 5 (and never mod 2: x^2 + x + 1 has no root in F_2).
    rng = random.Random(515)
    qualifying = {p for p in PRIMES_UNDER_100 if p == 5 or p % 5 in (1, 4)}
    for p in PRIMES_UNDER_100:
        ring, mod = zmod(p)
        report = unit_roots(Poly(ring, ["-1", "-1", "1"]), Poly(ring, []))
        mult_sum = sum(m for _, m in report.roots)
        assert mult_sum == (2 if p in qualifying else 0)

        rec = Recurrence(mod, ["0", "2", "1"], ["1", "-1", "-1"], sq_map(mod))
        if p in qualifying:
            chain = factor_chain(rec)
            assert chain.complete and chain.depth == 3
            for _ in range(3):
                window = [rng.randrange(p) for _ in range(3)]
                rep = verify_equivalence(rec, chain, window, 200)
                assert rep.equal and rep.compared == 203
        else:
            with pytest.raises(Irreducible) as err:
                factor_chain(rec)
            assert not err.value.report.found
            assert err.value.report.exhaustive

    # mod 5 the golden polynomial is (x - 3)^2, so the double root is
    # consumed twice by consecutive reduction steps.
    ring5, mod5 = zmod(5)
    rec5 = Recurrence(mod5, ["0", "2", "1"], ["1", "-1", "-1"], sq_map(mod5))
    chain5 = factor_chain(rec5)
    assert [str(s.rho) for s in chain5.steps] == ["3", "3"]


def test_criterion_03():
    # Two coupled components over Q: x_{n+1} = x_n + g_n(x_n - x_{n-1}) with
    # g(u) = (3 u1/u2, 2 u1).  rho = 1 gives the first-order factor
    # t_{n+1} = g_n(t_n).  The t map phi(u, v) = (3u/v, 2u) satisfies
    # phi^3(u, v) = (9/(4u), 9/v), hence phi^6 = id: every orbit has period
    # dividing 6.  From the window (1,1), (3,2) the hand table is
    # t_1..t_6 = (2,1), (6,4), (9/2,12), (9/8,9), (3/8,9/4), (1/2,3/4).
    ring = make_ring("exact-rational")
    mod = Module(ring, 2)
    g = GMap.expression(mod, ["c[n]*u1/u2", "d[n]*u1"], {"c": ["3"], "d": ["2"]})
    rec = Recurrence(mod, ["1", "0"], ["1", "-1"], g)
    chain = factor_chain(rec)
    assert str(chain.steps[0].rho) == "1"
    assert chain.complete and chain.depth == 2

    for window, x0 in ([["1", "1"], ["3", "2"]], Fraction(1)), \
                      ([["2", "1"], ["5", "3"]], Fraction(2)):
        direct = simulate(rec, window, 125)
        run = simulate_chain(chain, window, 125)
        t = run.by_name()["t"]
        assert all(t.values[n] == t.values[n + 6] for n in range(len(t.values) - 6))
        cycle = [frac0(mod, v) for v in t.values[:6]]
        if x0 == 1:
            assert cycle == [Fraction(2), Fraction(6), Fraction(9, 2),
                             Fraction(9, 8), Fraction(3, 8), Fraction(1, 2)]
        period_sum = sum(cycle)
        # first component in closed form: x1_n = x1_0 + whole periods + tail
        for n in range(0, 121):
            expected = x0 + (n // 6) * period_sum + sum(cycle[: n % 6])
            assert frac0(mod, direct.value_at(n)) == expected
    # spot value on the first window, computed by hand from the cycle sum
    direct = simulate(rec, [["1", "1"], ["3", "2"]], 45)
    assert frac0(mod, direct.value_at(40)) == Fraction(813, 8)

    # degenerate window: x_1 - x_0 = (0, 4) maps to (0, 0), and the next
    # application divides by zero.  Both runs must stop at index 3, aligned.
    rep = verify_equivalence(rec, chain, [["1", "1"], ["1", "5"]], 40)
    assert rep.equal
    assert rep.direct_breakdown is not None and rep.direct_breakdown.index == 3
    assert rep.chain_breakdown is not None and rep.chain_breakdown.index == 3
    assert rep.breakdowns_aligned


def test_criterion_04():
    # x_{n+1} = -x_{n-1} + g_n(x_n + x_{n-2}) over Q with periodic scaling g.
    # The characteristic pair P = x(x^2 + 1), Q = x^2 + 1 has no rational
    # common unit root, so the constant route is exhausted and refuses.
    ring, mod = rationals()
    rec = Recurrence(mod, ["0", "-1", "0"], ["1", "0", "1"],
                     GMap.linear_scale(mod, ["2/3", "-1/2"]))
    with pytest.raises(Irreducible) as err:
        factor_chain(rec)
    assert err.value.report.exhaustive

    # The alternating seed alpha = (1, -1, 1, -1, ...) satisfies both side
    # conditions (alpha_n * alpha_{n-1} = -1 throughout).
    cert = variable_certificate(rec, [ring.el(1), ring.el(-1)], horizon=8)
    assert cert.proved_periodic and cert.period == 2
    assert cert.alpha_seq() == CoeffSeq([ring.el(1), ring.el(-1)])

    # Hand-derived factor: a'_{0,n} = -alpha_n, a'_1 = 0, b'_0 = 1,
    # b'_{1,n} = alpha_{n-1}; both periodic sequences start at -1 for n = 0.
    step = build_variable_factor(rec, cert)
    assert step.route == "certificate"
    assert step.factor.a[0] == make_coeff(ring, ["-1", "1"])
    assert step.factor.a[1] == make_coeff(ring, 0)
    assert step.factor.b[0] == make_coeff(ring, 1)
    assert step.factor.b[1] == make_coeff(ring, ["-1", "1"])

    chain = variable_chain(rec, seeds=[[ring.el(1), ring.el(-1)]], horizon=8)
    assert [s.route for s in chain.steps] == ["certificate", "shortcut"]
    assert chain.complete and chain.depth == 3
    assert chain.final_factor.describe("s") == "s[n+1] = g[n](s[n])"

    for window in (["1", "2", "3"], ["1/2", "-1", "5"], ["-2/3", "0", "1"]):
        rep = verify_equivalence(rec, chain, window, 100)
        assert rep.equal and rep.compared == 103


def test_criterion_05():
    # Quaternion families x_{n+1} = a_n x_n + g_n(x_n + x_{n-2}).  The side
    # conditions force alpha_n = a_n and -alpha_{n-1} alpha_{n-2} = 1.
    rng = random.Random(905)
    ring = make_ring("rational-quaternion")
    mod = Module(ring, 1)

    def quaternion(parts):
        units = [ring.one, ring.parse("i"), ring.parse("j"), ring.parse("k")]
        acc = ring.from_int(0)
        for c, u in zip(parts, units):
            acc = acc + ring.from_int(c) * u
        return acc

    # constant coefficient: works exactly for the six square roots of -1
    for text in ("i", "j", "k", "-i", "-j", "-k"):
        rec = Recurrence(mod, [text, "0", "0"], ["1", "0", "1"],
                         GMap.linear_scale(mod, ["1/2"]))
        u = ring.parse(text)
        cert = variable_certificate(rec, [u, u], horizon=24)
        assert cert.proved_periodic and cert.period == 1
        chain = variable_chain(rec, seeds=[[u, u]], horizon=24)
        assert len(chain.steps) == 1 and not chain.complete
        rep = verify_equivalence(rec, chain, ["1", "i", "1+j"], 100)
        assert rep.equal

    # period-2 coefficient row (a, -a^{-1}): any unit a works because
    # -(-a^{-1}) a = 1 and -a (-a^{-1}) = 1 hold without commutativity.
    built = 0
    while built < 10:
        a = quaternion([rng.randint(-3, 3) for _ in range(4)])
        if a.is_zero or a * a == ring.from_int(-1):
            continue
        built += 1
        minus_inv = -a.inverse()
        rec = Recurrence(mod, [[a, minus_inv], "0", "0"], ["1", "0", "1"],
                         GMap.linear_scale(mod, ["1/2"]))
        cert = variable_certificate(rec, [a, minus_inv], horizon=16)
        assert cert.proved_periodic and cert.period == 2
        step = build_variable_factor(rec, cert)
        assert step.factor.a[0] == make_coeff(ring, 0)
        assert step.factor.a[1] == make_coeff(ring, 0)
        assert step.factor.b[0] == make_coeff(ring, 1)
        assert step.factor.b[1] == CoeffSeq([minus_inv, a])
        chain = variable_chain(rec, seeds=[[a, minus_inv]], horizon=16)
        rep = verify_equivalence(rec, chain, ["1", "i+k", "2-j"], 100)
        assert rep.equal

    # over Q the same shape is obstructed: alpha_n is forced to the constant
    # 2 and -2*2 = 1 is unsatisfiable, so every seed fails by step 4.
    qring, qmod = rationals()
    qrec = Recurrence(qmod, ["2", "0", "0"], ["1", "0", "1"],
                      GMap.linear_scale(qmod, ["1/2"]))
    frozen = {(2, 2): 2, (2, Fraction(-1, 2)): 4, (1, 3): 2}
    pool = [Fraction(2), Fraction(-1, 2), Fraction(1), Fraction(3), Fraction(-2)]
    for s0 in pool:
        for s1 in pool:
            with pytest.raises(CertificateFailure) as err:
                variable_certificate(qrec, [qring.el(s0), qring.el(s1)],
                                     horizon=12)
            assert err.value.n is not None and err.value.n <= 4
            if (s0, s1) in frozen:
                assert err.value.n == frozen[(s0, s1)]


def test_criterion_06():
    # 100 instances with a planted common unit root rho:
    # P = (x - rho) * A (A monic, random), Q = (x - rho) * B (B random,
    # nonzero).  The reduction criterion must accept, the one-step chain
    # must verify, and a random single-coefficient corruption must be caught.
    rng = random.Random(606)
    prime_cycle = [97, 193, 389, 769]
    for i in range(100):
        over_q = (i % 5 == 4)
        if over_q:
            ring, mod = rationals()
            steps = 12

            def rand_el():
                return ring.from_int(rng.randint(-3, 3))

            rho = ring.parse(rng.choice(["1", "-1", "2", "-2", "1/2", "3"]))

            def window_val():
                return rng.randint(1, 9)
        else:
            p = prime_cycle[i % 4]
            ring, mod = zmod(p)
            steps = 30

            def rand_el():
                return ring.el(rng.randrange(p))

            rho = ring.el(rng.randrange(1, p))

            def window_val():
                return rng.randrange(1, p)

        k = rng.randint(1, 4)
        lin = Poly(ring, [-rho, ring.one])
        acoeffs = [rand_el() for _ in range(k)] + [ring.one]
        P = lin * Poly(ring, acoeffs)
        while True:
            bcoeffs = [rand_el() for _ in range(k)]
            if any(not c.is_zero for c in bcoeffs):
                break
        Q = lin * Poly(ring, bcoeffs)
        a_vals = [-coeff_of(P, k - i2) for i2 in range(k + 1)]
        b_vals = [coeff_of(Q, k - i2) for i2 in range(k + 1)]
        if over_q:
            g = GMap.linear_scale(mod, ["1/2"])
        else:
            g = sq_map(mod)
        rec = Recurrence(mod, a_vals, b_vals, g)

        probes = [mod.el(rand_el()) for _ in range(k)]
        ok = criterion_check(rec, CoeffSeq.constant(rho),
                             n=k + 1 + rng.randrange(6),
                             u0_a=mod.el(rand_el()), u0_b=mod.el(rand_el()),
                             probes=probes)
        assert ok

        step = factor_once(rec, rho)
        chain = FactorizationChain(rec, [step])
        window = [window_val() for _ in range(k + 1)]
        rep = verify_equivalence(rec, chain, window, steps)
        assert rep.equal and rep.first_divergence is None

        # corrupt one coefficient by +1 and check the verifier notices
        pos = rng.randrange(2 * (k + 1))
        bad_a, bad_b = list(a_vals), list(b_vals)
        if pos <= k:
            bad_a[pos] = bad_a[pos] + ring.one
        else:
            bad_b[pos - k - 1] = bad_b[pos - k - 1] + ring.one
        bad = Recurrence(mod, bad_a, bad_b, g)
        bad_rep = verify_equivalence(bad, chain, window, steps)
        assert not bad_rep.equal
        if pos <= k:
            # an a-row corruption shows up at the first computed index,
            # because every window entry was chosen nonzero
            assert bad_rep.first_divergence == k + 1


def test_criterion_07():
    # 200 random deflations: the quotient of P = (x - rho) * A by rho must
    # reconstruct A exactly; planted double roots must survive one deflation
    # and be visible to the derivative; non-roots must be rejected.
    rng = random.Random(707)
    prime_cycle = [5, 7, 11, 13, 97, 193]
    for i in range(200):
        if i % 2 == 0:
            ring = make_ring("exact-rational")
            rho = ring.parse(rng.choice(["1", "-1", "2", "-3", "1/2", "-2/3"]))

            def rand_el():
                return ring.from_int(rng.randint(-4, 4))
        else:
            p = prime_cycle[(i // 2) % 6]
            ring = make_ring("integers-mod-m", modulus=p)
            rho = ring.el(rng.randrange(1, p))

            def rand_el():
                return ring.el(rng.randrange(p))

        deg = rng.randint(0, 3)
        coeffs = [rand_el() for _ in range(deg)]
        lead = rand_el()
        while lead.is_zero:
            lead = rand_el()
        A = Poly(ring, coeffs + [lead])
        lin = Poly(ring, [-rho, ring.one])

        P = lin * A
        assert deflate(P, rho) == A
        assert lin * deflate(P, rho) == P

        if i % 4 == 0:
            P2 = lin * lin * A
            once = deflate(P2, rho)
            assert once(rho).is_zero
            assert P2.derivative()(rho).is_zero
            assert deflate(once, rho) == A

        if i % 10 == 0:
            sigma = rho + ring.one
            if not P(sigma).is_zero:
                with pytest.raises(NotAValidRoot):
                    deflate(P, sigma)


def test_criterion_08():
    # 50 substitution-family instances with planted unit roots.  The family
    # shape puts every root of the inner polynomial in both P and Q, so the
    # greedy chain completes; the one-step substitution split must agree
    # with both the direct run and the chain run, value for value.
    rng = random.Random(808)
    for i in range(50):
        p = [97, 193, 389][i % 3]
        ring, mod = zmod(p)
        k = rng.randint(1, 3)
        roots = [ring.el(rng.randrange(1, p)) for _ in range(k)]
        inner = Poly(ring, [ring.one])
        for r in roots:
            inner = inner * Poly(ring, [-r, ring.one])
        a_list = [-coeff_of(inner, k - 1 - j) for j in range(k)]
        b = ring.el(rng.randrange(1, p))
        fam = build_family(mod, "alsp", {"a": a_list, "b": b}, sq_map(mod))
        rec = fam.recurrence

        chain = factor_chain(rec)
        assert chain.complete and len(chain.steps) == k

        sub = substitution_factorization(fam)
        window = [rng.randrange(p) for _ in range(k + 1)]
        direct = simulate(rec, window, 100)
        via_chain = simulate_chain(chain, window, 100).reconstructed
        via_sub = simulate_substitution(sub, window, 100).reconstructed
        assert direct.end == via_chain.end == via_sub.end == k + 101
        for n in range(direct.end):
            want = mod.fmt(direct.value_at(n))
            assert mod.fmt(via_chain.value_at(n)) == want
            assert mod.fmt(via_sub.value_at(n)) == want


def test_criterion_09():
    # 50 nonhomogeneous linear recurrences with k+1 planted unit roots.
    # linear_complete must consume k of them and leave the last one visible
    # as the coefficient of the terminal first-order factor.
    rng = random.Random(909)
    for i in range(50):
        p = [97, 193, 389, 769][i % 4]
        ring, mod = zmod(p)
        k = rng.randint(1, 4)
        roots = [ring.el(rng.randrange(1, p)) for _ in range(k + 1)]
        P = Poly(ring, [ring.one])
        for r in roots:
            P = P * Poly(ring, [-r, ring.one])
        a_vals = [-coeff_of(P, k - j) for j in range(k + 1)]
        c_vals = [str(rng.randrange(p)) for _ in range(rng.randint(1, 3))]
        fam = build_family(mod, "linear", {"a": a_vals, "c": c_vals},
                           GMap.zero(mod))
        rec = fam.recurrence

        chain = linear_complete(rec)
        assert chain.complete and len(chain.steps) == k
        consumed = [str(s.rho) for s in chain.steps]
        leftover = str(chain.final_factor.a[0].at(0))
        assert sorted(consumed + [leftover]) == sorted(str(r) for r in roots)

        window = [rng.randrange(p) for _ in range(k + 1)]
        rep = verify_equivalence(rec, chain, window, 100)
        assert rep.equal and rep.compared == k + 101


def test_criterion_10():
    # float-complex chain: P = x^3 - x^2 + x - 1 = (x - 1)(x^2 + 1) and
    # Q = (x^2 + 1)/2 share the conjugate pair +-i; 1 is a root of P only.
    # The numeric search must find exactly that pair, order it
    # deterministically (-i first), and the chain must verify within a
    # pinned deviation bound.
    ring = make_ring("float-complex")
    mod = Module(ring, 1)
    rec = Recurrence(mod, ["1", "-1", "1"], ["0.5", "0", "0.5"],
                     GMap.expression(mod, ["1/(4+u1)"], {}))
    chain = factor_chain(rec)
    assert chain.complete and chain.depth == 3

    r0, r1 = chain.steps[0].rho.v, chain.steps[1].rho.v
    assert abs(r0 - (-1j)) < 1e-8
    assert abs(r1 - 1j) < 1e-8
    assert chain.steps[0].root_report.method == "numeric"
    assert chain.steps[0].root_report.exhaustive is False

    # Horner cofactors for rho = -i: p = (-1-i, i), q = (1/2, -i/2);
    # then for rho = +i on the order-2 factor: p = (-1,), q = (1/2,).
    p0, p1 = (c.v for c in chain.steps[0].p)
    q0, q1 = (c.v for c in chain.steps[0].q)
    assert abs(p0 - (-1 - 1j)) < 1e-8 and abs(p1 - 1j) < 1e-8
    assert abs(q0 - 0.5) < 1e-8 and abs(q1 - (-0.5j)) < 1e-8
    (p0b,) = (c.v for c in chain.steps[1].p)
    (q0b,) = (c.v for c in chain.steps[1].q)
    assert abs(p0b - (-1.0)) < 1e-8 and abs(q0b - 0.5) < 1e-8

    rep = verify_equivalence(rec, chain, ["0.5+0.1i", "-0.3", "0.2-0.2i"], 100)
    assert rep.equal and rep.compared == 103
    assert rep.max_deviation is not None and rep.max_deviation <= 1e-6
