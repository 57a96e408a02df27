"""Reduction criterion, factor construction, chains, and certificates.

Expected values in this module were derived by hand (Horner tables, direct
zeta-chain evaluation, explicit alpha recursions) before the implementation
existed; tests compare against those frozen results.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scfactor import (CertificateFailure, CertificateNotPeriodic, CoeffSeq,
                      ConfigError, GMap, Irreducible, Module, NoncommutativeRing,
                      ParseError, Recurrence,
                      build_family, build_variable_factor, criterion_check,
                      factor_chain, factor_once, make_ring, o2b_reducibility,
                      second_order_shortcut, substitution_factorization,
                      unit_roots, variable_certificate, variable_chain)
from scfactor.factorize import MAX_COEFF_SPAN, UnitCertificate
from scfactor.poly import Poly


def sq_map(module):
    return GMap.expression(module, ["u1*u1"], {})


def zp_rec(ring):
    M = Module(ring, 1)
    return Recurrence(M, ["0", "2", "1"], ["1", "0", "-1"], sq_map(M))


def golden_rec(ring):
    M = Module(ring, 1)
    return Recurrence(M, ["0", "2", "1"], ["1", "-1", "-1"], sq_map(M))


class TestCriterion:
    def test_accepts_true_alpha(self):
        R = make_ring("integers-mod-m", modulus=26)
        rec = zp_rec(R)
        M = rec.module
        assert criterion_check(rec, CoeffSeq.constant(R.el(-1)), n=3,
                               u0_a=M.parse("2"), u0_b=M.parse("7"),
                               probes=[M.parse("5"), M.parse("11")])

    def test_rejects_wrong_alpha(self):
        R = make_ring("integers-mod-m", modulus=26)
        rec = zp_rec(R)
        M = rec.module
        assert not criterion_check(rec, CoeffSeq.constant(R.el(3)), n=3,
                                   u0_a=M.parse("2"), u0_b=M.parse("7"),
                                   probes=[M.parse("5"), M.parse("11")])

    def test_holds_for_quaternion_certificate(self):
        R = make_ring("rational-quaternion")
        M = Module(R, 1)
        rec = Recurrence(M, ["i", "0", "0"], ["1", "0", "1"],
                         GMap.linear_scale(M, ["1/2"]))
        assert criterion_check(rec, CoeffSeq.constant(R.parse("i")), n=4,
                               u0_a=M.parse("1+j"), u0_b=M.parse("2-k"),
                               probes=[M.parse("j"), M.parse("1-k")])


class TestFactorOnce:
    def test_frozen_horner_tables(self):
        R = make_ring("integers-mod-m", modulus=26)
        rec = zp_rec(R)
        step = factor_once(rec, R.el(-1))
        assert [int(v.v) for v in step.p] == [25, 25]
        assert [int(v.v) for v in step.q] == [1, 25]
        assert step.factor.describe("t") == \
            "t[n+1] = t[n] + t[n-1] + g[n](t[n] - t[n-1])"
        assert step.route == "constant-root"
        assert step.alpha.is_constant and step.alpha.at(0) == R.el(-1)

    def test_non_root_rejected(self):
        R = make_ring("integers-mod-m", modulus=26)
        from scfactor import NotAValidRoot
        with pytest.raises(NotAValidRoot):
            factor_once(zp_rec(R), R.el(3))

    def test_noncommutative_refused(self):
        R = make_ring("rational-quaternion")
        M = Module(R, 1)
        rec = Recurrence(M, ["i", "0", "0"], ["1", "0", "1"],
                         GMap.linear_scale(M, ["1/2"]))
        with pytest.raises(NoncommutativeRing):
            factor_once(rec, R.parse("i"))

    def test_variable_coeffs_refused(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, [["1", "-1"], "0"], ["1", "0"],
                         GMap.linear_scale(M, ["1/2"]))
        with pytest.raises(ParseError):
            factor_once(rec, R.el(1))


class TestFactorChain:
    def test_golden_z11_full_chain(self):
        R = make_ring("integers-mod-m", modulus=11)
        chain = factor_chain(golden_rec(R))
        assert [int(s.rho.v) for s in chain.steps] == [4, 8]
        assert chain.complete and chain.depth == 3
        lvl1 = chain.steps[0].factor
        assert [int(c.values[0].v) for c in lvl1.a] == [7, 8]
        assert [int(c.values[0].v) for c in lvl1.b] == [1, 3]
        final = chain.final_factor
        assert final.order == 1
        assert final.a[0].values[0] == R.el(-1)
        assert final.b[0].values[0] == R.one

    def test_golden_z5_double_root(self):
        R = make_ring("integers-mod-m", modulus=5)
        chain = factor_chain(golden_rec(R))
        assert [int(s.rho.v) for s in chain.steps] == [3, 3]
        assert chain.complete and chain.depth == 3
        final = chain.final_factor
        assert final.a[0].values[0] == R.el(-1)

    def test_zp_stops_at_depth_one_over_rationals(self):
        R = make_ring("exact-rational")
        chain = factor_chain(zp_rec(R))
        assert len(chain.steps) == 1 and not chain.complete
        assert chain.depth == 1
        assert any("stopped at order 2" in n for n in chain.notes)
        assert any("common unit roots: none" in n for n in chain.notes)

    def test_composite_modulus_single_step(self):
        R = make_ring("integers-mod-m", modulus=12)
        chain = factor_chain(zp_rec(R))
        assert len(chain.steps) == 1
        assert any("composite" in n for n in chain.notes)

    def test_irreducible_raises_with_report(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, ["0", "-1", "0"], ["1", "0", "1"],
                         GMap.linear_scale(M, ["2/3", "-1/2"]))
        with pytest.raises(Irreducible) as ei:
            factor_chain(rec)
        assert ei.value.report is not None
        assert ei.value.report.exhaustive

    def test_supplied_roots_are_validated(self):
        R = make_ring("integers-mod-m", modulus=11)
        chain = factor_chain(golden_rec(R), roots=["4", "8"])
        assert chain.complete
        assert chain.steps[0].root_report.method == "user-supplied"
        from scfactor import NotAValidRoot
        with pytest.raises(NotAValidRoot):
            factor_chain(golden_rec(R), roots=["5"])


def _planted_pair(ring, rng):
    """(P, Q) sharing planted unit roots with multiplicities 1-3, maybe the
    root 0 and a quadratic without roots; Q is sometimes 0."""
    nonresidue = {"exact-rational": 2, "gaussian-rational": 3}.get(ring.kind)
    if nonresidue is None:
        nonresidue = next(c for c in range(2, ring.m) if pow(c, (ring.m - 1) // 2, ring.m) != 1)
    i = ring.parse("i") if ring.kind == "gaussian-rational" else ring.zero

    def small():
        if ring.kind == "integers-mod-m":
            return ring.from_int(rng.randrange(1, ring.m))
        re = ring.from_int(rng.randint(-3, 3)) / ring.from_int(rng.randint(1, 3))
        val = re + ring.from_int(rng.randint(-2, 2)) * i
        return val if not val.is_zero else ring.one

    def linear(r):
        return Poly(ring, [-r, ring.one])

    common = Poly(ring, [ring.one])
    for _ in range(rng.randint(1, 3)):
        root = small()
        for _ in range(rng.randint(1, 3)):
            common = common * linear(root)
    if rng.random() < 0.4:
        common = common * Poly(ring, [ring.zero, ring.one])
    if rng.random() < 0.4:
        common = common * Poly(ring, [-ring.from_int(nonresidue), ring.zero, ring.one])
    P = common * linear(small())
    if rng.random() < 0.3:
        return P, Poly(ring, [])
    return P, common * Poly(ring, [small()])


def _recurrence_of(P, Q):
    ring = P.ring
    k = P.degree - 1
    M = Module(ring, 1)
    return Recurrence(M, [-P.coeff(k - i) for i in range(k + 1)],
                      [Q.coeff(k - i) for i in range(k + 1)], sq_map(M))


class TestOneSearchPerChain:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["integers-mod-m/7", "integers-mod-m/11", "integers-mod-m/13",
                                 "exact-rational", "gaussian-rational"]),
           seed=st.integers(0, 2**32))
    def test_derived_reports_match_fresh_searches(self, kind, seed):
        name, _, m = kind.partition("/")
        ring = make_ring(name, modulus=int(m)) if m else make_ring(name)
        P, Q = _planted_pair(ring, random.Random(seed))
        chain = factor_chain(_recurrence_of(P, Q))
        level = chain.base
        for step in chain.steps:
            fresh = unit_roots(*level.char_pair())
            assert step.root_report == fresh
            assert step.root_report.describe() == fresh.describe()
            level = step.factor
        if chain.complete:
            assert chain.notes == []
        else:
            fresh = unit_roots(*level.char_pair())
            assert not fresh.found
            assert chain.notes == [f"stopped at order {level.order}: {fresh.describe()}"]

    def test_one_search_per_exact_chain(self, monkeypatch):
        import scfactor.factorize as fz
        calls = []
        monkeypatch.setattr(fz, "unit_roots", lambda P, Q: calls.append(P) or unit_roots(P, Q))
        R = make_ring("exact-rational")
        x = Poly(R, [R.zero, R.one])
        P = x * x * x * x - Poly(R, [R.from_int(16)])   # roots 2, -2 and x^2 + 4
        chain = factor_chain(_recurrence_of(P, Poly(R, [])))
        assert [str(s.rho) for s in chain.steps] == ["-2", "2"]
        assert len(calls) == 1


class TestVariableCertificate:
    def _np_rec(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        return Recurrence(M, ["0", "-1", "0"], ["1", "0", "1"],
                          GMap.linear_scale(M, ["2/3", "-1/2"]))

    def test_alternating_seed_proves_period_two(self):
        rec = self._np_rec()
        R = rec.ring
        cert = variable_certificate(rec, [R.el(1), R.el(-1)], horizon=8)
        assert cert.status == "proved-periodic" and cert.period == 2
        assert [a.v for a in cert.alphas[:4]] == [(1, 1), (-1, 1), (1, 1), (-1, 1)]

    def test_bad_seed_fails_at_frozen_step(self):
        rec = self._np_rec()
        R = rec.ring
        with pytest.raises(CertificateFailure) as ei:
            variable_certificate(rec, [R.el(1), R.el(1)], horizon=8)
        assert ei.value.n == 2
        assert "2" in ei.value.reason

    def test_non_unit_seed_rejected(self):
        rec = self._np_rec()
        R = rec.ring
        with pytest.raises(CertificateFailure) as ei:
            variable_certificate(rec, [R.el(1), R.el(0)], horizon=8)
        assert ei.value.n == 1

    def test_factor_from_certificate_frozen(self):
        rec = self._np_rec()
        R = rec.ring
        cert = variable_certificate(rec, [R.el(1), R.el(-1)], horizon=8)
        step = build_variable_factor(rec, cert)
        fac = step.factor
        assert [v.v for v in fac.a[0].values] == [(-1, 1), (1, 1)]
        assert fac.a[1].is_constant and fac.a[1].values[0].is_zero
        assert fac.b[0].is_constant and fac.b[0].values[0] == R.one
        assert [v.v for v in fac.b[1].values] == [(-1, 1), (1, 1)]

    def test_horizon_bounded_refused_for_factor_building(self):
        # with a = (1, 1) and g = 0 the seed alpha_0 = 1 drives
        # alpha_n = 1 + 1/alpha_{n-1}, a walk through ratios of
        # consecutive Fibonacci numbers that never repeats
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, ["1", "1"], ["0", "0"], GMap.zero(M))
        cert = variable_certificate(rec, [R.el(1)], horizon=10)
        assert cert.status == "horizon-bounded"
        with pytest.raises(CertificateNotPeriodic):
            build_variable_factor(rec, cert)

    def test_factor_span_limit(self):
        # alpha period 256 against coefficient period 257: lcm 65792
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, [["1"] * 257, "1"], ["0", "0"], GMap.zero(M))
        alphas = tuple(R.el(i) for i in range(1, 257))
        cert = UnitCertificate(alphas[:1], alphas, "proved-periodic", 256, 256, 256)
        assert 65792 > MAX_COEFF_SPAN
        with pytest.raises(ConfigError, match="common period 65792 .* exceeds the limit"):
            build_variable_factor(rec, cert)


def _ref_row_sum(row, alpha_at, n):
    """sum_i row_i(n) (alpha_{n-1} .. alpha_{n-i})^(-1) on El values, one
    ring operation at a time."""
    acc, prod = row[0].at(n), None
    for i, seq in enumerate(row[1:], start=1):
        prod = alpha_at(n - i) if prod is None else prod * alpha_at(n - i)
        acc = acc + seq.at(n) * prod.inverse()
    return acc


def _wrapped_reference(rec, cert):
    """Status, period and notes after the wrap-around re-verification that
    variable_certificate runs on float rings, applied to any certificate."""
    if cert.period is None:
        return cert.status, None, cert.notes
    wrapped = CoeffSeq(cert.alphas[:cert.period])
    for n in range(math.lcm(cert.period, rec.coeff_period)):
        if not (wrapped.at(n) == _ref_row_sum(rec.a, wrapped.at, n)):
            side = "a"
        elif rec.g.uses_argument and not _ref_row_sum(rec.b, wrapped.at, n).is_zero:
            side = "b"
        else:
            continue
        return "horizon-bounded", None, cert.notes + [
            f"window recurs at {cert.period} but the wrapped {side}-side identity fails "
            f"at n={n}; certificate stays horizon-bounded"]
    return cert.status, cert.period, cert.notes


class TestExactCertificateNeedsNoWrapCheck:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["integers-mod-m/7", "integers-mod-m/11", "exact-rational",
                                 "gaussian-rational", "rational-quaternion"]),
           seed=st.integers(0, 2**32))
    def test_status_period_and_notes_match_the_wrapped_check(self, kind, seed):
        # alphas of period L are planted: a_0 and b_0 are solved from random
        # higher coefficients so that both identities hold; sometimes one
        # coefficient is then disturbed, so the run may fail, stay
        # horizon-bounded or settle on another period
        name, _, m = kind.partition("/")
        R = make_ring(name, modulus=int(m)) if m else make_ring(name)
        rng = random.Random(seed)
        imag = [R.parse(u) for u in ("i", "j")] if name == "rational-quaternion" else \
            [R.parse("i")] if name == "gaussian-rational" else []

        def rand_el():
            val = R.from_int(rng.randint(-3, 3))
            for u in imag:
                val = val + R.from_int(rng.randint(-1, 1)) * u
            return val

        def rand_unit():
            val = rand_el()
            return val if val.is_unit else R.one

        k, L = rng.randint(1, 3), rng.randint(1, 3)
        alphas = [rand_unit() for _ in range(L)]
        at = CoeffSeq(alphas).at

        def planted_row(lead):
            rows = [[rand_el() for _ in range(L)] for _ in range(k)]
            first = []
            for n in range(L):
                acc, prod = lead(n), None
                for i, row in enumerate(rows, start=1):
                    prod = at(n - i) if prod is None else prod * at(n - i)
                    acc = acc - row[n] * prod.inverse()
                first.append(acc)
            return [CoeffSeq(first)] + [CoeffSeq(r) for r in rows]

        a = planted_row(at)
        M = Module(R, 1)
        if rng.random() < 0.5:
            b, g = [CoeffSeq([R.zero])] * (k + 1), GMap.zero(M)
        else:
            b, g = planted_row(lambda n: R.zero), GMap.linear_scale(M, ["3"])
        if rng.random() < 0.3:
            a[rng.randrange(k + 1)] = CoeffSeq([rand_el() for _ in range(L)])
        rec = Recurrence(M, a, b, g)
        try:
            cert = variable_certificate(rec, [at(n) for n in range(k)],
                                        horizon=rng.randint(k + 1, 3 * L + k + 4))
        except CertificateFailure:
            return
        assert (cert.status, cert.period, cert.notes) == _wrapped_reference(rec, cert)


def _ref_factor_rows(rec, alpha):
    """The factor's rows a', b' as build_variable_factor built them on El
    values, one ring operation at a time."""
    span = math.lcm(alpha.period, rec.coeff_period)
    rows = ([], [])
    for ip in range(rec.k):
        for row, out in zip((rec.a, rec.b), rows):
            vals = []
            for n in range(span):
                acc, prod = rec.ring.zero, None
                for j in range(ip + 1, rec.k + 1):
                    prod = alpha.at(n - j) if prod is None else prod * alpha.at(n - j)
                    acc = acc + row[j].at(n) * prod.inverse()
                vals.append(-acc)
            out.append(CoeffSeq(vals).reduced())
    return rows


def _canonical(ring, v) -> bool:
    if ring.kind == "integers-mod-m":
        return 0 <= v < ring.m
    return math.gcd(*v) == 1 and v[-1] > 0


class TestCertificateOnPayloads:
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["integers-mod-m/12", "exact-rational", "gaussian-rational",
                                 "rational-quaternion"]),
           seed=st.integers(0, 2**32))
    def test_alphas_and_factor_match_element_reference(self, kind, seed):
        # coefficients and alphas with uneven, non-coprime denominators: the
        # alphas of the recursion and the rows of the factor are those that
        # El arithmetic gives, and each is a canonical payload
        name, _, m = kind.partition("/")
        R = make_ring(name, modulus=int(m)) if m else make_ring(name)
        rng = random.Random(seed)
        size = {"exact-rational": 1, "gaussian-rational": 2, "rational-quaternion": 4}

        def rand_el():
            if m:
                return R.from_int(rng.randrange(int(m)))
            return R.el(tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 6, 10, 15)))
                              for _ in range(size[name])))

        def rand_unit():
            val = rand_el()
            return val if val.is_unit else R.one

        k, L = rng.randint(1, 3), rng.randint(1, 3)
        M = Module(R, 1)
        rows = [[CoeffSeq([rand_el() for _ in range(rng.randint(1, L))]) for _ in range(k + 1)]
                for _ in "ab"]
        rec = Recurrence(M, rows[0], rows[1], GMap.linear_scale(M, ["3"]))
        seed_els = [rand_unit() for _ in range(k)]
        want = list(seed_els)
        try:
            for n in range(k, k + 6):
                want.append(_ref_row_sum(rec.a, want.__getitem__, n))
                if not want[-1].is_unit:
                    raise CertificateFailure(f"alpha_{n} = {want[-1]} is not a unit", n=n)
        except CertificateFailure as exc:
            with pytest.raises(CertificateFailure, match=f"^{exc.reason}"):
                variable_certificate(Recurrence(M, rec.a, rec.b, GMap.zero(M)), seed_els, k + 5)
        else:
            cert = variable_certificate(Recurrence(M, rec.a, rec.b, GMap.zero(M)), seed_els, k + 5)
            assert [a.v for a in cert.alphas] == [a.v for a in want]
            assert all(_canonical(R, a.v) for a in cert.alphas)

        alpha = CoeffSeq([rand_unit() for _ in range(L)]).reduced()
        cert = UnitCertificate(alpha.values[:1], alpha.values, "proved-periodic", L,
                               alpha.period, L)
        fac = build_variable_factor(rec, cert).factor
        ref_a, ref_b = _ref_factor_rows(rec, alpha)
        for got, ref in zip((*fac.a, *fac.b), (*ref_a, *ref_b)):
            assert got.payloads == ref.payloads
            assert all(_canonical(R, v) for v in got.payloads)


class TestSecondOrderShortcut:
    def test_np_level_two(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        lvl2 = Recurrence(M, [["-1", "1"], "0"], ["1", ["-1", "1"]],
                          GMap.linear_scale(M, ["2/3", "-1/2"]))
        step = second_order_shortcut(lvl2)
        assert step.route == "shortcut"
        assert [v.v for v in step.alpha.values] == [(-1, 1), (1, 1)]
        fac = step.factor
        assert fac.order == 1
        assert fac.a[0].values[0].is_zero
        assert fac.b[0].values[0] == R.one

    def test_closed_condition_failure_reported(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, ["1", "1"], ["1", "2"],
                         GMap.linear_scale(M, ["1/2"]))
        with pytest.raises(CertificateFailure):
            second_order_shortcut(rec)


class TestVariableChain:
    def test_np_routes_and_depth(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, ["0", "-1", "0"], ["1", "0", "1"],
                         GMap.linear_scale(M, ["2/3", "-1/2"]))
        chain = variable_chain(rec, seeds=[[R.el(1), R.el(-1)]], horizon=8)
        assert [s.route for s in chain.steps] == ["certificate", "shortcut"]
        assert chain.complete and chain.depth == 3
        final = chain.final_factor
        assert final.describe("s") == "s[n+1] = g[n](s[n])"

    def test_no_seeds_no_shortcut_is_irreducible(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, [["1", "2"], "0", "0"], ["1", "0", "1"],
                         GMap.linear_scale(M, ["1/2"]))
        with pytest.raises(Irreducible):
            variable_chain(rec)


class TestQuaternionRoutes:
    def test_constant_i_certificate_and_factor(self):
        R = make_ring("rational-quaternion")
        M = Module(R, 1)
        rec = Recurrence(M, ["i", "0", "0"], ["1", "0", "1"],
                         GMap.linear_scale(M, ["1/2"]))
        cert = variable_certificate(rec, [R.parse("i"), R.parse("i")], horizon=12)
        assert cert.status == "proved-periodic" and cert.period == 1
        step = build_variable_factor(rec, cert)
        fac = step.factor
        assert all(c.values[0].is_zero for c in fac.a)
        assert fac.b[0].values[0] == R.one
        assert fac.b[1].values[0] == R.parse("i")

    def test_period_two_family_factor(self):
        R = make_ring("rational-quaternion")
        M = Module(R, 1)
        a = R.parse("1+i")
        nainv = -(a.inverse())
        rec = Recurrence(M, [[str(a), str(nainv)], "0", "0"], ["1", "0", "1"],
                         GMap.linear_scale(M, ["1/2"]))
        cert = variable_certificate(rec, [a, nainv], horizon=12)
        assert cert.status == "proved-periodic" and cert.period == 2
        step = build_variable_factor(rec, cert)
        # the lagged-coefficient pattern: b'_1 at n equals a_{n-1}
        assert [str(v) for v in step.factor.b[1].values] == [str(nainv), str(a)]

    def test_rational_constant_coefficient_obstruction(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, ["2", "0", "0"], ["1", "0", "1"],
                         GMap.linear_scale(M, ["1/2"]))
        for seed, fail_at in [(["2", "-1/2"], 4), (["2", "2"], 2), (["1", "3"], 2)]:
            with pytest.raises(CertificateFailure) as ei:
                variable_certificate(rec, [R.parse(s) for s in seed], horizon=12)
            assert ei.value.n == fail_at


class TestO2b:
    def test_reducible_verdict(self):
        R = make_ring("integers-mod-m", modulus=7)
        M = Module(R, 1)
        fam = build_family(M, "o2b", {"a": ["1", "1", "2"], "j": 0, "b": "2"},
                           sq_map(M))
        v = o2b_reducibility(fam)
        assert v.reducible and v.b_is_unit
        assert v.p_at_b.is_zero and v.q_at_b.is_zero

    def test_not_reducible_verdict(self):
        R = make_ring("integers-mod-m", modulus=7)
        M = Module(R, 1)
        fam = build_family(M, "o2b", {"a": ["1", "1", "3"], "j": 0, "b": "2"},
                           sq_map(M))
        v = o2b_reducibility(fam)
        assert not v.reducible
        assert "nonzero" in v.reason

    def test_non_unit_b_verdict(self):
        R = make_ring("integers-mod-m", modulus=8)
        M = Module(R, 1)
        fam = build_family(M, "o2b", {"a": ["1", "1", "2"], "j": 0, "b": "2"},
                           sq_map(M))
        v = o2b_reducibility(fam)
        assert not v.reducible and not v.b_is_unit


class TestSubstitution:
    def test_alsp_split_frozen(self):
        R = make_ring("integers-mod-m", modulus=97)
        M = Module(R, 1)
        fam = build_family(M, "alsp", {"a": ["5", "-6"], "b": "2"}, sq_map(M))
        sub = substitution_factorization(fam)
        assert [int(c.v) for c in sub.sub_coeffs] == [5, 91]
        assert int(sub.b.v) == 2
        assert sub.factor.order == 1
        assert sub.factor.describe("s") == "s[n+1] = g[n](2*s[n])"

    def test_other_families_refused(self):
        R = make_ring("integers-mod-m", modulus=7)
        M = Module(R, 1)
        fam = build_family(M, "o2b", {"a": ["1", "1", "2"], "j": 0, "b": "2"},
                           sq_map(M))
        with pytest.raises(ParseError):
            substitution_factorization(fam)


class TestChainBookkeeping:
    def test_level_names(self):
        R = make_ring("integers-mod-m", modulus=11)
        chain = factor_chain(golden_rec(R))
        assert chain.level_names() == ["t", "r"]

    def test_incomplete_depth_counts_steps_only(self):
        R = make_ring("integers-mod-m", modulus=26)
        chain = factor_chain(zp_rec(R))
        assert not chain.complete and chain.depth == len(chain.steps) == 1


class TestLinearComplete:
    def test_forcing_chain_over_z13(self):
        from scfactor import linear_complete
        R = make_ring("integers-mod-m", modulus=13)
        M = Module(R, 1)
        forcing = GMap.constant_sequence(M, [M.parse("3")])
        rec = Recurrence(M, ["1", "2"], ["0", "0"], forcing)
        chain = linear_complete(rec)
        assert chain.complete and chain.depth == 2
        # P = x^2 - x - 2 = (x - 2)(x + 1); the chain consumes 2 and the
        # final factor keeps -1 as its coefficient
        assert str(chain.steps[0].rho) == "2"
        assert chain.final_factor.describe("t") == "t[n+1] = -t[n] + g[n]"
        assert chain.final_factor.a[0].at(0) == R.el(-1)

    def test_scaled_linear_accepted(self):
        from scfactor import linear_complete
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, ["0", "2", "1"], ["1", "0", "-1"],
                         GMap.linear_scale(M, ["1/3", "-2"]))
        chain = linear_complete(rec)
        assert chain.steps and str(chain.steps[0].rho) == "-1"

    def test_expression_map_refused(self):
        from scfactor import linear_complete
        R = make_ring("integers-mod-m", modulus=13)
        rec = zp_rec(R)
        with pytest.raises(ParseError, match="forcing-only or linear-scale"):
            linear_complete(rec)
