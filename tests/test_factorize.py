"""Reduction criterion, factor construction, chains, and certificates.

Expected values in this module were derived by hand (Horner tables, direct
zeta-chain evaluation, explicit alpha recursions) before the implementation
existed; tests compare against those frozen results.
"""

import pytest

from scfactor import (CertificateFailure, CertificateNotPeriodic, CoeffSeq,
                      ConfigError, GMap, Irreducible, Module, NoncommutativeRing,
                      NotIntegralDomain, ParseError, Recurrence,
                      build_family, build_variable_factor, criterion_check,
                      factor_chain, factor_once, make_ring, o2b_reducibility,
                      second_order_shortcut, substitution_factorization,
                      variable_certificate, variable_chain)
from scfactor.factorize import MAX_COEFF_SPAN, UnitCertificate


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

    def test_composite_second_step_refused(self):
        R = make_ring("integers-mod-m", modulus=12)
        M = Module(R, 1)
        # both 1 and 5 are unit roots of this pair
        rec = Recurrence(M, ["1", "1", "-1"], ["1", "-6", "5"], sq_map(M))
        with pytest.raises(NotIntegralDomain):
            factor_chain(rec, max_steps=2)

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
        assert [int(a.v) for a in cert.alphas[:4]] == [1, -1, 1, -1]

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
        assert [int(v.v) for v in fac.a[0].values] == [-1, 1]
        assert fac.a[1].is_constant and fac.a[1].values[0].is_zero
        assert fac.b[0].is_constant and fac.b[0].values[0] == R.one
        assert [int(v.v) for v in fac.b[1].values] == [-1, 1]

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


class TestSecondOrderShortcut:
    def test_np_level_two(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        lvl2 = Recurrence(M, [["-1", "1"], "0"], ["1", ["-1", "1"]],
                          GMap.linear_scale(M, ["2/3", "-1/2"]))
        step = second_order_shortcut(lvl2)
        assert step.route == "shortcut"
        assert [int(v.v) for v in step.alpha.values] == [-1, 1]
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
