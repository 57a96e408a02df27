"""Simulation, level transport, chain runs and the equivalence check.

Trajectory values asserted here were worked out by hand (short tables over
small rings) before the engine existed; the tests freeze those numbers. The
one-pass verify is held against the simulate-then-compare code it replaced.
"""

import builtins
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from test_kernel import KINDS, cases, elements

from scfactor import (Breakdown, CoeffSeq, ConfigError, FactorizationChain,
                      FactorStep, GMap, Module, Recurrence, Trajectory, build_family, factor_chain,
                      make_ring, simulate, simulate_chain,
                      simulate_substitution, substitution_factorization,
                      transport, trajectory_csv, trajectory_json_obj,
                      variable_chain, verify_equivalence)
from scfactor.config import load_job
from scfactor.engine import FLOAT_COMPARE_CAP, EquivalenceReport, _deviation
from scfactor.factorize import SubstitutionFactorization
from scfactor.gmap import _compile


def sq_map(module):
    return GMap.expression(module, ["u1*u1"], {})


def zp_rec(ring):
    M = Module(ring, 1)
    return Recurrence(M, ["0", "2", "1"], ["1", "0", "-1"], sq_map(M))


def golden_rec(ring):
    M = Module(ring, 1)
    return Recurrence(M, ["0", "2", "1"], ["1", "-1", "-1"], sq_map(M))


def ds_rec():
    R = make_ring("exact-rational")
    M = Module(R, 2)
    g = GMap.expression(M, ["c[n]*u1/u2", "d[n]*u1"], {"c": ["3"], "d": ["2"]})
    return Recurrence(M, ["1", "0"], ["1", "-1"], g)


class TestSimulate:
    def test_covers_requested_range(self):
        R = make_ring("integers-mod-m", modulus=26)
        traj = simulate(zp_rec(R), ["1", "2", "3"], 200)
        assert traj.level == "x"
        assert traj.start == 0 and traj.end == 203
        assert traj.breakdown is None
        assert [str(v.parts[0]) for v in traj.values[:3]] == ["1", "2", "3"]

    def test_first_step_by_hand(self):
        # x_3 = 2*x_1 + x_0 + (x_2 - x_0)^2 = 4 + 1 + 4 = 9
        R = make_ring("integers-mod-m", modulus=26)
        traj = simulate(zp_rec(R), ["1", "2", "3"], 1)
        assert str(traj.values[3].parts[0]) == "9"

    def test_start_offset_shifts_indices(self):
        R = make_ring("integers-mod-m", modulus=26)
        traj = simulate(zp_rec(R), ["1", "2", "3"], 5, start=3, level="t")
        assert traj.level == "t"
        assert traj.start == 3 and traj.end == 11
        assert traj.value_at(3) == traj.values[0]

    def test_wrong_window_length(self):
        R = make_ring("integers-mod-m", modulus=26)
        with pytest.raises(ConfigError):
            simulate(zp_rec(R), ["1", "2"], 5)

    def test_value_at_bounds(self):
        R = make_ring("integers-mod-m", modulus=26)
        traj = simulate(zp_rec(R), ["1", "2", "3"], 2)
        with pytest.raises(IndexError):
            traj.value_at(traj.end)
        with pytest.raises(IndexError):
            traj.value_at(-1)

    def test_division_breakdown_is_data(self):
        rec = ds_rec()
        traj = simulate(rec, [["1", "1"], ["1", "5"]], 20)
        assert traj.breakdown is not None
        assert traj.breakdown.index == 3
        assert traj.end == 3
        assert "unit" in traj.breakdown.reason

    def test_breakdown_describe(self):
        b = Breakdown(4, "division by zero")
        assert b.describe() == "breakdown at index 4: division by zero"


class TestBreakdowns:
    """Breakdown index and reason text of each kind, through simulate."""

    def test_inv_of_non_unit_mod_p(self):
        # x_{n+1} = x_n + 0*inv(x_n) + 1 counts up mod 7 until x_6 = 0
        M = Module(make_ring("integers-mod-m", modulus=7), 1)
        rec = Recurrence(M, ["1"], ["1"], GMap.expression(M, ["inv(u1)*0 + 1"], {}))
        traj = simulate(rec, ["1"], 20)
        assert traj.breakdown == Breakdown(7, "inv of non-unit 0")
        assert [str(v) for v in traj.values] == ["1", "2", "3", "4", "5", "6", "0"]

    def test_division_by_periodic_sum(self):
        # d has period 2, e period 3; d[n] + e[n] = 2 + 9 = 0 mod 11 only at n = 5 mod 6
        M = Module(make_ring("integers-mod-m", modulus=11), 1)
        g = GMap.expression(M, ["c[n]*u1*u1/(d[n]+e[n]) + u1"],
                            {"c": ["3", "4"], "d": ["1", "2"], "e": ["1", "1", "9"]})
        rec = Recurrence(M, ["1", "1"], ["1", "0"], g)
        traj = simulate(rec, ["1", "2"], 20)
        assert traj.breakdown == Breakdown(6, "division by non-unit 0")
        assert traj.end == 6

    def test_tanh_off_the_real_axis(self):
        # b is i at n = 2 mod 3, so the third step hands tanh an imaginary argument
        M = Module(make_ring("float-complex"), 1)
        rec = Recurrence(M, ["1"], [["1", "1", "i"]], GMap.expression(M, ["tanh(u1)"], {}))
        traj = simulate(rec, ["0.5"], 20)
        assert traj.breakdown == Breakdown(
            3, "tanh argument 1.7073368995898281i has a non-negligible imaginary part")
        assert [str(v) for v in traj.values] == ["0.5", "0.9621171572600098",
                                                 "1.7073368995898281"]

    def test_float_overflow_is_not_finite(self):
        # x_{n+1} = x_n^2 from 10 passes 1e256 and overflows at index 9
        M = Module(make_ring("float-complex"), 1)
        rec = Recurrence(M, ["0"], ["1"], GMap.expression(M, ["u1*u1"], {}))
        traj = simulate(rec, ["10"], 20)
        assert traj.breakdown == Breakdown(9, "value is not finite")
        assert str(traj.values[-1]) == "1.0000000000000005e+256"


class TestTransport:
    def test_zp_windows(self):
        R = make_ring("integers-mod-m", modulus=26)
        rec = zp_rec(R)
        chain = factor_chain(rec)
        windows = transport(chain, ["1", "2", "3"])
        fmt = [[str(c.parts[0]) for c in w] for w in windows]
        # alpha = -1 = 25, so t_i = x_i + x_{i-1}
        assert fmt == [["1", "2", "3"], ["3", "5"]]

    def test_window_size_checked(self):
        R = make_ring("integers-mod-m", modulus=26)
        chain = factor_chain(zp_rec(R))
        with pytest.raises(ConfigError):
            transport(chain, ["1", "2"])


class TestChainRun:
    def test_zp_reconstruction_matches_direct(self):
        R = make_ring("integers-mod-m", modulus=26)
        rec = zp_rec(R)
        chain = factor_chain(rec)
        direct = simulate(rec, ["1", "2", "3"], 200)
        run = simulate_chain(chain, ["1", "2", "3"], 200)
        assert [t.level for t in run.trajectories] == ["x", "t"]
        assert run.reconstructed.end == direct.end
        for n in range(direct.end):
            assert direct.value_at(n) == run.reconstructed.value_at(n)

    def test_depth_three_level_names(self):
        R = make_ring("integers-mod-m", modulus=11)
        rec = golden_rec(R)
        chain = factor_chain(rec)
        assert chain.complete
        run = simulate_chain(chain, ["1", "2", "3"], 50)
        assert [t.level for t in run.trajectories] == ["x", "t", "r"]
        assert [t.start for t in run.trajectories] == [0, 1, 2]
        assert set(run.by_name()) == {"x", "t", "r"}
        direct = simulate(rec, ["1", "2", "3"], 50)
        for n in range(direct.end):
            assert direct.value_at(n) == run.reconstructed.value_at(n)

    def test_ds_factor_cycle(self):
        rec = ds_rec()
        chain = factor_chain(rec)
        assert chain.complete and chain.depth == 2
        run = simulate_chain(chain, [["1", "1"], ["3", "2"]], 45)
        t = run.by_name()["t"]
        first = [str(v.parts[0]) for v in t.values[:6]]
        assert first == ["2", "6", "9/2", "9/8", "3/8", "1/2"]
        assert all(t.values[n] == t.values[n + 6] for n in range(len(t.values) - 6))

    def test_ds_closed_form_checkpoint(self):
        # x1_n = 1 + sum of the first n factor values; the factor cycle sums
        # to 29/2, so x1_40 = 1 + 6*(29/2) + (2 + 6 + 9/2 + 9/8) = 813/8
        rec = ds_rec()
        chain = factor_chain(rec)
        run = simulate_chain(chain, [["1", "1"], ["3", "2"]], 45)
        x40 = run.reconstructed.value_at(40)
        assert x40.parts[0].v == (813, 8)
        direct = simulate(rec, [["1", "1"], ["3", "2"]], 45)
        assert direct.value_at(40) == x40

    def test_quaternion_rebuild_acts_on_the_left(self):
        # cofactor x_{n+1} = i*x_n + t_{n+1}, factor t_{n+1} = j*t_n; so
        # x_{n+1} = (i+j)*x_n - j*i*x_{n-1} = (i+j)*x_n + k*x_{n-1}.
        # With x_1*i in place of i*x_1, x_2 would be -1 instead of -1+2k.
        H = make_ring("rational-quaternion")
        M = Module(H, 1)
        base = Recurrence(M, ["i+j", "k"], ["0", "0"], GMap.zero(M))
        factor = Recurrence(M, ["j"], ["0"], GMap.zero(M))
        step = FactorStep("certificate", CoeffSeq.constant(H.parse("i")), factor)
        run = simulate_chain(FactorizationChain(base, [step]), ["1", "j"], 4)
        want = ["1", "j", "-1+2k", "-3j", "1-4k", "5j"]
        assert [str(v) for v in run.reconstructed.values] == want
        assert [str(v) for v in simulate(base, ["1", "j"], 4).values] == want
        assert [str(v) for v in run.by_name()["t"].values] == ["-i+j", "-1+k", "i-j", "1-k", "-i+j"]

    def test_breakdown_propagates_upward(self):
        rec = ds_rec()
        chain = factor_chain(rec)
        run = simulate_chain(chain, [["1", "1"], ["1", "5"]], 20)
        t = run.by_name()["t"]
        x = run.reconstructed
        assert t.breakdown is not None and t.breakdown.index == 3
        assert x.breakdown is not None and x.breakdown.index == 3
        assert x.breakdown.reason.startswith("propagated: ")


class TestSubstitutionRun:
    def test_alsp_matches_direct(self):
        R = make_ring("integers-mod-m", modulus=97)
        M = Module(R, 1)
        fam = build_family(M, "alsp", {"a": ["5", "-6"], "b": "2"}, sq_map(M))
        sub = substitution_factorization(fam)
        assert [str(c) for c in sub.sub_coeffs] == ["5", "91"]
        init = ["1", "2", "3"]
        direct = simulate(fam.recurrence, init, 100)
        run = simulate_substitution(sub, init, 100)
        assert [t.level for t in run.trajectories] == ["x", "s"]
        assert run.by_name()["s"].start == fam.recurrence.k
        for n in range(direct.end):
            assert direct.value_at(n) == run.reconstructed.value_at(n)

    def test_window_size_checked(self):
        R = make_ring("integers-mod-m", modulus=97)
        M = Module(R, 1)
        fam = build_family(M, "alsp", {"a": ["5", "-6"], "b": "2"}, sq_map(M))
        sub = substitution_factorization(fam)
        with pytest.raises(ConfigError):
            simulate_substitution(sub, ["1", "2"], 10)


class TestVerifyEquivalence:
    def test_exact_agreement(self):
        R = make_ring("integers-mod-m", modulus=26)
        rec = zp_rec(R)
        chain = factor_chain(rec)
        rep = verify_equivalence(rec, chain, ["1", "2", "3"], 200)
        assert rep.equal and rep.first_divergence is None
        assert rep.compared == 203
        assert rep.max_deviation is None and not rep.capped
        assert "agree on 203" in rep.describe()

    def test_substitution_route(self):
        R = make_ring("integers-mod-m", modulus=97)
        M = Module(R, 1)
        fam = build_family(M, "alsp", {"a": ["5", "-6"], "b": "2"}, sq_map(M))
        sub = substitution_factorization(fam)
        rep = verify_equivalence(fam.recurrence, sub, ["1", "2", "3"], 100)
        assert rep.equal and rep.compared == 103

    def test_aligned_breakdowns_still_equal(self):
        rec = ds_rec()
        chain = factor_chain(rec)
        rep = verify_equivalence(rec, chain, [["1", "1"], ["1", "5"]], 20)
        assert rep.equal
        assert rep.direct_breakdown.index == 3
        assert rep.chain_breakdown.index == 3
        assert rep.breakdowns_aligned
        assert rep.compared == 3

    def test_float_cap(self):
        # order-3 shift x_{n+1} = x_{n-2}; the chain goes through the complex
        # cube roots of unity and must still rebuild the same orbit
        R = make_ring("float-complex")
        M = Module(R, 1)
        rec = Recurrence(M, ["0", "0", "1"], ["0", "0", "0"], GMap.zero(M))
        chain = factor_chain(rec)
        assert chain.complete
        rep = verify_equivalence(rec, chain, ["0.5+0.1i", "-0.3", "0.2-0.2i"], 600)
        assert rep.capped and rep.compared == 503
        assert rep.equal
        assert rep.max_deviation is not None and rep.max_deviation < 1e-9
        assert "capped at 500" in rep.describe()

    def test_float_chaos_divergence(self):
        # the factor hides the full logistic map 4t(1-t): the factorization
        # is algebraically exact, so short runs agree to machine precision,
        # but rounding noise doubles every step and the runs split at 28
        R = make_ring("float-complex")
        M = Module(R, 1)
        rec = Recurrence(M, ["1.5", "-0.5"], ["1", "-0.5"],
                         GMap.expression(M, ["3*u1 - 4*u1*u1"], {}))
        chain = factor_chain(rec)
        short = verify_equivalence(rec, chain, ["0.2", "0.5"], 10)
        assert short.equal and short.max_deviation < 1e-12
        rep = verify_equivalence(rec, chain, ["0.2", "0.5"], 400)
        assert not rep.equal
        assert rep.first_divergence == 28
        assert rep.max_deviation > 1.0
        assert "diverge first at index 28" in rep.describe()

    def test_compares_without_wrapping(self, monkeypatch):
        # both runs and the comparison stay on payloads; only reads of
        # Trajectory.values or value_at wrap them into vectors
        R = make_ring("integers-mod-m", modulus=11)
        rec = golden_rec(R)
        chain = factor_chain(rec)

        def refuse(self, payloads):
            raise AssertionError("verify_equivalence wrapped a payload")

        monkeypatch.setattr(Module, "wrap", refuse)
        rep = verify_equivalence(rec, chain, ["1", "2", "3"], 50)
        assert rep.equal and rep.compared == 53


class TestSizeLimit:
    def test_growing_rational_run_refused(self):
        # x_n = 3^(2^n) needs about 1.58 * 2^n bits: 6493 at n = 12, 12985 at 13
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, ["0"], ["1"], sq_map(M))
        assert simulate(rec, ["3"], 12).payloads[-1] == [(3 ** 2 ** 12, 1)]
        with pytest.raises(ConfigError, match="value at index 13 exceeds the size limit "
                                              "of 8192 bits per numerator or denominator"):
            simulate(rec, ["3"], 100)

    @pytest.mark.parametrize("x0", [Fraction(2 ** 8186), Fraction(1, 2 ** 8186)])
    def test_limit_is_inclusive(self, x0):
        # x_{n+1} = 2 x_n: the numerator or denominator has 8187 + n bits
        R = make_ring("exact-rational")
        M = Module(R, 1)
        rec = Recurrence(M, ["2" if x0 > 1 else "1/2"], ["0"], GMap.zero(M))
        assert simulate(rec, [x0], 5).end == 6
        with pytest.raises(ConfigError, match="index 6 exceeds"):
            simulate(rec, [x0], 6)


class TestSerialization:
    def test_csv_shape(self):
        R = make_ring("exact-rational")
        M = Module(R, 2)
        traj = Trajectory("t", 1, M, [M.payloads(M.el(["2", "1"])), M.payloads(M.el(["6", "4"]))])
        assert trajectory_csv(traj, M) == (
            "level,n,c0,c1\n"
            "t,1,2,1\n"
            "t,2,6,4\n")

    def test_json_obj(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        traj = Trajectory("x", 0, M, [M.payloads(M.el("1")), M.payloads(M.el("5/2"))],
                          Breakdown(2, "division by a non-unit"))
        obj = trajectory_json_obj(traj, M)
        assert obj == {
            "level": "x",
            "start": 0,
            "values": [["1"], ["5/2"]],
            "breakdown": {"index": 2, "reason": "division by a non-unit"},
        }

    def test_json_obj_formats_ring_literals(self):
        R = make_ring("rational-quaternion")
        M = Module(R, 2)
        traj = Trajectory("t", 1, M, [M.payloads(M.el(["1/2-i", "j+3/4k"]))])
        assert trajectory_json_obj(traj, M)["values"] == [["1/2-i", "j+3/4k"]]
        assert trajectory_csv(traj, M) == "level,n,c0,c1\nt,1,1/2-i,j+3/4k\n"

    def test_json_obj_no_breakdown(self):
        R = make_ring("exact-rational")
        M = Module(R, 1)
        obj = trajectory_json_obj(Trajectory("x", 0, M, [M.payloads(M.el("3"))]), M)
        assert obj["breakdown"] is None


# ---------------------------------------------------------------------------
# the one-pass verify against the three-trajectory code it replaced


def ref_verify(rec, chain, initial, steps, rel_tol=None):
    """verify_equivalence as it was: simulate the direct run and the chain
    run whole, then compare the stored top levels."""
    ring = rec.ring
    is_float = not ring.exact
    capped = False
    if is_float and steps > FLOAT_COMPARE_CAP:
        steps = FLOAT_COMPARE_CAP
        capped = True
    direct = simulate(rec, initial, steps)
    if isinstance(chain, SubstitutionFactorization):
        run = simulate_substitution(chain, initial, steps)
    else:
        run = simulate_chain(chain, initial, steps)
    rebuilt = run.reconstructed
    if rel_tol is None:
        rel_tol = 1e-9
    pairs = zip(direct.payloads, rebuilt.payloads)
    compared = min(direct.end, rebuilt.end)
    first_div = None
    max_dev = None
    if is_float:
        zero = [ring.zero.v] * rec.module.dim
        max_dev = 0.0
        for n, (a, b) in enumerate(pairs):
            dev = _deviation(a, b)
            scale = max(_deviation(a, zero), _deviation(b, zero), 1.0)
            max_dev = max(max_dev, dev)
            if dev > rel_tol * scale and first_div is None:
                first_div = n
    else:
        eq = ring._eq
        for n, (a, b) in enumerate(pairs):
            if not all(map(eq, a, b)):
                first_div = n
                break
    db, cb = direct.breakdown, rebuilt.breakdown
    if db is None and cb is None:
        aligned = True
    elif db is not None and cb is not None:
        aligned = abs(db.index - cb.index) <= rec.k
    else:
        aligned = False
    notes = []
    if (db is None) != (cb is None):
        notes.append("only one side broke down")
    return EquivalenceReport(
        equal=first_div is None and aligned, compared=compared, first_divergence=first_div,
        max_deviation=max_dev, direct_breakdown=db, chain_breakdown=cb,
        breakdowns_aligned=aligned, capped=capped, notes=notes)


def compose(factor, alpha):
    """The recurrence whose chain step with the unit sequence ``alpha`` has
    ``factor``: x_{n+1} = alpha(n) x_n + t_{n+1}, t_m = x_m - alpha(m-1) x_{m-1},
    so x_{n-j} has a'_j(n) - a'_{j-1}(n) alpha(n-j), plus alpha(n) at j = 0."""
    ring, k = factor.ring, factor.order
    period = math.lcm(factor.coeff_period, alpha.period)

    def rows(fac, lead):
        out = []
        for j in range(k + 1):
            vals = []
            for n in range(period):
                v = lead(n) if j == 0 else ring.zero
                if j < k:
                    v = v + fac[j].at(n)
                if j > 0:
                    v = v - fac[j - 1].at(n) * alpha.at(n - j)
                vals.append(v)
            out.append(CoeffSeq(vals))
        return out
    return Recurrence(factor.module, rows(factor.a, alpha.at), rows(factor.b, lambda n: ring.zero),
                      factor.g)


def compose_substitution(factor, coeffs):
    """The order-(k+1) recurrence that the first-order ``factor`` and the
    cofactor x_{n+1} = s_{n+1} + sum c_j x_{n+1-j} split, with
    s_n = x_n - sum c_j x_{n-j}."""
    ring, k = factor.ring, len(coeffs)

    def rows(fac, cs):
        return [CoeffSeq([(cs[i] if i < k else ring.zero) + (f if i == 0 else -(f * coeffs[i - 1]))
                          for f in fac[0].values]) for i in range(k + 1)]
    return Recurrence(factor.module, rows(factor.a, coeffs), rows(factor.b, [ring.zero] * k),
                      factor.g)


UNBOUNDED = ("exact-rational", "gaussian-rational", "rational-quaternion")


def growing(module, order):
    """x_{n+1} = g(x_n) with g(u) = u^3 + 1/2 per component: the size of the
    values triples every step, so runs pass MAX_PAYLOAD_BITS within a few
    dozen steps."""
    g = GMap.expression(module, [f"u{i}*u{i}*u{i} + 1/2" for i in range(1, module.dim + 1)], {})
    return Recurrence(module, ["0"] * order, ["1"] + ["0"] * (order - 1), g)


@st.composite
def verify_jobs(draw):
    """(rec, factorization, initial, steps, rel_tol). ``mode`` picks a true
    factorization; one whose direct recurrence has a disturbed coefficient
    or is drawn apart from the chain, so the two forms diverge and break
    down independently; or one where the direct side or the chain side
    outgrows MAX_PAYLOAD_BITS."""
    route = draw(st.sampled_from(("chain", "substitution")))
    mode = draw(st.sampled_from(("true", "true", "disturbed", "unrelated",
                                 "grow-direct", "grow-chain")))
    # residues twice as often: small moduli give the most breakdowns
    kinds = UNBOUNDED if mode.startswith("grow") else KINDS + ("integers-mod-m",)
    depth = draw(st.integers(min_value=1, max_value=3)) if route == "chain" else 1
    factor = draw(cases(kinds=st.sampled_from(kinds), dims=st.integers(min_value=1, max_value=3),
                        orders=st.integers(min_value=1, max_value=3 if route == "chain" else 1)))[0]
    ring, M = factor.ring, factor.module
    if mode == "grow-chain":
        factor = growing(M, factor.order)
    units = elements(ring).map(lambda x: x if x.is_unit else ring.one)
    if route == "chain":
        alphas = [CoeffSeq(draw(st.lists(units, min_size=1, max_size=3))) for _ in range(depth)]
        levels = [factor]
        for alpha in reversed(alphas):
            levels.insert(0, compose(levels[0], alpha))
        factorization = FactorizationChain(
            levels[0], [FactorStep("certificate", a, f) for a, f in zip(alphas, levels[1:])])
    else:
        coeffs = tuple(draw(st.lists(elements(ring), min_size=1, max_size=3)))
        levels = [compose_substitution(factor, coeffs)]
        factorization = SubstitutionFactorization(levels[0], coeffs, ring.one, factor)
    rec = levels[0]
    if mode == "grow-direct":
        rec = growing(M, rec.order)
    elif mode in ("unrelated", "grow-chain"):
        modulus = st.just(ring.m) if ring.kind == "integers-mod-m" else st.just(5)
        rec = draw(cases(kinds=st.just(ring.kind), moduli=modulus, dims=st.just(M.dim),
                         orders=st.just(rec.order)))[0]
        rec = Recurrence(M, rec.a, rec.b, rec.g)
    elif mode == "disturbed":
        a = list(rec.a)
        a[draw(st.integers(min_value=0, max_value=rec.k))] = CoeffSeq([draw(elements(ring))])
        rec = Recurrence(M, a, rec.b, rec.g)
    vec = st.lists(elements(ring), min_size=M.dim, max_size=M.dim).map(M.el)
    initial = draw(st.lists(vec, min_size=rec.order, max_size=rec.order))
    # past the cap only on the float rings, where it applies
    steps = draw(st.integers(min_value=1, max_value=40))
    if not ring.exact and draw(st.integers(min_value=0, max_value=3)) == 0:
        steps = FLOAT_COMPARE_CAP + 20
    rel_tol = draw(st.sampled_from((None, 1e-6)))
    return rec, factorization, initial, steps, rel_tol


def example_each(jobs):
    def apply(test):
        for job in jobs:
            test = example(job)(test)
        return test
    return apply


def report_or_error(verify, job):
    try:
        rep = verify(*job)
    except ConfigError as exc:
        return type(exc).__name__, str(exc)
    return repr(rep), rep.describe()


def _linear_chain(module, order):
    """A chain of x_{n+1} = x_{n-k}, split by alpha = 1 down to one level."""
    factor = Recurrence(module, ["0"] * (order - 1), ["0"] * (order - 1), GMap.zero(module))
    one = CoeffSeq([module.ring.one])
    rec = compose(factor, one)
    return rec, FactorizationChain(rec, [FactorStep("certificate", one, factor)])


def rq_periodic_job():
    """Order 3 over the rational quaternions with periodic coefficients,
    split by the certificate route from a seed and then by the order-2
    shortcut, as the bench's long-verify quaternion jobs are. The bottom
    factor multiplies by a unit of norm 1 each step, so values stay small."""
    H = make_ring("rational-quaternion")
    M = Module(H, 1)
    s, units = ["i", "j"], ["k", "1/2+1/2i+1/2j+1/2k"]
    c = [str(H.parse(u) - H.parse(v)) for u, v in zip(units, s)]
    bottom = Recurrence(M, [c], ["1"], GMap.expression(M, ["s[n]*u1"], {"s": s}))
    alpha2 = CoeffSeq([H.parse("j"), H.parse("-1/2+1/2i-1/2j+1/2k")])
    alpha1 = CoeffSeq([H.parse("1/2-1/2i+1/2j-1/2k"), H.parse("i")])
    rec = compose(compose(bottom, alpha2), alpha1)
    chain = variable_chain(rec, seeds=[list(alpha1.values)], horizon=24)
    assert [(st.route, st.alpha) for st in chain.steps] == \
        [("certificate", alpha1), ("shortcut", alpha2)]
    return rec, chain, ["1+i", "1/2-j", "2k"], 40, None


def planted_jobs():
    """One job per case the random draw may miss."""
    ds = ds_rec()
    ds_window = [["1", "1"], ["1", "5"]]
    tame, tame_chain = _linear_chain(ds.module, 2)
    ds_factor = Recurrence(ds.module, ["1"], ["1"], ds.g)
    one = CoeffSeq([ds.ring.one])
    ds_chain = FactorizationChain(compose(ds_factor, one), [FactorStep("certificate", one, ds_factor)])
    z11 = make_ring("integers-mod-m", modulus=11)
    F = make_ring("float-complex")
    shift, shift_chain = _linear_chain(Module(F, 1), 3)
    Q1 = Module(make_ring("exact-rational"), 1)
    grow, grow_chain = growing(Q1, 2), _linear_chain(Q1, 2)[1]
    grow_factor = growing(Q1, 1)
    big = FactorizationChain(compose(grow_factor, CoeffSeq([Q1.ring.one])),
                             [FactorStep("certificate", CoeffSeq([Q1.ring.one]), grow_factor)])
    return [
        (ds, tame_chain, ds_window, 20, None),                     # direct side breaks down
        (tame, ds_chain, [["1", "1"], ["2", "1"]], 20, None),      # chain side breaks down
        (ds, factor_chain(ds), ds_window, 20, None),               # both, aligned
        (zp_rec(z11), factor_chain(golden_rec(z11)), ["1", "2", "3"], 50, None),  # diverges
        (shift, shift_chain, ["0.5+0.1i", "-0.3", "0.2-0.2i"], 600, None),      # float cap
        (grow, grow_chain, ["2", "3"], 40, None),                  # direct side too large
        (_linear_chain(Q1, 2)[0], big, ["2", "3"], 40, None),      # chain side too large
        rq_periodic_job(),                                         # certificate over H
    ]


@settings(max_examples=150, deadline=None)
@given(verify_jobs())
@example_each(planted_jobs())
def test_one_pass_matches_three_trajectory_reference(job):
    # every field (repr of the dataclass) and describe() must match,
    # including the ConfigError raised when a value grows past the limit
    assert report_or_error(verify_equivalence, job) == report_or_error(ref_verify, job)


def test_unaligned_breakdown_described_without_divergence():
    # the values agree up to the direct side's breakdown; the report is
    # unequal only because the chain side runs on
    rep = verify_equivalence(*planted_jobs()[0])
    assert not rep.equal and rep.first_divergence is None
    assert rep.describe() == ("trajectories agree on 3 compared value(s); direct run: breakdown "
                              "at index 3: division by non-unit 0; breakdown points do NOT align")


def test_deviation_of_huge_float_quaternions():
    # (u - w) ** 2 overflows past about 1e154; the distance itself is finite
    big = (3e200, 4e200, 0.0, 0.0)
    assert math.isclose(_deviation([big], [(0.0, 0.0, 0.0, 0.0)]), 5e200, rel_tol=1e-15)
    assert _deviation([(1.0, 2.0, 2.0, 0.0)], [(0.0,) * 4]) == 3.0


def test_shared_map_subexpressions_computed_once_per_step(monkeypatch):
    # the direct recurrence and the deepest factor share g: its terms that
    # do not read the argument, d[n] + e[n] and its inverse, are computed
    # once per step of the verify loop; d + e vanishes at n = 18 only
    R = make_ring("integers-mod-m", modulus=11)
    M = Module(R, 2)
    seqs = {"c": ["3"], "d": ["1", "1", "1", "2", "1"], "e": ["1", "1", "1", "1", "9", "1", "1"]}
    g = GMap.expression(M, ["c[n]*u1*u2/(d[n]+e[n]) + u1", "inv(d[n]+e[n])*u1 - c[n]*u2*u2"],
                        seqs)
    rec = Recurrence(M, ["0", "2", "1"], ["1", "-1", "-1"], g)
    chain = factor_chain(rec)
    _compile.cache_clear()
    sources = []
    real_compile = builtins.compile
    monkeypatch.setattr(builtins, "compile",
                        lambda src, *a, **k: sources.append(src) or real_compile(src, *a, **k))
    rep = verify_equivalence(rec, chain, [["1", "2"], ["3", "4"], ["5", "6"]], 40)
    [loop] = [src for src in sources if "for n in range(lo, hi)" in src]
    assert loop.count("INVS.get(") == 1 and loop.count("DIV(") + loop.count("INV(") == 1
    assert "pow(" not in loop
    assert rep.equal and rep.compared == 19
    assert rep.direct_breakdown == Breakdown(19, "division by non-unit 0")
    assert rep.chain_breakdown == Breakdown(19, "propagated: propagated: division by non-unit 0")


def test_verify_memory_flat_in_steps(configs_dir):
    # three whole trajectories used to cost about 0.34 KB per step
    job = load_job(str(configs_dir / "exzp_z11.json"))
    chain = factor_chain(job.recurrence)
    verify_equivalence(job.recurrence, chain, job.initial, 10)
    peaks = []
    for steps in (10 ** 4, 10 ** 5):
        tracemalloc.start()
        try:
            rep = verify_equivalence(job.recurrence, chain, job.initial, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep.equal and rep.compared == steps + 3
    assert abs(peaks[1] - peaks[0]) < 1 << 20
