"""Coefficient sequences, the g map wrapper, recurrences, and families."""

import pytest

from scfactor import (CoeffSeq, GMap, Module, NotFoldable, ParseError,
                      Recurrence, build_family, fold_system, make_coeff,
                      make_ring)


@pytest.fixture
def z7():
    return make_ring("integers-mod-m", modulus=7)


@pytest.fixture
def rat():
    return make_ring("exact-rational")


class TestCoeffSeq:
    def test_mod_indexing_including_negative(self, z7):
        c = CoeffSeq([z7.el(1), z7.el(2), z7.el(3)])
        assert c.at(0) == 1 and c.at(4) == 2
        assert c.at(-1) == 3 and c.at(-4) == 3

    def test_constant(self, z7):
        c = CoeffSeq.constant(z7.el(5))
        assert c.is_constant and c.period == 1 and c.at(99) == 5

    def test_reduced_collapses_repeats(self, z7):
        c = CoeffSeq([z7.el(2), z7.el(3), z7.el(2), z7.el(3)])
        r = c.reduced()
        assert r.period == 2 and r.at(0) == 2 and r.at(1) == 3

    def test_eq_over_lcm(self, z7):
        a = CoeffSeq([z7.el(2), z7.el(3)])
        b = CoeffSeq([z7.el(2), z7.el(3), z7.el(2), z7.el(3)])
        assert a == b

    def test_str(self, z7):
        assert str(CoeffSeq([z7.el(1), z7.el(6)])) == "{1, 6}@n"
        assert str(CoeffSeq.constant(z7.el(4))) == "4"


class TestGMap:
    def test_zero(self, z7):
        M = Module(z7, 1)
        g = GMap.zero(M)
        assert g.is_zero and not g.uses_argument
        assert g.apply(3, M.zero) == M.zero

    def test_constant_sequence_cycles(self, z7):
        M = Module(z7, 1)
        g = GMap.constant_sequence(M, [["1"], ["2"], ["3"]])
        assert not g.uses_argument and g.period == 3
        assert g.apply(4, M.parse("6")) == M.parse("2")

    def test_linear_scale(self, rat):
        M = Module(rat, 2)
        g = GMap.linear_scale(M, ["2/3", "-1/2"])
        assert g.uses_argument and g.period == 2
        assert g.apply(0, M.parse(["3", "6"])) == M.parse(["2", "4"])
        assert g.apply(1, M.parse(["2", "4"])) == M.parse(["-1", "-2"])

    def test_expression_componentwise(self, rat):
        M = Module(rat, 2)
        g = GMap.expression(M, ["u1+u2", "u1*u2"], {})
        assert g.apply(0, M.parse(["2", "3"])) == M.parse(["5", "6"])

    def test_expression_needs_dim_exprs(self, rat):
        M = Module(rat, 2)
        with pytest.raises(Exception):
            GMap.expression(M, ["u1"], {})

    def test_reserved_sequence_names(self, rat):
        M = Module(rat, 1)
        for bad in ["u1", "inv", "tanh", "n", "Camel"]:
            with pytest.raises(Exception):
                GMap.expression(M, ["u1"], {bad: ["1"]})


class TestRecurrence:
    def test_shape_flags(self, z7):
        M = Module(z7, 1)
        rec = Recurrence(M, ["0", "2", "1"], ["1", "0", "-1"],
                         GMap.expression(M, ["u1*u1"], {}))
        assert rec.k == 2 and rec.order == 3
        assert rec.constant_coeffs and rec.coeff_period == 1
        assert not rec.b_is_zero

    def test_step_frozen_z7(self, z7):
        M = Module(z7, 1)
        rec = Recurrence(M, ["0", "2", "1"], ["1", "0", "-1"],
                         GMap.expression(M, ["u1*u1"], {}))
        x = [M.parse("1"), M.parse("2"), M.parse("3")]
        # window is newest first: x[n], x[n-1], x[n-2]
        x3 = rec.step(2, [x[2], x[1], x[0]])
        assert x3 == M.parse("2")
        x4 = rec.step(3, [x3, x[2], x[1]])
        assert x4 == M.parse("1")

    def test_step_scalars_act_on_the_left(self):
        H = make_ring("rational-quaternion")
        M = Module(H, 2)
        rec = Recurrence(M, ["i", "0"], ["j", "0"],
                         GMap.linear_scale(M, ["1"]))
        out = rec.step(0, [M.parse(["j", "1"]), M.parse(["1", "1"])])
        # x1 = i*x0 + j*x0 with x0 = (j, 1): (i*j + j*j, i + j) = (k - 1, i + j)
        assert out == M.parse(["-1+k", "i+j"])

    def test_step_refuses_foreign_windows(self, z7, rat):
        rec = Recurrence(Module(z7, 1), ["1", "1"], ["0", "0"],
                         GMap.zero(Module(z7, 1)))
        with pytest.raises(ValueError):
            rec.step(0, [Module(rat, 1).parse("1"), Module(z7, 1).parse("1")])
        with pytest.raises(ValueError):
            rec.step(0, [Module(z7, 2).parse(["1", "1"]),
                         Module(z7, 1).parse("1")])
        with pytest.raises(ValueError):
            rec.step(0, [Module(z7, 1).parse("1")])

    def test_periodic_rows(self, z7):
        M = Module(z7, 1)
        rec = Recurrence(M, [["1", "2"], "0"], ["1", "0"], GMap.zero(M))
        assert not rec.constant_coeffs and rec.coeff_period == 2
        assert rec.a[0].at(3) == 2

    def test_char_pair_frozen(self, z7):
        M = Module(z7, 1)
        rec = Recurrence(M, ["0", "2", "1"], ["1", "0", "-1"],
                         GMap.expression(M, ["u1*u1"], {}))
        P, Q = rec.char_pair()
        assert P.fmt() == "x^3 + 5*x + 6"
        assert Q.fmt() == "x^2 + 6"

    def test_char_pair_needs_constant_rows(self, z7):
        M = Module(z7, 1)
        rec = Recurrence(M, [["1", "2"], "0"], ["1", "0"], GMap.zero(M))
        with pytest.raises(ParseError):
            rec.char_pair()

    def test_describe(self, rat):
        M = Module(rat, 1)
        rec = Recurrence(M, ["0", "2", "1"], ["1", "0", "-1"],
                         GMap.expression(M, ["u1*u1"], {}))
        assert rec.describe("x") == "x[n+1] = 2*x[n-1] + x[n-2] + g[n](x[n] - x[n-2])"

    def test_row_length_mismatch(self, z7):
        M = Module(z7, 1)
        with pytest.raises(ParseError):
            Recurrence(M, ["1"], ["1", "0"], GMap.zero(M))


class TestMakeCoeff:
    def test_literal(self, rat):
        c = make_coeff(rat, "-2/3")
        assert c.is_constant and str(c.values[0]) == "-2/3"

    def test_periodic_list(self, z7):
        c = make_coeff(z7, ["1", "-1"])
        assert c.period == 2 and c.at(1) == 6

    def test_empty_list_rejected(self, z7):
        with pytest.raises(ParseError):
            make_coeff(z7, [])


class TestFamilies:
    def test_fsc_pair_relation(self, z7):
        M = Module(z7, 1)
        fam = build_family(M, "fsc", {"r": "2", "b": ["1", "3"]},
                           GMap.expression(M, ["u1*u1"], {}))
        P, Q = fam.recurrence.char_pair()
        from scfactor.poly import Poly, divmod_poly
        lin = Poly(z7, [z7.el(-2), z7.one])
        q, r = divmod_poly(P, lin)
        assert r.is_zero and q == Q

    def test_alsp_rows_frozen(self):
        z97 = make_ring("integers-mod-m", modulus=97)
        M = Module(z97, 1)
        fam = build_family(M, "alsp", {"a": ["5", "-6"], "b": "2"},
                           GMap.expression(M, ["u1*u1"], {}))
        rec = fam.recurrence
        assert [int(c.values[0].v) for c in rec.a] == [5, 91, 0]
        assert [int(c.values[0].v) for c in rec.b] == [2, 87, 12]

    def test_alsp_rejects_non_unit_b(self):
        z6 = make_ring("integers-mod-m", modulus=6)
        M = Module(z6, 1)
        with pytest.raises(ParseError):
            build_family(M, "alsp", {"a": ["1"], "b": "2"}, GMap.zero(M))

    def test_o2b_rows(self, z7):
        M = Module(z7, 1)
        fam = build_family(M, "o2b", {"a": ["1", "1", "2"], "j": 0, "b": "2"},
                           GMap.expression(M, ["u1*u1"], {}))
        assert [int(c.values[0].v) for c in fam.recurrence.b] == [1, 5, 0]

    def test_o2b_gap_bounds(self, z7):
        M = Module(z7, 1)
        with pytest.raises(ParseError):
            build_family(M, "o2b", {"a": ["1", "1", "2"], "j": 2, "b": "2"},
                         GMap.zero(M))

    def test_linear_forcing(self, z7):
        M = Module(z7, 1)
        fam = build_family(M, "linear", {"a": ["1", "2"], "c": ["3"]}, None)
        rec = fam.recurrence
        assert rec.b_is_zero
        assert rec.g.kind == "constant-sequence"
        assert rec.step(0, [M.parse("1"), M.parse("1")]) == M.parse("6")

    def test_second_order_periodic(self, rat):
        M = Module(rat, 1)
        fam = build_family(M, "second-order",
                           {"a": [["1", "-1"], "0"], "b": ["1", "2"]},
                           GMap.linear_scale(M, ["1/2"]))
        rec = fam.recurrence
        assert rec.order == 2 and rec.coeff_period == 2

    def test_unknown_kind(self, z7):
        with pytest.raises(ParseError):
            build_family(Module(z7, 1), "mystery", {}, GMap.zero(Module(z7, 1)))


class TestFoldSystem:
    def _components(self):
        return [
            {"a": ["1", "0"], "b": ["1", "-1"], "expr": "c[n]*u1/u2",
             "sequences": {"c": ["3"]}},
            {"a": ["1", "0"], "b": ["1", "-1"], "expr": "d[n]*u1",
             "sequences": {"d": ["2"]}},
        ]

    def test_folds_to_module_recurrence(self, rat):
        M = Module(rat, 2)
        rec = fold_system(M, self._components())
        assert rec.order == 2 and rec.module.dim == 2
        out = rec.step(1, [M.parse(["3", "2"]), M.parse(["1", "1"])])
        # x2 = x1 + g(x1 - x0); g((2,1)) = (3*2/1, 2*2) = (6, 4)
        assert out == M.parse(["9", "6"])

    def test_mismatched_rows_refused(self, rat):
        M = Module(rat, 2)
        comps = self._components()
        comps[1]["a"] = ["2", "0"]
        with pytest.raises(NotFoldable):
            fold_system(M, comps)

    def test_component_count_must_match_dim(self, rat):
        M = Module(rat, 2)
        with pytest.raises(NotFoldable):
            fold_system(M, self._components()[:1])

    def test_conflicting_shared_sequence(self, rat):
        M = Module(rat, 2)
        comps = self._components()
        comps[0]["sequences"] = {"c": ["3"]}
        comps[1]["sequences"] = {"c": ["4"], "d": ["2"]}
        with pytest.raises(NotFoldable):
            fold_system(M, comps)
