"""Expression language: parsing, validation, formatting, evaluation."""

import pytest

from scfactor import DivisionByNonUnit, GMapSyntaxError, TanhUnsupported
from scfactor.gmap import (MAX_EXPR_DEPTH, eval_expr, expr_identifiers, format_expr,
                           parse_expr, validate_expr)
from scfactor.rings import FloatComplex, IntegersMod, Module, Rationals, RationalQuaternions


class TestParse:
    def test_shapes(self):
        assert parse_expr("u1*u1") == ("mul", ("u", 1), ("u", 1))
        assert parse_expr("1+2*u1") == ("add", ("int", 1), ("mul", ("int", 2), ("u", 1)))
        assert parse_expr("(1+u2)*3") == ("mul", ("add", ("int", 1), ("u", 2)), ("int", 3))
        assert parse_expr("-u1") == ("neg", ("u", 1))
        assert parse_expr("inv(u1)") == ("inv", ("u", 1))
        assert parse_expr("tanh(u1)") == ("tanh", ("u", 1))
        assert parse_expr("c[n]*u1") == ("mul", ("seq", "c"), ("u", 1))

    def test_precedence_and_associativity(self):
        assert parse_expr("1-2-3") == ("sub", ("sub", ("int", 1), ("int", 2)), ("int", 3))
        assert parse_expr("1/(4+u1)") == ("div", ("int", 1), ("add", ("int", 4), ("u", 1)))

    def test_errors(self):
        with pytest.raises(GMapSyntaxError, match="end of expression"):
            parse_expr("1+")
        with pytest.raises(GMapSyntaxError):
            parse_expr("")
        with pytest.raises(GMapSyntaxError, match=r"indexed as c\[n\]"):
            parse_expr("c[m]")
        with pytest.raises(GMapSyntaxError, match="position"):
            parse_expr("u1 $ u2")
        with pytest.raises(GMapSyntaxError):
            parse_expr("(u1")

    def test_depth_limit(self):
        n = MAX_EXPR_DEPTH - 1
        assert parse_expr("(" * n + "u1" + ")" * n) == ("u", 1)
        assert parse_expr("-" * n + "u1")[0] == "neg"
        assert parse_expr("u1" + "+u1" * n)[0] == "add"
        for text in ("(" * 3000 + "u1" + ")" * 3000, "-" * 3000 + "u1",
                     "inv(" * 3000 + "u1" + ")" * 3000, "u1" + "+u1" * 3000):
            with pytest.raises(GMapSyntaxError, match=f"deeper than {MAX_EXPR_DEPTH}"):
                parse_expr(text)


class TestValidate:
    def test_u_out_of_range(self):
        with pytest.raises(GMapSyntaxError, match="u2"):
            validate_expr(parse_expr("u2"), 1, set(), Rationals())

    def test_unknown_sequence(self):
        with pytest.raises(GMapSyntaxError, match="c"):
            validate_expr(parse_expr("c[n]"), 1, set(), Rationals())

    def test_tanh_only_on_float_complex(self):
        ast = parse_expr("tanh(u1)")
        validate_expr(ast, 1, set(), FloatComplex())
        with pytest.raises(TanhUnsupported):
            validate_expr(ast, 1, set(), Rationals())

    def test_identifiers(self):
        ast = parse_expr("c[n]*u1 + d[n]")
        assert expr_identifiers(ast) == {"c", "d"}


class TestFormat:
    def test_canonical_reparse_identity(self):
        for text in ["u1*u1", "1+2*u1", "-(u1-u2)", "inv(3*u1)",
                     "c[n]*u1/u2", "1/(4+u1)", "tanh(u1)"]:
            ast = parse_expr(text)
            assert parse_expr(format_expr(ast)) == ast


class TestEval:
    def test_arithmetic_mod(self):
        R = IntegersMod(7)
        ast = parse_expr("u1*u1 + 3")
        out = eval_expr(ast, R, [R.el(4)], {}, 0)
        assert out == R.el(5)

    def test_sequence_mod_indexing(self):
        R = IntegersMod(7)
        ast = parse_expr("c[n]")
        seqs = {"c": (R.el(2), R.el(5))}
        assert eval_expr(ast, R, [R.zero], seqs, 0) == R.el(2)
        assert eval_expr(ast, R, [R.zero], seqs, 3) == R.el(5)
        assert eval_expr(ast, R, [R.zero], seqs, 4) == R.el(2)

    def test_division_by_non_unit(self):
        R = IntegersMod(6)
        ast = parse_expr("1/u1")
        with pytest.raises(DivisionByNonUnit) as ei:
            eval_expr(ast, R, [R.el(3)], {}, 5)
        assert ei.value.n == 5

    def test_noncommutative_division_order(self):
        R = RationalQuaternions()
        ast = parse_expr("u1/u2")
        out = eval_expr(ast, R, [R.parse("i"), R.parse("j")], {}, 0)
        assert out == R.parse("-k")   # i * j^-1

    def test_tanh_real_axis(self):
        import math
        R = FloatComplex()
        ast = parse_expr("tanh(u1)")
        out = eval_expr(ast, R, [R.el(0.5)], {}, 0)
        assert abs(out.v - math.tanh(0.5)) < 1e-15

    def test_tanh_off_axis_raises(self):
        R = FloatComplex()
        ast = parse_expr("tanh(u1)")
        with pytest.raises(TanhUnsupported) as ei:
            eval_expr(ast, R, [R.parse("1+i")], {}, 7)
        assert ei.value.n == 7
