"""End-to-end command tests, run in process through cli.main."""

import errno
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from scfactor import factorize, poly
from scfactor.cli import _read_argv, build_parser, canonical_json, main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactor:
    def test_composite_modulus_single_step(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "factor", str(configs_dir / "zp_z26.json"))
        assert code == 0
        assert "rho = 25" in out
        assert "chain not complete, depth 1" in out
        assert "levels: t" in out
        assert "composite modulus" in out

    def test_full_chain_over_prime_field(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "factor", str(configs_dir / "exzp_z11.json"))
        assert code == 0
        assert "chain complete, depth 3" in out
        assert "levels: t, r" in out

    def test_irreducible_exits_3(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "factor", str(configs_dir / "np_constant.json"))
        assert code == 3
        assert "irreducible:" in out

    def test_root_search_that_does_not_converge(self, capsys, configs_dir, monkeypatch):
        # without iterations durand_kerner stays at its spiral start, far from the roots
        monkeypatch.setattr(poly, "durand_kerner",
                            functools.partial(poly.durand_kerner, max_iter=0))
        code, out, _ = run_cli(capsys, "factor", str(configs_dir / "float_chain.json"))
        assert code == 3
        assert "irreducible: root search failed: root iteration did not converge " \
            "(worst residual at " in out

    def test_value_error_off_the_root_search_is_not_labelled_a_root_search(
            self, capsys, configs_dir, monkeypatch):
        # a ValueError elsewhere is a fault, not a failed root search: it was
        # reported as "root search failed: broken certificate" with exit 3
        def broken(*args, **kwargs):
            raise ValueError("broken certificate")
        monkeypatch.setattr(factorize, "variable_certificate", broken)
        code, out, err = run_cli(capsys, "factor", str(configs_dir / "np.json"))
        assert (code, out) == (1, "")
        assert err == "error: internal error: ValueError: broken certificate\n"

    @pytest.mark.parametrize("command", ["factor", "verify", "simulate"])
    def test_unexpected_exception_ends_in_one_line(self, capsys, tmp_path, configs_dir,
                                                   monkeypatch, command):
        # a fault in a route is exit 1 with one line naming the exception,
        # not a traceback, so a caller tells it from every documented answer
        def broken(*args, **kwargs):
            raise RuntimeError("route fault")
        monkeypatch.setattr(factorize, "factor_once", broken)
        argv = [command, str(configs_dir / "zp_z26.json")]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err == "error: internal error: RuntimeError: route fault\n"

    def test_o2b_verdict_line(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "factor", str(configs_dir / "o2b_z7.json"))
        assert code == 0
        assert "o2b check: b = 2" in out
        assert "-> reducible" in out

    def test_o2b_negative_verdict(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "factor",
                               str(configs_dir / "o2b_irreducible_z7.json"))
        assert code == 3
        assert "P(b) = 6 is nonzero" in out

    def test_alsp_substitution_line(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "factor", str(configs_dir / "alsp_z97.json"))
        assert code == 0
        assert "substitution split: s[n] = x[n] - (5*x[n-1] + 91*x[n-2])" in out

    def test_certificate_and_shortcut_routes(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "factor", "--json",
                               str(configs_dir / "np.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "reducible"
        routes = [st["route"] for st in obj["chain"]["steps"]]
        assert routes == ["certificate", "shortcut"]
        assert obj["chain"]["depth"] == 3

    def test_json_is_canonical(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "factor", "--json",
                               str(configs_dir / "exzp_z11.json"))
        assert code == 0
        assert out == canonical_json(json.loads(out))

    def test_quaternion_residual_note(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "factor",
                               str(configs_dir / "quaternion_const.json"))
        assert code == 0
        assert "chain not complete, depth 1" in out
        assert "residual i" in out

    @pytest.mark.parametrize("command", ["factor", "verify"])
    @pytest.mark.parametrize("a", [["i", "2"], ["i"]], ids=["order-2", "order-1"])
    def test_linear_family_over_quaternions(self, capsys, tmp_path, command, a):
        # no root search over a noncommutative ring: the certificate routes,
        # which find no step without seeds, as for any other recurrence over
        # H; a first-order recurrence has nothing to reduce and is its own
        # complete chain
        path = tmp_path / "linear_h.json"
        path.write_text(json.dumps({
            "ring": {"kind": "rational-quaternion"}, "module": {"dim": 1},
            "family": {"kind": "linear", "params": {"a": a, "c": ["j"]}},
            "initial": ["1", "k"][:len(a)]}))
        code, out, err = run_cli(capsys, command, str(path), "--json")
        report = json.loads(out)
        if len(a) == 2:
            assert (code, err) == (3, "")
            assert report == {
                "status": "irreducible", "notes": [],
                "reason": "no reduction step could be constructed via certificates"}
        else:
            assert (code, err) == (0, "")
            chain = report["chain"]
            assert report["status"] == "reducible"
            assert (chain["complete"], chain["depth"], chain["steps"]) == (True, 1, [])
            assert report.get("verified", True)

    @pytest.mark.parametrize("command", ["factor", "verify"])
    @pytest.mark.parametrize("a, b", [([["2", "3"]], [["1", "1"]]), (["2"], ["1"])],
                             ids=["periodic", "constant"])
    def test_order_one_is_a_complete_chain_on_every_route(self, capsys, tmp_path, command,
                                                          a, b):
        # periodic coefficients take the certificate routes, constant ones the
        # root route; either way an order-1 recurrence is a complete chain of
        # depth 1 with no steps
        path = tmp_path / "order1.json"
        path.write_text(json.dumps({
            "ring": {"kind": "integers-mod-m", "modulus": 7}, "module": {"dim": 1},
            "recurrence": {"a": a, "b": b, "g": {"kind": "expression", "exprs": ["u1*u1"]}},
            "initial": ["1"]}))
        code, out, err = run_cli(capsys, command, str(path), "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        chain = report["chain"]
        assert (chain["complete"], chain["depth"], chain["steps"], chain["levels"]) == \
            (True, 1, [], [])
        if command == "verify":
            assert report["verified"] and report["verification"]["chain"]["equal"]


class TestVerify:
    @pytest.mark.parametrize("name", [
        "zp_z26.json", "exzp_z11.json", "ds.json", "np.json",
        "alsp_z97.json", "linear_z13.json", "float_chain.json",
        "quaternion_const.json", "quaternion_family.json",
    ])
    def test_fixtures_pass(self, capsys, configs_dir, name):
        code, out, _ = run_cli(capsys, "verify", str(configs_dir / name))
        assert code == 0, out
        assert "verification PASSED" in out

    def test_all_routes_reported(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "verify", str(configs_dir / "alsp_z97.json"))
        assert code == 0
        assert "verify [chain]:" in out
        assert "verify [substitution]:" in out

    def test_aligned_breakdowns_pass(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "verify",
                               str(configs_dir / "ds_degenerate.json"))
        assert code == 0
        assert "breakdown at index 3" in out
        assert "verification PASSED" in out

    def test_divergence_exits_4(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "verify",
                               str(configs_dir / "verify_fail_float.json"))
        assert code == 4
        assert "diverge first at index 28" in out
        assert "verification FAILED" in out

    def test_divergence_json(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "verify", "--json",
                               str(configs_dir / "verify_fail_float.json"))
        assert code == 4
        obj = json.loads(out)
        assert obj["verified"] is False
        assert obj["verification"]["chain"]["first_divergence"] == 28

    def test_short_run_still_agrees(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "verify", "--steps", "10",
                               str(configs_dir / "verify_fail_float.json"))
        assert code == 0

    def test_irreducible_exits_3(self, capsys, configs_dir):
        code, _, _ = run_cli(capsys, "verify", str(configs_dir / "np_constant.json"))
        assert code == 3


class TestSimulate:
    def test_csv_per_level(self, capsys, configs_dir, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", str(configs_dir / "ds.json"),
                               "--out", str(tmp_path))
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["t.csv", "x.csv", "x_rec.csv"]
        header = (tmp_path / "x.csv").read_text().splitlines()[0]
        assert header == "level,n,c0,c1"
        assert (tmp_path / "x.csv").read_text().splitlines()[1] == "x,0,1,1"

    def test_json_per_level(self, capsys, configs_dir, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", str(configs_dir / "exzp_z11.json"),
                               "--emit", "json", "--out", str(tmp_path))
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["r.json", "t.json", "x.json", "x_rec.json"]
        text = (tmp_path / "r.json").read_text()
        obj = json.loads(text)
        assert obj["level"] == "r" and obj["start"] == 2
        assert text == canonical_json(obj)

    def test_direct_and_rebuilt_files_match(self, capsys, configs_dir, tmp_path):
        run_cli(capsys, "simulate", str(configs_dir / "exzp_z11.json"),
                "--out", str(tmp_path))
        direct = (tmp_path / "x.csv").read_text()
        rebuilt = (tmp_path / "x_rec.csv").read_text()
        # the rebuilt trajectory is still the x level, so agreement means
        # byte-identical files
        assert direct == rebuilt

    def test_irreducible_writes_direct_only(self, capsys, configs_dir, tmp_path):
        code, out, _ = run_cli(capsys, "simulate",
                               str(configs_dir / "np_constant.json"),
                               "--out", str(tmp_path))
        assert code == 3
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
        assert "irreducible:" in out

    def test_breakdown_noted(self, capsys, configs_dir, tmp_path):
        code, out, _ = run_cli(capsys, "simulate",
                               str(configs_dir / "ds_degenerate.json"),
                               "--out", str(tmp_path))
        assert code == 0
        assert "note: direct run breakdown at index 3" in out
        assert "note: chain run breakdown at index 3" in out


class TestCertify:
    def test_periodic_seed(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "certify", str(configs_dir / "np.json"),
                               "--seed", "1,-1")
        assert code == 0
        assert "proved-periodic" in out and "period 2" in out

    def test_seed_from_config(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "certify",
                               str(configs_dir / "quaternion_const.json"))
        assert code == 0
        assert "period 1" in out

    def test_b_side_failure(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "certify", str(configs_dir / "np.json"),
                               "--seed", "1,1")
        assert code == 3
        assert "certificate failed" in out
        assert "b-side sum" in out and "(at step n=2)" in out

    def test_non_unit_failure(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "certify", str(configs_dir / "np.json"),
                               "--seed", "1,0")
        assert code == 3
        assert "(at step n=1)" in out

    def test_failure_json(self, capsys, configs_dir):
        code, out, _ = run_cli(capsys, "certify", "--json",
                               str(configs_dir / "np.json"), "--seed", "1,1")
        assert code == 3
        obj = json.loads(out)
        assert obj["status"] == "failed" and obj["step"] == 2

    def test_missing_seed(self, capsys, configs_dir):
        code, _, err = run_cli(capsys, "certify", str(configs_dir / "zp_z26.json"))
        assert code == 2
        assert "no seed" in err

    def test_wrong_seed_length(self, capsys, configs_dir):
        code, _, err = run_cli(capsys, "certify", str(configs_dir / "np.json"),
                               "--seed", "1,2,3")
        assert code == 2
        assert "must hold 2" in err

    def test_bad_seed_literal(self, capsys, configs_dir):
        code, _, err = run_cli(capsys, "certify", str(configs_dir / "np.json"),
                               "--seed", "1,zebra")
        assert code == 2

    @pytest.mark.parametrize("command", ["certify", "factor"])
    def test_failure_naming_a_value_too_long_to_print(self, capsys, tmp_path, command):
        # the b-side sum 10^2466 / (10^-2466)^2 has 7399 digits, past Python's
        # int-to-str limit: certify exited 1 with a ValueError traceback, and
        # factor exited 3 with "root search failed: Exceeds the limit"
        doc = {"ring": {"kind": "exact-rational"}, "module": {"dim": 1},
               "recurrence": {"a": ["1", "1", "1"], "b": ["0", "0", "1e2466"],
                              "g": {"kind": "linear-scale", "values": ["2"]}},
               "initial": ["1", "2", "3"], "run": {"seeds": [["1e-2466", "1e-2466"]]}}
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(p), "--json")
        assert code == 3 and err == ""
        assert json.loads(out)["reason"].startswith("b-side sum is <24576-bit integer>, not 0")


class TestErrors:
    @pytest.mark.parametrize("command", ["factor", "verify", "simulate", "certify"])
    def test_window_past_the_limit(self, capsys, tmp_path, command):
        # dim 29, order 53: 1537 window values, one past config.MAX_WINDOW_VALUES
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({
            "ring": {"kind": "integers-mod-m", "modulus": 101}, "module": {"dim": 29},
            "recurrence": {"a": ["1"] * 53, "b": ["1"] * 53,
                           "g": {"kind": "expression",
                                 "exprs": [f"u{i}*u{i % 29 + 1}" for i in range(1, 30)]}},
            "initial": [["1"] * 29] * 53}))
        argv = [command, str(p)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == ("error: dim 29 times order 53 is 1537 values per window, "
                       "past the limit of 1536\n")

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "factor", "/no/such.json")
        assert code == 2
        assert "cannot read config" in err

    def test_malformed_config(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"ring": {"kind": "exact-rational"}}')
        code, _, err = run_cli(capsys, "factor", str(p))
        assert code == 2
        assert "config invalid" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        p = tmp_path / "nested.json"
        p.write_text('{"ring": ' + "[" * 100000 + "]" * 100000 + "}")
        code, _, err = run_cli(capsys, "factor", str(p))
        assert code == 2
        assert "not valid JSON" in err and "Traceback" not in err

    def test_integer_literal_past_digit_limit(self, capsys, tmp_path):
        # json.load raised ValueError here, which left as a traceback and exit 1
        p = tmp_path / "long.json"
        p.write_text('{"ring": {"kind": "integers-mod-m", "modulus": 1' + "0" * 5000 + "}}")
        code, out, err = run_cli(capsys, "factor", str(p))
        assert code == 2 and out == ""
        assert err == (f"error: config {str(p)!r} holds an integer literal longer than "
                       "4300 digits\n")

    def test_config_not_utf8(self, capsys, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"ring": "\xff"}')
        code, out, err = run_cli(capsys, "factor", str(p))
        assert code == 2 and out == ""
        assert err.startswith(f"error: config {str(p)!r} is not valid JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("out, what, path, error", [
        ("afile", "create output directory", "afile", errno.EEXIST),
        ("afile/sub", "create output directory", "afile/sub", errno.ENOTDIR),
        ("taken", "write", "taken/x.csv", errno.EISDIR),
    ], ids=["out-is-a-file", "out-under-a-file", "output-file-is-a-directory"])
    def test_simulate_out_unusable(self, capsys, tmp_path, configs_dir, out, what, path, error):
        # these left as FileExistsError, NotADirectoryError and IsADirectoryError
        # tracebacks with exit 1
        (tmp_path / "afile").write_text("")
        (tmp_path / "taken" / "x.csv").mkdir(parents=True)
        code, stdout, err = run_cli(capsys, "simulate", str(configs_dir / "zp_z26.json"),
                                    "--out", str(tmp_path / out), "--emit", "csv")
        path = str(tmp_path / path)
        assert code == 2 and stdout == ""
        assert err == (f"error: cannot {what} {path!r}: "
                       f"[Errno {error}] {os.strerror(error)}: {path!r}\n")

    @staticmethod
    def _float_config(tmp_path, literal, kind="float-complex"):
        doc = {"ring": {"kind": kind}, "module": {"dim": 1},
               "recurrence": {"a": [literal, "-1", "0"], "b": ["1", "0", "0"],
                              "g": {"kind": "expression", "exprs": ["u1*u1"]}},
               "initial": ["1", "2", "3"]}
        p = tmp_path / "float.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_nan_coefficient_exits_2(self, capsys, tmp_path):
        # nan used to parse, and factor then exited 3 with the claim that
        # "nan+nani is not a root of P = x^3 + nan*x^2 - x"
        for kind in ("float-complex", "float-quaternion"):
            code, out, err = run_cli(capsys, "factor", self._float_config(tmp_path, "nan", kind))
            assert code == 2 and out == ""
            assert err == "error: bad recurrence: float literal 'nan' is not finite\n"

    def test_huge_float_quaternions_verified(self, capsys, tmp_path):
        # parts past about 1e154 used to overflow the deviation's squares:
        # verify exited 1 with a traceback from OverflowError
        doc = {"ring": {"kind": "float-quaternion"}, "module": {"dim": 1},
               "family": {"kind": "alsp", "params": {"a": ["i+2j"], "b": "1"},
                          "g": {"kind": "expression", "exprs": ["u1*u1"]}},
               "initial": ["1", "1"], "run": {"steps": 500}}
        p = tmp_path / "fq.json"
        p.write_text(json.dumps(doc))
        for flags in ([], ["--json"]):
            code, _, err = run_cli(capsys, "verify", str(p), *flags)
            assert code in (0, 4) and err == ""

    @pytest.mark.parametrize("literal", ["1e400", "-1e400i", "1e308+1e308"])
    def test_overflowing_float_literal_exits_2(self, capsys, tmp_path, literal):
        # each of these reads as an infinite float
        code, out, err = run_cli(capsys, "verify", self._float_config(tmp_path, literal))
        assert code == 2 and out == ""
        assert err == f"error: bad recurrence: float literal {literal!r} is not finite\n"

    @pytest.mark.parametrize("expr", ["(" * 3000 + "u1" + ")" * 3000, "-" * 3000 + "u1"],
                             ids=["parentheses", "unary-minus"])
    def test_deeply_nested_expression(self, capsys, tmp_path, expr):
        doc = {"ring": {"kind": "integers-mod-m", "modulus": 7}, "module": {"dim": 1},
               "recurrence": {"a": ["1", "2", "3"], "b": ["1", "1", "1"],
                              "g": {"kind": "expression", "exprs": [expr]}},
               "initial": ["1", "2", "3"]}
        p = tmp_path / "deep.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "factor", str(p))
        assert code == 2
        assert "nests deeper than" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["exact-rational", "gaussian-rational",
                                      "rational-quaternion"])
    def test_growing_exact_values_refused(self, capsys, tmp_path, kind):
        # g = u1*u1 doubles the bit length every step; P and Q share the root 1
        doc = {"ring": {"kind": kind}, "module": {"dim": 1},
               "recurrence": {"a": ["1", "1", "0", "-1"], "b": ["1", "-1", "1", "-1"],
                              "g": {"kind": "expression", "exprs": ["u1*u1"]}},
               "initial": ["1", "i" if kind == "rational-quaternion" else "2", "3", "1/3"],
               "run": {"seeds": [["1", "1", "1"]]}}
        p = tmp_path / "grow.json"
        p.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(p), "--json")
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == ("error: value at index 15 exceeds the size limit of 8192 bits "
                       "per numerator or denominator\n")

    @pytest.mark.parametrize("kind, literal, number", [
        ("exact-rational", "1e99999999", None),
        ("gaussian-rational", "1-1e-99999999i", "-1e-99999999"),
        ("rational-quaternion", "2.5E+2467j", "2.5E+2467"),
    ], ids=["rational", "gaussian", "quaternion"])
    def test_literal_exponent_past_limit(self, capsys, tmp_path, kind, literal, number):
        # the parser computed 10**e with no bound, so 1e99999999 ran on for
        # more than 10 s; 2467 is the least exponent whose power passes 8192 bits
        doc = {"ring": {"kind": kind}, "module": {"dim": 1},
               "recurrence": {"a": ["1", literal, "0"], "b": ["1", "-1", "1"],
                              "g": {"kind": "expression", "exprs": ["u1*u1"]}},
               "initial": ["1", "2", "3"]}
        p = tmp_path / "exponent.json"
        p.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "factor", str(p))
        assert time.perf_counter() - t0 < 2.0
        where = f"bad number {number!r} in {literal!r}" if number else \
            f"bad rational literal {literal!r}"
        assert code == 2 and out == ""
        assert err == (f"error: bad recurrence: {where}: exponent larger than 2466 in "
                       "absolute value: 10**e would pass the limit of 8192 bits\n")

    def test_literal_exponent_at_limit(self, capsys, tmp_path):
        # 10**2466 has 8192 bits, so the literal is read and the job runs
        doc = {"ring": {"kind": "exact-rational"}, "module": {"dim": 1},
               "recurrence": {"a": ["1", "1e-2466", "0"], "b": ["1", "-1", "1"],
                              "g": {"kind": "expression", "exprs": ["u1*u1"]}},
               "initial": ["1", "2", "3"]}
        p = tmp_path / "exponent.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "factor", str(p))
        assert code in (0, 3) and err == ""

    @pytest.mark.parametrize("order", [128, 129])
    def test_prime_search_degree_limit(self, capsys, tmp_path, order):
        # with Q = 0 the search mod p runs on P, of degree the order; the
        # search's kernel grows with the square of the degree, so past 128
        # the search is refused
        doc = {"ring": {"kind": "integers-mod-m", "modulus": 10007}, "module": {"dim": 1},
               "recurrence": {"a": ["0"] * (order - 1) + ["1"], "b": ["0"] * order,
                              "g": {"kind": "expression", "exprs": ["u1*u1"]}},
               "initial": ["1"] * order}
        p = tmp_path / "order.json"
        p.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "factor", str(p))
        assert time.perf_counter() - t0 < 5.0
        if order == 128:
            assert code == 0 and err == ""
        else:
            assert code == 2 and out == ""
            assert err == ("error: root search mod 10007 over a gcd(P, Q) of degree 129 is "
                           "refused: the search is limited to degree 128\n")

    def test_certify_refuses_growing_alphas(self, capsys, tmp_path):
        # alpha_n = 1 + 1/alpha_{n-1} runs through ratios of Fibonacci numbers,
        # which pass 8192 bits at n = 11801. Without the limit the run went on
        # to the horizon and writing an alpha out raised ValueError from str().
        doc = {"ring": {"kind": "exact-rational"}, "module": {"dim": 1},
               "recurrence": {"a": ["1", "1", "0"], "b": ["0", "0", "0"],
                              "g": {"kind": "zero"}},
               "initial": ["1", "1", "1"],
               "run": {"horizon": 24000, "seeds": [["1", "1"]]}}
        p = tmp_path / "fib.json"
        p.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "certify", str(p), "--json")
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == ("error: alpha_11801 exceeds the size limit of 8192 bits "
                       "per numerator or denominator\n")

    @pytest.mark.parametrize("command, horizon, flag", [
        ("certify", 100001, True),
        ("certify", 10 ** 7, False),
        ("factor", 10 ** 7, False),
        ("verify", 10 ** 7, False),
    ], ids=["certify-flag", "certify-run", "factor-run", "verify-run"])
    def test_horizon_limit(self, capsys, tmp_path, configs_dir, command, horizon, flag):
        # the certificate recursion runs one row per n up to the horizon;
        # at 10^7 it ran for over a minute
        doc = json.loads((configs_dir / "np.json").read_text())
        if not flag:
            doc["run"]["horizon"] = horizon
        p = tmp_path / "horizon.json"
        p.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, command, str(p),
                                 *(["--horizon", str(horizon)] if flag else []))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == f"error: horizon {horizon} exceeds the limit of 100000\n"

    @pytest.mark.parametrize("steps, flag", [(100001, True), (10 ** 7, False)],
                             ids=["flag", "run"])
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_steps_limit(self, capsys, tmp_path, configs_dir, command, steps, flag):
        # simulate holds every trajectory: 10^5 steps take about 0.5 s and 60 MB
        doc = json.loads((configs_dir / "exzp_z11.json").read_text())
        if not flag:
            doc.setdefault("run", {})["steps"] = steps
        p = tmp_path / "steps.json"
        p.write_text(json.dumps(doc))
        argv = [command, str(p), *(["--steps", str(steps)] if flag else [])]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == f"error: steps {steps} exceeds the limit of 100000\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, steps", [
        ("verify", 50000), ("verify", 50001), ("simulate", 50001)])
    def test_value_steps_limit(self, capsys, tmp_path, command, steps):
        # dim 4 times order 5 is 20 values per window: 50000 steps reach
        # cli.MAX_VALUE_STEPS and are run; one more step is refused at once
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({
            "ring": {"kind": "integers-mod-m", "modulus": 101}, "module": {"dim": 4},
            "recurrence": {"a": ["1", "0", "0", "0", "0"], "b": ["1", "-1", "0", "0", "0"],
                           "g": {"kind": "expression",
                                 "exprs": [f"u{i}*u{i % 4 + 1}" for i in range(1, 5)]}},
            "initial": [[str(i + j) for j in range(4)] for i in range(5)]}))
        argv = [command, str(p), "--steps", str(steps)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        if steps == 50000:
            assert code == 0 and err == ""
            return
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == ("error: dim 4 times order 5 times steps 50001 is 1000020 value-steps, "
                       "past the limit of 1000000\n")
        assert not (tmp_path / "out").exists()

    def test_coefficient_period_limit(self, capsys, tmp_path):
        # periods 34, 39, 55 and 7 have lcm 510510 = 2*3*5*7*11*13*17
        rows = [[str(1 + i % 3) for i in range(p)] for p in (34, 39, 55, 7)]
        doc = {"ring": {"kind": "integers-mod-m", "modulus": 101}, "module": {"dim": 1},
               "recurrence": {"a": rows[:2], "b": rows[2:],
                              "g": {"kind": "expression", "exprs": ["u1*u1"]}},
               "initial": ["1", "2"]}
        p = tmp_path / "periods.json"
        p.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "factor", str(p))
        assert time.perf_counter() - t0 < 2.0
        assert code == 2
        assert err == ("error: common period 510510 of the coefficients and alphas "
                       "exceeds the limit of 65536\n")

    def test_simulate_writes_no_unprintable_value(self, capsys, tmp_path):
        # x_n = 3^(2^n): x_12 has 6493 bits (1955 digits) and is written out;
        # x_13 (12985 bits) is refused. Without the limit the run went on to
        # x_20 and writing x_14 (7818 digits) raised ValueError from str().
        doc = {"ring": {"kind": "exact-rational"}, "module": {"dim": 1},
               "recurrence": {"a": ["0"], "b": ["1"],
                              "g": {"kind": "expression", "exprs": ["u1*u1"]}},
               "initial": ["3"]}
        p = tmp_path / "square.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", str(p), "--steps", "12",
                                 "--out", str(tmp_path / "ok"))
        assert code == 0 and (tmp_path / "ok" / "x.csv").read_text().count("\n") == 14
        code, out, err = run_cli(capsys, "simulate", str(p), "--steps", "20",
                                 "--out", str(tmp_path / "big"))
        assert code == 2 and out == "" and "Traceback" not in err
        assert "index 13 exceeds the size limit of 8192 bits" in err

    @pytest.mark.parametrize("kind, params, where", [
        ("fsc", {"b": ["1"]}, "family/params: 'r' is a required property"),
        ("linear", {"a": ["1", "2"]}, "family/params: 'c' is a required property"),
        ("alsp", {"a": 5, "b": "2"}, "family/params/a: 5 is not of type 'array'"),
        ("fsc", {"r": "3", "b": "12"}, "family/params/b: '12' is not of type 'array'"),
        ("second-order", {"a": "12", "b": ["1", "1"]},
         "family/params/a: '12' is not of type 'array'"),
        ("o2b", {"a": ["1", "1"], "j": "0", "b": "2"},
         "family/params/j: '0' is not of type 'integer'"),
        ("alsp", {"a": ["1"], "b": "2", "c": ["1"]},
         "family/params: Additional properties are not allowed ('c' was unexpected)"),
    ], ids=["fsc-no-r", "linear-no-c", "alsp-int-a", "fsc-string-b", "second-order-string-a",
            "o2b-string-j", "unknown-key"])
    def test_family_params_checked(self, capsys, tmp_path, kind, params, where):
        family = {"kind": kind, "params": params}
        if kind != "linear":
            family["g"] = {"kind": "zero"}
        doc = {"ring": {"kind": "integers-mod-m", "modulus": 7}, "module": {"dim": 1},
               "family": family, "initial": ["1", "2"]}
        p = tmp_path / "family.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "factor", str(p))
        assert code == 2 and out == ""
        assert err == f"error: config invalid at {where}\n"

    @pytest.mark.parametrize("config, path, value, command", [
        ("exzp_z11.json", ("run", "steps"), 5.0, "verify"),
        ("np.json", ("run", "horizon"), 8.0, "factor"),
        ("np.json", ("run", "horizon"), 8.0, "verify"),
        ("np.json", ("run", "horizon"), 8.0, "certify"),
        ("o2b_z7.json", ("family", "params", "j"), 0.0, "factor"),
        ("exzp_z11.json", ("module", "dim"), 1.0, "factor"),
        ("exzp_z11.json", ("ring", "modulus"), 11.0, "factor"),
    ], ids=["steps", "horizon-factor", "horizon-verify", "horizon-certify", "j", "dim",
            "modulus"])
    def test_integral_float_in_integer_field(self, capsys, tmp_path, configs_dir,
                                             config, path, value, command):
        # an integer field takes a JSON integer only: 5.0 used to reach code
        # that needs an int (TypeError tracebacks, a false gap message for j)
        doc = json.loads((configs_dir / config).read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
        parent[path[-1]] = value
        p = tmp_path / "float.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(p))
        assert code == 2 and out == ""
        assert err == (f"error: config invalid at {'/'.join(path)}: "
                       f"{value!r} is not of type 'integer'\n")

    def test_float_complex_root_judged_against_horner_terms(self, capsys, tmp_path):
        # P = (x - 34i)(x^4 - 15i x^3 - 7/3 x^2) evaluates to about 1.5e-9 i at
        # the root Durand-Kerner finds, past an absolute 1e-9 test but far
        # inside tol times the size of P's Horner terms at |rho| = 34
        doc = {"ring": {"kind": "float-complex"}, "module": {"dim": 1},
               "recurrence": {"a": ["49.0i", "512.3333333333334", "-79.33333333333334i",
                                    "0", "0"],
                              "b": ["0", "0", "0", "1.0", "-34.0i"],
                              "g": {"kind": "expression", "exprs": ["u1*u1"]}},
               "initial": ["1", "2", "3", "1i", "0.5"], "run": {"steps": 12}}
        p = tmp_path / "fc.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "factor", str(p))
        assert code == 0 and err == ""
        assert "step 1 [constant-root]" in out and "+34.0i" in out
        code, out, err = run_cli(capsys, "verify", str(p))
        assert code == 0 and "verification PASSED" in out

    @pytest.mark.parametrize("argv", [["factor"], ["factor", "--json"], ["verify"]],
                             ids=["factor", "factor-json", "verify"])
    def test_huge_claimed_float_root_is_not_a_root(self, capsys, tmp_path, configs_dir, argv):
        # is_root computed |rho|**i, which overflowed at 1e200: factor exited
        # 1 with a traceback from OverflowError
        doc = json.loads((configs_dir / "float_chain.json").read_text())
        doc["run"] = {"roots": ["1e200"]}
        p = tmp_path / "big_root.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, argv[0], str(p), *argv[1:])
        assert code == 3 and out == ""
        assert err == "error: claimed root 1e+200 does not annihilate x^3 - x^2 + x - 1.0\n"


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reuse_keeps_defaults_and_errors(self, capsys):
        ap = build_parser()
        assert ap.parse_args(["verify", "c.json", "--steps", "5"]).steps == 5
        assert ap.parse_args(["verify", "c.json"]).steps is None
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "c.json", "--steps", "five"])
            assert exc.value.code == 2
            assert "invalid int value: 'five'" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-1"])
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_steps_below_one_refused(self, capsys, configs_dir, tmp_path, command, steps):
        argv = [command, str(configs_dir / "exzp_z11.json"), "--steps", steps]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --steps: must be at least 1, got {steps}\n")
        assert not (tmp_path / "out").exists()


# words of an argv: commands, paths, whole and partial option names, and
# values that pass or fail each option's check
_ARGV_WORDS = st.sampled_from([
    "factor", "verify", "simulate", "certify", "c.json", "out", "-", "--", "-h", "",
    "--json", "--steps", "--emit", "--out", "--seed", "--horizon", "--js", "--steps=5",
    "-1", "0", "5", " 7", "1_0", "five", "2.5", "csv", "json", "xml", "1,2", "-1,2"])


class TestArgvTable:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_ARGV_WORDS, max_size=7))
    @example(["verify", "c.json", "--json", "--steps", "5"])
    @example(["simulate", "c.json", "--steps", " 7", "--out", "out", "--emit", "json"])
    @example(["certify", "c.json", "--seed", "1,2", "--horizon", "1_0", "--json"])
    def test_table_reads_as_argparse(self, argv):
        args = _read_argv(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["verify", "c.json", "--json"], ["factor", "c.json"],
        ["simulate", "c.json", "--out", "o"], ["certify", "c.json", "--horizon", "9"]])
    def test_well_formed_argv_read_from_table(self, argv):
        assert _read_argv(argv) is not None

    @pytest.mark.parametrize("argv", [
        [], ["verify"], ["frob", "c.json"], ["verify", "-h"], ["verify", "c.json", "--js"],
        ["verify", "c.json", "--steps=5"], ["verify", "c.json", "--steps", "five"],
        ["verify", "c.json", "--steps", "0"], ["verify", "--json", "c.json"],
        ["simulate", "c.json"], ["simulate", "c.json", "--out", "o", "--emit", "xml"],
        ["certify", "c.json", "--horizon", "-1"], ["verify", "c.json", "--", "--json"]])
    def test_other_argv_left_to_argparse(self, argv):
        assert _read_argv(argv) is None


# JSON values as reports hold them: str keys, nesting, and every scalar type
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-2**300, max_value=2**300),
    st.floats(), st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(), st.text(alphabet=st.characters(max_codepoint=0x1F)))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.tuples(kids, kids),
                           st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=20)


class TestCanonicalJson:
    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    @example({"b": [], "a": {}, "\u00e9\u2028\U0001f600": ["\x00\x1f\"\\", [[]], {"": None}]})
    @example([True, False, None, 0, -1, 10**200, 1.5, -0.0, 1e300, 5e-324])
    def test_matches_json_dumps(self, obj):
        assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json({"a": {1, 2}})


@pytest.mark.parametrize("argv", [("factor", "rational_repeated_root.json"),
                                  ("factor", "gaussian_chain.json"),
                                  ("verify", "quaternion_family.json")])
def test_runtime_never_imports_fractions(configs_dir, argv):
    # exact payloads are ints over one denominator; fractions would pull in
    # decimal and numbers as well
    command, name = argv
    script = (
        "import sys\n"
        "from scfactor.cli import main\n"
        f"code = main([{command!r}, {str(configs_dir / name)!r}, '--json'])\n"
        "assert code == 0, code\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] in ('fractions', 'decimal')]\n"
        "assert not loaded, loaded\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr


def test_well_formed_argv_never_imports_argparse(configs_dir):
    # A fresh process imports only what a job needs: argparse only for help
    # and usage errors; fractions and decimal never, as exact payloads are
    # ints over one denominator; dataclasses (with inspect), heapq and
    # importlib.resources never, as they cost start-up time. Only what
    # scfactor newly imports counts, since site may preload some of them.
    jobs = [("factor", "rational_repeated_root.json"), ("factor", "gaussian_chain.json"),
            ("verify", "quaternion_family.json"), ("verify", "exzp_z11.json")]
    argvs = [[command, str(configs_dir / name), "--json"] for command, name in jobs]
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from scfactor.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "heavy = ('dataclasses', 'inspect', 'heapq', 'importlib.resources', 'fractions',\n"
        "         'decimal', 'argparse')\n"
        "loaded = sorted((set(sys.modules) - before) & set(heavy))\n"
        "assert not loaded, loaded\n"
        "main(argv + ['--steps', 'five'])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 2, run.stderr
    assert run.stderr.endswith("scfactor verify: error: argument --steps: "
                               "invalid int value: 'five'\n"), run.stderr
