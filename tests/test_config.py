"""Config loading, schema validation, and job construction."""

import copy
import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validators
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from scfactor import ConfigError, RunOptions, build_job, load_job
from scfactor.config import compile_schema, read_config_file, schema, validate_document

ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def bench_jobs():
    """bench/jobs.py, loaded as a module without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs  # dataclasses look the module up while it loads
    try:
        spec.loader.exec_module(jobs)
    finally:
        del sys.modules[spec.name]
    return jobs


@functools.cache
def corpus() -> tuple:
    """Every shipped config, and the documents of two blocks of each bench workload."""
    docs = [json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))]
    jobs = bench_jobs()
    for workload in jobs.WORKLOADS:
        docs += [job.doc for block in jobs.make_blocks(workload, 5, 2) for job in block]
    return tuple(docs)


@functools.cache
def reference():
    """The jsonschema validator of the shipped schema, with integer meaning a
    JSON integer (jsonschema's own integer also admits 5.0)."""
    cls = validator_for(schema())
    checker = cls.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool))
    return validators.extend(cls, type_checker=checker)(schema())


def reference_message(doc):
    error = best_match(reference().iter_errors(doc))
    if error is None:
        return None
    where = "/".join(str(p) for p in error.absolute_path) or "(top level)"
    return f"config invalid at {where}: {error.message}"


def paths(x, path=()):
    """Every path into a JSON document, the root first."""
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield from paths(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


OTHER_VALUES = [True, False, None, 0, 7, -1, 7.0, 0.5, "", "x", [], {}, ["1"], [["1"]],
                {"kind": "zero"}]
# values at and around the bounds of the numeric fields (minimum 1 or 2,
# exclusiveMinimum 0)
NUMBERS = [-1, 0, 1, 2, 0.0, 1e-12, 0.5, 1.0, 2.0]
SOURCES = ("recurrence", "family", "system")


def zp_doc():
    return {
        "ring": {"kind": "integers-mod-m", "modulus": 26},
        "module": {"dim": 1},
        "recurrence": {
            "a": ["0", "2", "1"],
            "b": ["1", "0", "-1"],
            "g": {"kind": "expression", "exprs": ["u1*u1"]},
        },
        "initial": ["1", "2", "3"],
    }


class TestBuildJob:
    def test_minimal_recurrence_job(self):
        job = build_job(zp_doc())
        assert job.ring.kind == "integers-mod-m"
        assert job.module.dim == 1
        assert job.recurrence.order == 3
        assert len(job.initial) == 3
        assert job.family is None and job.family_kind is None
        assert not job.from_system

    def test_run_defaults(self):
        job = build_job(zp_doc())
        assert job.run == RunOptions()
        assert (job.run.steps, job.run.horizon) == (100, 64)
        assert job.run.rel_tol is None
        assert job.run.seeds is None and job.run.roots is None

    def test_run_overrides(self):
        doc = zp_doc()
        doc["run"] = {"steps": 7, "horizon": 20, "roots": ["25"]}
        job = build_job(doc)
        assert (job.run.steps, job.run.horizon) == (7, 20)
        assert job.run.roots == ["25"]

    def test_seeds_are_ring_scalars(self):
        doc = zp_doc()
        doc["run"] = {"seeds": [["1", "-1"], ["3", "5"]]}
        job = build_job(doc)
        R = job.ring
        assert job.run.seeds == [[1, 25], [3, 5]]
        assert job.run.seeds == [[R.payload(1), R.payload(-1)], [R.payload(3), R.payload(5)]]

    def test_seed_window_length_is_k(self):
        doc = zp_doc()
        doc["run"] = {"seeds": [["1", "2", "3"]]}
        with pytest.raises(ConfigError, match=r"run\.seeds\[0\] must hold 2"):
            build_job(doc)

    def test_bad_seed_literal(self):
        doc = zp_doc()
        doc["run"] = {"seeds": [["1", "q"]]}
        with pytest.raises(ConfigError, match=r"run\.seeds\[0\]"):
            build_job(doc)

    def test_float_tolerance_reaches_ring(self):
        doc = {
            "ring": {"kind": "float-complex", "tolerance": 1e-6},
            "module": {"dim": 1},
            "recurrence": {"a": ["1"], "b": ["0"], "g": {"kind": "zero"}},
            "initial": ["0.5"],
        }
        job = build_job(doc)
        assert job.ring.tol == 1e-6

    def test_tolerance_rejected_on_exact_ring(self):
        doc = zp_doc()
        doc["ring"] = {"kind": "exact-rational", "tolerance": 1e-6}
        with pytest.raises(ConfigError, match="bad ring: ring kind 'exact-rational' does not take a tolerance"):
            build_job(doc)

    def test_initial_window_size(self):
        doc = zp_doc()
        doc["initial"] = ["1", "2"]
        with pytest.raises(ConfigError, match="initial window must hold 3"):
            build_job(doc)

    def test_initial_bad_literal_names_slot(self):
        doc = zp_doc()
        doc["initial"] = ["1", "oops", "3"]
        with pytest.raises(ConfigError, match=r"initial\[1\]"):
            build_job(doc)

    def test_row_count_mismatch(self):
        doc = zp_doc()
        doc["recurrence"]["b"] = ["1", "0"]
        with pytest.raises(ConfigError, match="3 row"):
            build_job(doc)

    def test_bad_expression_reported_as_gmap(self):
        doc = zp_doc()
        doc["recurrence"]["g"] = {"kind": "expression", "exprs": ["u1 +"]}
        with pytest.raises(ConfigError, match=r"bad g map \(expression\)"):
            build_job(doc)

    def test_periodic_coefficient_rows(self):
        doc = zp_doc()
        doc["recurrence"]["a"] = [["0", "1"], "2", "1"]
        job = build_job(doc)
        assert not job.recurrence.constant_coeffs


class TestFamilies:
    def test_family_kind_exposed(self):
        doc = {
            "ring": {"kind": "integers-mod-m", "modulus": 7},
            "module": {"dim": 1},
            "family": {
                "kind": "o2b",
                "params": {"a": ["1", "1", "2"], "j": 0, "b": "2"},
                "g": {"kind": "expression", "exprs": ["u1*u1"]},
            },
            "initial": ["1", "2", "3"],
        }
        job = build_job(doc)
        assert job.family_kind == "o2b"
        assert job.recurrence.order == 3

    def test_linear_family_rejects_g(self):
        doc = {
            "ring": {"kind": "integers-mod-m", "modulus": 13},
            "module": {"dim": 1},
            "family": {
                "kind": "linear",
                "params": {"a": ["1", "2"], "c": ["3"]},
                "g": {"kind": "zero"},
            },
            "initial": ["1", "2"],
        }
        with pytest.raises(ConfigError, match="leave g out"):
            build_job(doc)

    def test_linear_family_forcing(self):
        doc = {
            "ring": {"kind": "integers-mod-m", "modulus": 13},
            "module": {"dim": 1},
            "family": {"kind": "linear", "params": {"a": ["1", "2"], "c": ["3"]}},
            "initial": ["1", "2"],
        }
        job = build_job(doc)
        assert job.family_kind == "linear"

    def test_bad_family_params(self):
        doc = {
            "ring": {"kind": "integers-mod-m", "modulus": 12},
            "module": {"dim": 1},
            "family": {
                "kind": "alsp",
                "params": {"a": ["1"], "b": "2"},
                "g": {"kind": "zero"},
            },
            "initial": ["1", "2"],
        }
        with pytest.raises(ConfigError, match=r"bad family \(alsp\)"):
            build_job(doc)


class TestSchemaValidation:
    def test_modulus_required_for_residues(self):
        doc = zp_doc()
        del doc["ring"]["modulus"]
        with pytest.raises(ConfigError, match="config invalid at ring"):
            build_job(doc)

    def test_modulus_forbidden_elsewhere(self):
        doc = zp_doc()
        doc["ring"] = {"kind": "exact-rational", "modulus": 7}
        with pytest.raises(ConfigError, match="config invalid at ring"):
            build_job(doc)

    def test_exactly_one_source(self):
        doc = zp_doc()
        doc["family"] = {"kind": "linear", "params": {"a": ["1"], "c": ["0"]}}
        with pytest.raises(ConfigError, match=r"\(top level\)"):
            build_job(doc)

    def test_unknown_top_level_key(self):
        doc = zp_doc()
        doc["gmap"] = {}
        with pytest.raises(ConfigError, match="config invalid"):
            build_job(doc)

    def test_gmap_kind_checked(self):
        doc = zp_doc()
        doc["recurrence"]["g"] = {"kind": "quadratic"}
        with pytest.raises(ConfigError, match="config invalid"):
            build_job(doc)

    def test_schema_declares_2020_12(self):
        assert schema()["$schema"].endswith("2020-12/schema")

    def test_shipped_schema_passes_check_schema(self):
        # the interpreter compiles the schema without checking its own form
        doc = schema()
        validator_for(doc).check_schema(doc)

    @pytest.mark.parametrize("bad, match", [
        ({"properties": {"a": {"type": "string", "pattern": "^x"}}}, "'pattern' is not supported"),
        ({"oneOf": [{"$ref": "other.json#/x"}]}, "unsupported \\$ref"),
        ({"items": {"$ref": "#/$defs/missing"}}, "unsupported \\$ref"),
        ({"enum": ["a", 1]}, "only string enum and const"),
        ({"not": True}, "is not an object"),
    ], ids=["pattern", "external-ref", "missing-def", "numeric-enum", "boolean-schema"])
    def test_unsupported_schema_refused(self, bad, match):
        with pytest.raises(ValueError, match=match):
            compile_schema(bad)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_interpreter_agrees_with_jsonschema(self, data):
        # one mutation of a shipped or generated document: another JSON type
        # at some path, a number near a bound, a deleted key, an unknown key,
        # or a second source
        doc = copy.deepcopy(data.draw(st.sampled_from(corpus()), label="doc"))
        op = data.draw(st.sampled_from(["replace", "number", "delete", "add", "source"]),
                       label="op")
        if op == "number":  # every document has module.dim
            path = data.draw(st.sampled_from(
                [p for p in paths(doc) if type(at(doc, p)) in (int, float)]), label="path")
            at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(NUMBERS), label="value")
        elif op == "source":
            key = data.draw(st.sampled_from([k for k in SOURCES if k not in doc]), label="key")
            donor = data.draw(st.sampled_from([d for d in corpus() if key in d]), label="donor")
            doc[key] = copy.deepcopy(donor[key])
        elif op == "add":
            where = data.draw(st.sampled_from(
                [p for p in paths(doc) if isinstance(at(doc, p), dict)]), label="where")
            at(doc, where)["unknown"] = data.draw(st.sampled_from(OTHER_VALUES), label="value")
        else:
            path = data.draw(st.sampled_from(list(paths(doc))[1:]), label="path")
            parent = at(doc, path[:-1])
            if op == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(st.sampled_from(OTHER_VALUES), label="value")
        expected = reference_message(doc)
        try:
            validate_document(doc)
            got = None
        except ConfigError as exc:
            got = str(exc)
        assert (got is None) == (expected is None)
        assert got == expected

    def test_runtime_never_imports_jsonschema(self, configs_dir):
        script = (
            "import sys\n"
            "from scfactor.cli import main\n"
            f"code = main(['verify', {str(configs_dir / 'exzp_z11.json')!r}, '--json'])\n"
            "assert code == 0, code\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'jsonschema']\n"
            "assert not loaded, loaded\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_removed_max_period_refused(self):
        doc = zp_doc()
        doc["run"] = {"steps": 7, "max_period": 4}
        with pytest.raises(ConfigError, match="max_period"):
            build_job(doc)

    def test_huge_modulus_refused(self):
        doc = zp_doc()
        doc["ring"]["modulus"] = 10**25
        with pytest.raises(ConfigError, match="bad ring: modulus .* exceeds the limit"):
            build_job(doc)


class TestFiles:
    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            read_config_file("/no/such/file.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            read_config_file(str(p))

    def test_all_shipped_fixtures_load(self, configs_dir):
        files = sorted(configs_dir.glob("*.json"))
        assert len(files) >= 14
        for path in files:
            job = load_job(str(path))
            assert job.recurrence.order >= 1

    def test_bench_family_jobs_validate(self):
        jobs = bench_jobs()
        kinds = set()
        for workload in jobs.WORKLOADS:
            for seed in (5, 11):
                for block in jobs.make_blocks(workload, seed, 2):
                    for job in block:
                        if "family" in job.doc:
                            kinds.add(job.doc["family"]["kind"])
                            validate_document(job.doc)
        assert kinds == {"fsc", "alsp", "o2b", "linear", "second-order"}

    def test_system_config_folds(self, configs_dir):
        job = load_job(str(configs_dir / "ds.json"))
        assert job.from_system
        assert job.module.dim == 2
        assert job.recurrence.order == 2

    def test_readme_run_keys_match_schema(self, configs_dir):
        readme = (configs_dir.parent / "README.md").read_text()
        bullet = re.search(r"^- `run`:(.*?)(?=^\S|^- |\Z)", readme, re.M | re.S).group(1)
        assert set(re.findall(r"`(\w+)`", bullet)) == \
            set(schema()["properties"]["run"]["properties"])
