"""Config loading, schema validation, and job construction."""

import importlib.util
import json
import re
import sys

import pytest
from jsonschema.validators import validator_for

from scfactor import ConfigError, RunOptions, build_job, load_job
from scfactor.config import read_config_file, schema, validate_document


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
        assert job.run.seeds == [[R.el(1), R.el(-1)], [R.el(3), R.el(5)]]

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
        with pytest.raises(ConfigError, match="only applies to float rings"):
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
        # validate_document builds its validator without re-checking the schema
        doc = schema()
        validator_for(doc).check_schema(doc)

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

    def test_bench_family_jobs_validate(self, configs_dir, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_jobs", configs_dir.parent / "bench" / "jobs.py")
        jobs = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, jobs)  # dataclasses look it up
        spec.loader.exec_module(jobs)
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
