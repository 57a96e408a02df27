"""Tests for the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from scfactor import cli  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        jobs.write_jobs(jobs.make_blocks(workload, seed, 2), tmp_path / name)
    first, again, other = (_files(tmp_path / n) for n in "abc")
    assert first == again
    assert first.keys() == other.keys() and first != other


def _run(job: jobs.Job) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(job.argv())
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def tiny_jobs(tmp_path_factory):
    out = {}
    for workload in jobs.WORKLOADS:
        blocks = jobs.make_blocks(workload, 3, 1, tiny=True)
        jobs.write_jobs(blocks, tmp_path_factory.mktemp(workload))
        out[workload] = blocks[0]
    return out


@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
def test_planted_expectations_hold_on_tiny_instance(workload, tiny_jobs):
    for job in tiny_jobs[workload]:
        rc, out = _run(job)
        assert check.check(job.expect, rc, out) == [], job.id


def test_checker_reports_a_wrong_expectation(tiny_jobs):
    job = next(j for j in tiny_jobs["long-verify"] if "breakdown" in j.id)
    rc, out = _run(job)
    wrong = copy.deepcopy(job.expect)
    wrong["breakdown"] += 1
    wrong["rhos"] = wrong["rhos"][:1]
    problems = check.check(wrong, rc, out)
    assert any(p.startswith("direct_breakdown") for p in problems)
    assert any(p.startswith("rhos") for p in problems)
    assert check.check(job.expect, 0 if rc else 1, out)[0].startswith("exit")


def test_parse_lit():
    assert check.parse_lit("-1/2+i-3/4k") == (-0.5, 1, 0, -0.75)
    assert check.parse_lit("7") == (7, 0, 0, 0)
    assert check.parse_lit("1.5e-3-2j", exact=False) == (0.0015, 0.0, -2.0, 0.0)


def _current(target):
    module_name, attr = target[0], target[1]
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[leaf]


def test_tracing_restores_module_attributes(tiny_jobs):
    before = [_current(t) for t in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(_current(t) is not b for t, b in zip(tracing.TARGETS, before))
        for job in tiny_jobs["small-jobs"]:
            tracer.job = job.id
            _run(job)
    assert [_current(t) for t in tracing.TARGETS] == before
    names = {span[1] for span in tracer.spans} | {key[2] for key in tracer.hot}
    assert {"cli.main", "config.validate_document", "poly.unit_roots",
            "engine.simulate", "recurrence.step", "gmap.apply"} <= names

    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert [_current(t) for t in tracing.TARGETS] == before


def test_self_time_excludes_children(tiny_jobs):
    tracer = tracing.Tracer()
    job = tiny_jobs["long-verify"][0]
    with tracer.installed():
        tracer.job = job.id
        _run(job)
    tot = tracer.totals()
    main_calls, main_total, main_self = tot["cli.main"]
    assert main_calls == 1 and 0 <= main_self < main_total
    self_sum = sum(row[2] for row in tot.values())
    assert self_sum == pytest.approx(main_total, rel=1e-6)
    metrics = tracing.layer_metrics(tracer, 1, main_total)
    assert set(metrics) == set(tracing.LAYER_METRICS) - {
        "trace.jobs_per_s_traced", "trace.jobs_per_s_untraced", "trace.overhead_pct"}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in tracing.LAYER_METRICS.items()}
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS) - {"small-jobs"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-jobs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
