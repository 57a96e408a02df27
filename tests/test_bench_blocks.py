"""One block of each benchmark workload, run through cli.main and checked by
the benchmark's own checker against the outcomes planted in its jobs; the
names the benchmark's tracer wraps, which must exist in the library; and a
traced simulate, whose engine calls the tracer must see."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import scfactor
from scfactor.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


jobs, check, tracing = _bench_module("jobs"), _bench_module("check"), _bench_module("tracing")
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_block_matches_planted_outcomes(tmp_path, workload, seed):
    [block] = jobs.make_blocks(workload, seed, 1)
    jobs.write_jobs([block], tmp_path)
    problems = []
    for job in block:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(job.argv())
        problems += [f"{job.id}: {p}" for p in check.check(job.expect, code, out.getvalue())]
    assert problems == []


@pytest.mark.parametrize("module_name, attr", [target[:2] for target in tracing.TARGETS],
                         ids=[":".join(target[:2]) for target in tracing.TARGETS])
def test_traced_name_exists(module_name, attr):
    # resolved as Tracer.installed resolves it: a name missing from its
    # owner's own namespace fails the traced run with a KeyError
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(vars(owner)[leaf])


@pytest.mark.parametrize("name", ["alsp_z97.json", "exzp_z11.json"])
def test_traced_simulate_records_its_engine_calls(tmp_path, name):
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        code = main(["simulate", str(ROOT / "configs" / name), "--out", str(tmp_path)])
    assert code == 0
    names = [span[1] for span in tracer.spans]
    # the direct run; simulate_chain runs the deepest level in its own pass
    assert names.count("engine.simulate") == 1
    assert names.count("engine.simulate_chain") == 1


def test_public_names_exist():
    assert [name for name in scfactor.__all__ if not hasattr(scfactor, name)] == []
