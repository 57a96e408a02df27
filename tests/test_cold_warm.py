"""Generated code depends on a job's shape only: every command of every
configs/ file (as tests/snapshot_reports.py runs them) and one block of each
benchmark workload at seeds 5 and 11 (the bench's own command, bench/jobs.py
loaded read-only) run twice in one process through cli.main. The first pass
starts from empty caches, so each shape is generated by the first job that
has it; the second runs the jobs in reverse order with every shape cached,
so most jobs run code that another job generated. Exit codes, stdout,
stderr and simulate's files must be byte-identical: a shape key that misses
a feature of the source would give some job another job's code."""

from pathlib import Path

from snapshot_reports import _load, _run, _simulate, _variants

from scfactor import gmap

ROOT = Path(__file__).resolve().parent.parent


def _commands(main, jobs, tmp: Path):
    """(key, run) for each command: run() gives its record."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        for key, argv in _variants(path.name, str(path)):
            yield key, lambda argv=argv: _run(main, argv, {})
        yield f"simulate {path.name}", lambda path=path: list(_simulate(main, path.name,
                                                                         str(path), {}))
    for seed in (5, 11):
        for workload in jobs.WORKLOADS:
            [block] = jobs.make_blocks(workload, seed, 1)
            jobs.write_jobs([block], tmp / str(seed))
            for job in block:
                yield f"{seed}/{job.id}", lambda argv=job.argv(): _run(main, argv, {})


def test_warm_runs_match_cold_runs(tmp_path):
    main, jobs = _load(ROOT)
    commands = list(_commands(main, jobs, tmp_path))
    gmap._KERNELS.clear()
    gmap._parse.cache_clear()
    gmap.expr_form.cache_clear()
    cold = {key: run() for key, run in commands}
    warm = {key: run() for key, run in reversed(commands)}
    assert len(gmap._KERNELS) > 0
    assert [key for key in cold if cold[key] != warm[key]] == []
