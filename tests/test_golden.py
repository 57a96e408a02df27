"""Golden reports: the --json output of factor, verify and certify on every
shipped config must stay byte-identical.

tests/golden_reports.json maps "<command> <config file name>" to the exit
code and stdout of ``scfactor <command> configs/<name> --json``. Regenerate
it only for a change that is meant to alter reports:

    PYTHONPATH=src python tests/test_golden.py

A refactor that must leave every report as it was can be checked more
widely with tests/snapshot_reports.py (not collected by pytest). It writes
exit code, stdout and stderr of factor, verify and certify, with and
without --json, for every shipped config and every job of the first N
blocks of each workload in bench/jobs.py, and of simulate with both --emit
formats (with the files written) for every shipped config, to one JSON
file; two checkouts agree when their files do. ``--against`` compares the
new snapshot with an older file: it prints each differing record key with
a unified diff of its stdout, stderr and files, and exits 1 if any record
differs:

    python tests/snapshot_reports.py --root ../parent --seeds 5 11 --blocks 2 --out old.json
    python tests/snapshot_reports.py --seeds 5 11 --blocks 2 --against old.json
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from scfactor.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_reports.json"
COMMANDS = ("factor", "verify", "certify")
CONFIGS = sorted(p.name for p in (ROOT / "configs").glob("*.json"))


def run_report(command: str, name: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(ROOT / "configs" / name), "--json"])
    return {"exit": code, "stdout": out.getvalue()}


def test_golden_covers_every_config():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(f"{c} {n}" for c in COMMANDS for n in CONFIGS)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_report_matches_golden(command, name):
    golden = json.loads(GOLDEN.read_text())
    assert run_report(command, name) == golden[f"{command} {name}"]


if __name__ == "__main__":
    reports = {f"{c} {n}": run_report(c, n) for c in COMMANDS for n in CONFIGS}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}", file=sys.stderr)
