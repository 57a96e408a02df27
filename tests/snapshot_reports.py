"""Snapshot the command-line reports of a checkout into one JSON file.

For every file under configs/ and every job of the first N blocks of each
workload in bench/jobs.py (generated per seed, loaded read-only), runs
``factor``, ``verify`` and ``certify``, each with and without ``--json``, and
records exit code, stdout and stderr. Every configs/ file also runs
``simulate --emit csv`` and ``--emit json`` into a fresh temporary ``--out``
directory, whose files are recorded by name with their text. Two checkouts
agree when their snapshots are equal, so comparing them is a diff of two
files:

    python tests/snapshot_reports.py --seeds 5 11 --blocks 2 --out new.json
    python tests/snapshot_reports.py --root ../old --seeds 5 11 --blocks 2 --out old.json
    diff old.json new.json

``--root`` names the checkout whose src/, configs/ and bench/jobs.py are used
(default: the one holding this script). The commands run in this process
through ``scfactor.cli.main``; an exception that escapes main is recorded as
exit code "traceback" with its type and message. Paths of the checkout and
of the temporary job and output directories are replaced by ``<root>``,
``<jobs>`` and ``<out>``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

COMMANDS = ("factor", "verify", "certify")


def _load(root: Path):
    sys.path.insert(0, str(root / "src"))
    from scfactor.cli import main
    spec = importlib.util.spec_from_file_location("snapshot_jobs", root / "bench" / "jobs.py")
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return main, jobs


def _run(main, argv: list[str], replace: dict[str, str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so that the snapshot shows it
            code = "traceback"
            print(f"{type(exc).__name__}: {exc}", file=err)
    record = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    for old, new in replace.items():
        record = {key: val.replace(old, new) if isinstance(val, str) else val
                  for key, val in record.items()}
    return record


def _variants(name: str, path: str):
    for command in COMMANDS:
        for flags in ((), ("--json",)):
            yield " ".join([command, name, *flags]), [command, path, *flags]


def _simulate(main, name: str, path: str, replace: dict[str, str]):
    for emit in ("csv", "json"):
        with tempfile.TemporaryDirectory() as out:
            record = _run(main, ["simulate", path, "--emit", emit, "--out", out],
                          {out: "<out>", **replace})
            record["files"] = {f.name: f.read_text() for f in sorted(Path(out).iterdir())}
        yield f"simulate {name} --emit {emit}", record


def snapshot(root: Path, seeds: list[int], n_blocks: int) -> dict:
    main, jobs = _load(root)
    records = {}
    replace = {str(root): "<root>"}
    for path in sorted((root / "configs").glob("*.json")):
        for key, argv in _variants(f"configs/{path.name}", str(path)):
            records[key] = _run(main, argv, replace)
        records.update(_simulate(main, f"configs/{path.name}", str(path), replace))
    with tempfile.TemporaryDirectory() as tmp:
        replace = {tmp: "<jobs>", **replace}
        for seed in seeds:
            for workload in jobs.WORKLOADS:
                blocks = jobs.make_blocks(workload, seed, n_blocks)
                jobs.write_jobs(blocks, Path(tmp) / str(seed) / workload)
                for job in (job for block in blocks for job in block):
                    for key, argv in _variants(f"{seed}/{job.id}", job.path):
                        records[key] = _run(main, argv, replace)
    return records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to snapshot (default: this script's)")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--blocks", type=int, required=True, help="blocks per workload and seed")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args()
    records = snapshot(args.root.resolve(), args.seeds, args.blocks)
    args.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
