"""Snapshot the command-line reports of a checkout into one JSON file.

For every file under configs/ and every job of the first N blocks of each
workload in bench/jobs.py (generated per seed, loaded read-only), runs
``factor``, ``verify`` and ``certify``, each with and without ``--json``, and
records exit code, stdout and stderr. Every configs/ file also runs
``simulate --emit csv`` and ``--emit json``, and every job ``simulate --emit
json``, each into a fresh temporary ``--out`` directory, whose files are
recorded by name with their text; every configs/ file that sets
``run.seeds`` runs ``certify --json --horizon 1000``, whose
certificate outlives its period. The error paths are recorded too: a fixed
list of malformed argv (help included), and ``factor`` on invalid configs,
one per kind of schema keyword and per way the error search descends (a
schema-valued ``additionalProperties``, a ``oneOf`` branch, an ``if``/``then``
branch). Two checkouts agree when their snapshots are equal:

    python tests/snapshot_reports.py --root ../old --seeds 5 11 --blocks 2 --out old.json
    python tests/snapshot_reports.py --seeds 5 11 --blocks 2 --against old.json

``--against OLD.json`` compares the new snapshot with one written before: it
prints each record key that differs, or exists on one side only, with a
unified diff of its stdout, stderr and files (and both exit codes when they
differ), and exits 1 if any record differs. ``--out`` writes the snapshot;
at least one of the two is needed.

``--root`` names the checkout whose src/, configs/ and bench/jobs.py are used
(default: the one holding this script). The commands run in this process
through ``scfactor.cli.main``, with help formatted for 80 columns; an
exception that escapes main is recorded as exit code "traceback" with its
type and message. Paths of the checkout and of the temporary job and output
directories are replaced by ``<root>``, ``<jobs>`` and ``<out>``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import difflib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

COMMANDS = ("factor", "verify", "certify")

# The horizon of the certify record of every config that sets run.seeds.
LONG_HORIZON = "1000"

# Malformed argv, each run on configs/exzp_z11.json ("{config}") with a
# fresh output directory ("{out}").
MALFORMED_ARGV = (
    (), ("frobnicate", "{config}"),
    ("factor", "-h"), ("verify", "-h"), ("simulate", "-h"), ("certify", "-h"),
    ("verify", "{config}", "--steps", "five"), ("verify", "{config}", "--steps", "0"),
    ("verify", "{config}", "--js"), ("verify", "{config}", "--steps=5"),
    ("simulate", "{config}"), ("simulate", "{config}", "--emit", "xml", "--out", "{out}"),
)

# Configs that fail one kind of schema keyword, or one descent of the error
# search, each: (name, path, new value), the value None deleting the key, and
# optionally the top-level keys the change replaces; the base is
# configs/exzp_z11.json.
INVALID_CONFIGS = (
    ("type", ("module", "dim"), "1"),
    ("enum", ("ring",), {"kind": "integers"}),
    ("const", ("recurrence", "g", "kind"), "quadratic"),
    ("minimum", ("ring", "modulus"), 1),
    ("exclusiveMinimum", ("run", "rel_tol"), 0),
    ("required", ("initial",), None),
    ("additionalProperties", ("run", "max_period"), 4),
    ("minItems", ("initial",), []),
    ("items", ("initial", 0), 1),
    ("if-then", ("ring", "modulus"), None),
    ("if-else-not", ("ring", "kind"), "exact-rational"),
    ("oneOf-none", ("recurrence",), None),
    ("oneOf-several", ("system",), {"components": [{"a": ["1"], "b": ["1"], "expr": "u1"}]}),
    ("ref", ("recurrence", "a", 0), {"x": "1"}),
    ("additionalProperties-schema", ("recurrence", "g", "sequences"), {"d": "1"}),
    ("oneOf-branch", ("recurrence", "g"), {"kind": "expression"}),
    ("oneOf-deepest", ("recurrence", "g"), {"kind": "expression", "exprs": []}),
    ("family-if-then", ("family",), {"kind": "fsc", "params": {"b": ["1"]}}, "recurrence"),
)


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


def _simulate(main, name: str, path: str, replace: dict[str, str], emits=("csv", "json")):
    for emit in emits:
        with tempfile.TemporaryDirectory() as out:
            record = _run(main, ["simulate", path, "--emit", emit, "--out", out],
                          {out: "<out>", **replace})
            record["files"] = {f.name: f.read_text() for f in sorted(Path(out).iterdir())}
        yield f"simulate {name} --emit {emit}", record


def _error_paths(main, root: Path, tmp: Path, replace: dict[str, str]):
    config = root / "configs" / "exzp_z11.json"
    for words in MALFORMED_ARGV:
        key = " ".join(["argv:", *words]).format(config="<config>", out="<out>")
        with tempfile.TemporaryDirectory() as out:
            argv = [word.format(config=config, out=out) for word in words]
            yield key, _run(main, argv, {out: "<out>", **replace})
    base = json.loads(config.read_text())
    for name, path, value, *replaced in INVALID_CONFIGS:
        doc = copy.deepcopy(base)
        for key in replaced:
            del doc[key]
        *parents, key = path
        parent = doc
        for part in parents:
            parent = parent[part]
        if value is None:
            del parent[key]
        else:
            parent[key] = value
        p = tmp / f"invalid-{name}.json"
        p.write_text(json.dumps(doc))
        yield f"factor invalid-{name}.json", _run(main, ["factor", str(p)], replace)


def snapshot(root: Path, seeds: list[int], n_blocks: int) -> dict:
    main, jobs = _load(root)
    records = {}
    replace = {str(root): "<root>"}
    for path in sorted((root / "configs").glob("*.json")):
        for key, argv in _variants(f"configs/{path.name}", str(path)):
            records[key] = _run(main, argv, replace)
        records.update(_simulate(main, f"configs/{path.name}", str(path), replace))
        if json.loads(path.read_text()).get("run", {}).get("seeds"):
            argv = ["certify", str(path), "--json", "--horizon", LONG_HORIZON]
            records[f"certify configs/{path.name} --json --horizon {LONG_HORIZON}"] = \
                _run(main, argv, replace)
    with tempfile.TemporaryDirectory() as tmp:
        replace = {tmp: "<jobs>", **replace}
        records.update(_error_paths(main, root, Path(tmp), replace))
        for seed in seeds:
            for workload in jobs.WORKLOADS:
                blocks = jobs.make_blocks(workload, seed, n_blocks)
                jobs.write_jobs(blocks, Path(tmp) / str(seed) / workload)
                for job in (job for block in blocks for job in block):
                    for key, argv in _variants(f"{seed}/{job.id}", job.path):
                        records[key] = _run(main, argv, replace)
                    records.update(_simulate(main, f"{seed}/{job.id}", job.path, replace,
                                             emits=("json",)))
    return records


def _text_fields(record: dict) -> dict[str, str]:
    fields = {"stdout": record["stdout"], "stderr": record["stderr"]}
    fields.update((f"files/{name}", text) for name, text in record.get("files", {}).items())
    return fields


def compare(old: dict, new: dict) -> list[str]:
    """The keys of the records that differ between two snapshots, each
    printed with its differences."""
    differing = []
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) == new.get(key):
            continue
        differing.append(key)
        if key not in new or key not in old:
            print(f"== {key}: only in the {'old' if key in old else 'new'} snapshot")
            continue
        print(f"== {key}")
        if old[key]["exit"] != new[key]["exit"]:
            print(f"exit: {old[key]['exit']} -> {new[key]['exit']}")
        before, after = _text_fields(old[key]), _text_fields(new[key])
        for field in sorted(before.keys() | after.keys()):
            lines = list(difflib.unified_diff(
                before.get(field, "").splitlines(keepends=True),
                after.get(field, "").splitlines(keepends=True),
                f"old {field}", f"new {field}"))
            if lines:
                sys.stdout.writelines(lines)
                print()
    return differing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to snapshot (default: this script's)")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--blocks", type=int, required=True, help="blocks per workload and seed")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    ap.add_argument("--against", type=Path, help="snapshot JSON file to compare with")
    args = ap.parse_args()
    if args.out is None and args.against is None:
        ap.error("give --out, --against or both")
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width
    records = snapshot(args.root.resolve(), args.seeds, args.blocks)
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    if args.against is None:
        return 0
    differing = compare(json.loads(args.against.read_text()), records)
    print(f"{len(differing)} of {len(records)} records differ from {args.against}",
          file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
