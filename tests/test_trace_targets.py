"""The bench tracer's patch targets exist in the library.

bench/tracing.py wraps functions by replacing module (or class) attributes
by name, for example ``scfactor.factorize.unit_roots``. Deleting or renaming
one of them breaks only traced bench runs, so this loads the tracer
read-only (as snapshot_reports.py loads bench/jobs.py) and resolves every
target the way the tracer does, through ``vars()``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("trace_targets_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _name, _hot in tracing.TARGETS]


TARGETS = _targets()


def test_all_targets_listed():
    assert len(TARGETS) == 22


@pytest.mark.parametrize("module, attr", TARGETS, ids=lambda x: x)
def test_target_resolves(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert callable(vars(owner)[leaf])
