"""One arithmetic definition per ring.

Each ring defines its lazy sum and product; only the base class Ring
defines the canonical _add and _mul, as _normal of the lazy operations, and
generated code reads the lazy operations alone.
"""

import ast
from pathlib import Path

import pytest

from scfactor.gmap import _ring_values
from scfactor.rings import _RING_KINDS, make_ring

RINGS = Path(__file__).resolve().parent.parent / "src" / "scfactor" / "rings.py"
DERIVED = {"_add", "_mul"}


def _bound_names(target) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for t in target.elts for name in _bound_names(t)]
    return []


def class_bindings(source: str, names: set[str]) -> list[str]:
    """Class.name for each of ``names`` that a class body in ``source`` binds:
    by a def, or by an assignment such as ``_add = staticmethod(f)`` or
    ``_add, _mul = f, g``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [name for t in node.targets for name in _bound_names(t)]
            elif isinstance(node, ast.AnnAssign):
                bound = _bound_names(node.target)
            else:
                continue
            found += [f"{cls.name}.{name}" for name in bound if name in names]
    return found


def test_only_ring_defines_add_and_mul():
    assert sorted(class_bindings(RINGS.read_text(), DERIVED)) == ["Ring._add", "Ring._mul"]


def test_the_guard_sees_what_it_refuses():
    source = ("class A:\n    def _add(self, a, b): pass\n"
              "class B:\n    _mul = staticmethod(f)\n"
              "class C:\n    _lazy_add, _add = f, g\n    _mul: object = None\n"
              "class D:\n    def _lazy_mul(self, a, b): pass\n")
    assert class_bindings(source, DERIVED) == ["A._add", "B._mul", "C._add", "C._mul"]


@pytest.mark.parametrize("kind", sorted(_RING_KINDS))
def test_generated_code_reads_no_canonical_op(kind):
    ring = make_ring(kind, modulus=7 if kind == "integers-mod-m" else None)
    values = _ring_values(ring)
    assert DERIVED.isdisjoint(values)
    assert values["_ladd"] == ring._lazy_add and values["_lmul"] == ring._lazy_mul
