"""Payloads are the only value type in the library.

No class under src/scfactor defines an arithmetic operator, and no module
there imports from the tests: wrapping a payload into a value with
operators is left to the tests' element oracle (elements.py).
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "scfactor").glob("*.py"))

OPERATORS = {"add", "sub", "mul", "truediv", "pow"}
NUMERIC_DUNDERS = {f"__{op}__" for op in OPERATORS | {"neg"}} | \
    {f"__r{op}__" for op in OPERATORS}

# names under which a source could reach the tests' modules
TEST_MODULES = {"tests"} | {path.stem for path in TESTS.glob("*.py")}


def _defined_names(node) -> list[str]:
    """Names a class-body statement binds: a def, or an assignment such as
    ``__radd__ = __add__``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def numeric_dunders(source: str) -> list[str]:
    """Class.method for every numeric dunder a class in ``source`` defines."""
    return [f"{cls.name}.{name}"
            for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            for node in cls.body for name in _defined_names(node)
            if name in NUMERIC_DUNDERS]


def imports_of_tests(source: str) -> list[str]:
    """The absolute imports in ``source`` of a module of the tests."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in TEST_MODULES]
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"rings.py", "poly.py", "recurrence.py", "engine.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_arithmetic_operators(path):
    assert numeric_dunders(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_imports_from_tests(path):
    assert imports_of_tests(path.read_text()) == []


def test_the_checks_see_what_they_refuse():
    source = ("import tests.elements\nfrom elements import El\nfrom .rings import Ring\n"
              "class V:\n    def __mul__(self, o): pass\n    __rmul__ = __mul__\n"
              "    def __neg__(self): pass\n    def __eq__(self, o): pass\n")
    assert numeric_dunders(source) == ["V.__mul__", "V.__rmul__", "V.__neg__"]
    assert imports_of_tests(source) == ["tests.elements", "elements"]
