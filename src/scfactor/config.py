"""Job configs: JSON loading, schema validation, and object construction.

A job file names a ring, a module dimension, exactly one of a raw
recurrence / a named family / a componentwise system, an initial window,
and optional run parameters. ``load_job`` turns a path or parsed document
into a ready-to-use JobConfig; every malformed input surfaces as
ConfigError with the offending location in the message.

The shipped ``config.schema.json`` is the one definition of the format.
``validate_document`` checks a document against it with one Python
predicate generated from the file, compiled once per process on first use.
Only a document the predicate refuses is walked again, by ``_errors``,
which lists its failed keywords to name the error. The two read their type
and keyword tests from one pair of tables and implement exactly the JSON
Schema keywords that file uses; the generator refuses any other keyword
with ValueError, so a later schema edit cannot drop a rule silently. One
rule is stricter than JSON Schema: ``integer`` means a JSON integer, so
``5.0`` is refused. Of several errors, the one reported is the one the
reference validator's best-match rule picks; the test suite checks the
messages against that validator, and the predicate against the walker.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import namedtuple

from .errors import ConfigError, GMapSyntaxError, ParseError, ScfactorError
from .recurrence import FamilyInfo, GMap, Recurrence, build_family, fold_system
from .rings import Module, Ring, make_ring


def schema() -> dict:
    """The job-config JSON schema shipped with the package, read through this
    module's own loader, which reads a zipped install too."""
    return json.loads(__spec__.loader.get_data(
        os.path.join(os.path.dirname(__file__), "config.schema.json")))


RunOptions = namedtuple("RunOptions", "steps horizon rel_tol seeds roots",
                        defaults=(100, 64, None, None, None))


class JobConfig:
    __slots__ = ("ring", "module", "recurrence", "family", "initial", "run")

    def __init__(self, ring: Ring, module: Module, recurrence: Recurrence,
                 family: FamilyInfo | None, initial: list, run: RunOptions = RunOptions()):
        self.ring = ring
        self.module = module
        self.recurrence = recurrence
        self.family = family
        self.initial = initial
        self.run = run

    @property
    def family_kind(self) -> str | None:
        return self.family.kind if self.family else None


def read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # json raises RecursionError on nesting deeper than the interpreter's stack
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # what is left: Python refuses to convert longer integer literals
        raise ConfigError(f"config {path!r} holds an integer literal longer than "
                          f"{sys.get_int_max_str_digits()} digits") from exc


# ---------------------------------------------------------------------------
# the rules shared by the predicate and the error walker
#
# Each test is Python source over the instance {x} and a keyword's value
# {v}. The predicate generator writes it into its source, the value inserted
# by repr; the walker compiles it, on first use, into a function of (x, v).

# JSON type -> (the test of a type keyword, which checks the exact Python type
# of a JSON value; the guard of a keyword that applies only to that type)
_TYPES = {
    "object": ("type({x}) is dict", "isinstance({x}, dict)"),
    "array": ("type({x}) is list", "isinstance({x}, list)"),
    "string": ("type({x}) is str", None),
    # a JSON integer: JSON Schema would also admit 5.0, which no integer
    # field of a config can use
    "integer": ("type({x}) is int", None),
    "number": ("type({x}) in _NUMBER",
               "(isinstance({x}, _NUMBER) and not isinstance({x}, bool))"),
    "boolean": ("type({x}) is bool", None),
    "null": ("{x} is None", None),
}
_NUMBER = (int, float)

# keyword -> (the JSON type it applies to, None for every instance; its test)
_INSTANCE = {
    "enum": (None, "{x} in {v}"),
    "const": (None, "{x} == {v}"),
    "minimum": ("number", "not {x} < {v}"),
    "exclusiveMinimum": ("number", "not {x} <= {v}"),
    "minItems": ("array", "not len({x}) < {v}"),
}


@functools.cache
def _function(source: str):
    """The test ``source`` as a function of (x, v)."""
    return eval(f"lambda x, v=None: {source.format(x='x', v='v')}", {"_NUMBER": _NUMBER})


def _is(type_name: str, x) -> bool:
    """Whether a keyword that applies to ``type_name`` applies to ``x``."""
    return _function(_TYPES[type_name][1])(x)


def _names(types) -> list:
    return [types] if isinstance(types, str) else list(types)


def _type_test(types):
    """The test of a ``type`` value: one type name or a list of them."""
    tests = [_function(_TYPES[t][0]) for t in _names(types)]
    return lambda x: any(t(x) for t in tests)


# ---------------------------------------------------------------------------
# schema errors
#
# Run only on a document the predicate refuses: the walker lists every
# failed keyword, and _best picks the one the reference validator's
# best-match rule reports.

# the reference validator's message for each keyword, from the instance and
# the value the failed check recorded
_MESSAGES = {
    "type": lambda x, v: f"{x!r} is not of type {', '.join(map(repr, _names(v)))}",
    "enum": lambda x, v: f"{x!r} is not one of {v!r}",
    "const": lambda x, v: f"{v!r} was expected",
    "minimum": lambda x, v: f"{x!r} is less than the minimum of {v!r}",
    "exclusiveMinimum": lambda x, v: f"{x!r} is less than or equal to the minimum of {v!r}",
    "required": lambda x, v: f"{v!r} is a required property",
    "additionalProperties": lambda x, v: "Additional properties are not allowed "
        f"({', '.join(map(repr, v))} {'was' if len(v) == 1 else 'were'} unexpected)",
    "minItems": lambda x, v: f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}",
    "not": lambda x, v: f"{x!r} should not be valid under {v!r}",
    # v lists the valid branches, first valid one last; None when none is
    "oneOf": lambda x, v: (f"{x!r} is valid under each of {', '.join(map(repr, v))}" if v
                           else f"{x!r} is not valid under any of the given schemas"),
}


class _Error:
    """One failed keyword; path is relative to the instance its walk began at."""

    __slots__ = ("keyword", "value", "instance", "node", "context", "path")

    def __init__(self, keyword: str, value, instance, node: dict,
                 context: list | tuple = (), path: tuple = ()):
        self.keyword = keyword
        self.value = value
        self.instance = instance
        self.node = node
        self.context = context
        self.path = path

    def relevance(self):
        # the reference validator's best-match key: the shallowest error, then
        # the last sibling path, then one that is not a oneOf, then one whose
        # node declares a type the instance does not have
        types = self.node.get("type")
        matches = types is not None and _type_test(types)(self.instance)
        return (-len(self.path), self.path, self.keyword != "oneOf", not matches)


def _errors(node: dict, x, root: dict, path: tuple = ()) -> list:
    """The failed keywords of instance ``x`` under ``node``, a subschema of
    ``root``, each at ``path`` (the place of ``x``) plus its place within
    ``x``. Keywords are read in the node's order, which decides the best
    match among equal errors; the errors inside a oneOf are placed relative
    to its instance."""
    errors = []
    for keyword, value in node.items():
        if keyword in _INSTANCE:
            applies, test = _INSTANCE[keyword]
            if (applies is None or _is(applies, x)) and not _function(test)(x, value):
                errors.append(_Error(keyword, value, x, node, path=path))
        elif keyword == "type":
            if not _type_test(value)(x):
                errors.append(_Error(keyword, value, x, node, path=path))
        elif keyword == "$ref":
            errors += _errors(root["$defs"][value.removeprefix("#/$defs/")], x, root, path)
        elif keyword == "allOf":
            for sub in value:
                errors += _errors(sub, x, root, path)
        elif keyword == "if":
            branch = node.get("else" if _errors(value, x, root) else "then")
            if branch is not None:
                errors += _errors(branch, x, root, path)
        elif keyword == "not":
            if not _errors(value, x, root):
                errors.append(_Error(keyword, value, x, node, path=path))
        elif keyword == "oneOf":
            failed = [_errors(sub, x, root) for sub in value]
            valid = [sub for sub, e in zip(value, failed) if not e]
            if len(valid) > 1:
                errors.append(_Error(keyword, valid[1:] + valid[:1], x, node, path=path))
            elif not valid:
                errors.append(_Error(keyword, None, x, node, [e for f in failed for e in f], path))
        elif keyword == "items" and _is("array", x):
            for i, item in enumerate(x):
                errors += _errors(value, item, root, (*path, i))
        elif keyword == "required" and _is("object", x):
            errors += [_Error(keyword, p, x, node, path=path) for p in value if p not in x]
        elif keyword == "properties" and _is("object", x):
            for key, sub in value.items():
                if key in x:
                    errors += _errors(sub, x[key], root, (*path, key))
        elif keyword == "additionalProperties" and _is("object", x):
            extra = [key for key in x if key not in node.get("properties", ())]
            if value is False and extra:
                errors.append(_Error(keyword, sorted(extra, key=str), x, node, path=path))
            elif isinstance(value, dict):
                for key in extra:
                    errors += _errors(value, x[key], root, (*path, key))
    return errors


def _best(errors: list) -> tuple[tuple, str]:
    """The path and message of the error the reference validator's best match reports."""
    best = max(errors, key=_Error.relevance)
    path = best.path
    while best.context:
        # inside a failed oneOf: the deepest branch error, unless it ties
        first, *rest = sorted(best.context, key=_Error.relevance)[:2]
        if rest and first.relevance() == rest[0].relevance():
            break
        best = first
        path += best.path
    return path, _MESSAGES[best.keyword](best.instance, best.value)


# ---------------------------------------------------------------------------
# schema predicate
#
# The schema as one generated Python function that answers only whether an
# instance is valid. A keyword that applies to one JSON type is guarded by
# that type's guard, which the node's type keyword, or the type its
# enclosing node already checked, makes redundant.

# the keywords whose predicate is a function of its own
_COMPOSITE = {"properties", "additionalProperties", "items", "allOf", "if", "not", "oneOf"}
# read by their neighbours ("then", "else"), by $ref ("$defs"), or annotations
_PASSIVE = {"then", "else", "$defs", "$schema", "title"}


def _written(keyword: str, value):
    """The value of an instance keyword as the predicate writes it; refused
    when its repr would not test what the schema means."""
    if keyword in ("enum", "const"):
        # compared with ==, which is JSON equality for strings only
        values = value if keyword == "enum" else [value]
        if not all(isinstance(v, str) for v in values):
            raise ValueError(f"config schema: only string enum and const values are "
                             f"supported, got {values!r}")
        return tuple(values) if keyword == "enum" else value
    if not (_type_test("number")(value) and math.isfinite(value)):
        raise ValueError(f"config schema: only finite numeric bounds are supported, "
                         f"got {value!r}")
    return value


class _Predicate:
    """Python source of the predicate of a schema, one ``def`` per $defs
    entry and per composite subschema (equal ones shared), each returning
    one boolean expression. Only the schema's keys and constants reach the
    source, each through repr."""

    def __init__(self, root: dict):
        self.lines = ["_NUMBER = (int, float)"]
        self.names: dict = {}   # (repr of a subschema, known type) -> function name
        self.todo: list = []
        self.constants: dict = {}  # sorted keys -> name of their frozenset
        self.refs = {name: self.reserve(node) for name, node in root.get("$defs", {}).items()}
        self.entry = self.reserve(root)
        while self.todo:
            name, node, known = self.todo.pop()
            self.lines.append(f"def {name}(x):\n    return {self.conjunction(node, 'x', known)}")

    def function(self, node, known=None) -> str:
        """The name of a function testing ``node`` on an instance of the
        ``known`` type (None: any)."""
        if isinstance(node, dict) and node.keys() == {"$ref"}:
            return self.ref(node["$ref"])
        return self.reserve(node, known)

    def reserve(self, node, known=None) -> str:
        """The name of the function of ``node`` itself; its body is written later."""
        key = (repr(node), known)
        if key not in self.names:
            self.names[key] = f"_p{len(self.names)}"
            self.todo.append((self.names[key], node, known))
        return self.names[key]

    def ref(self, target: str) -> str:
        name = target.removeprefix("#/$defs/")
        if name == target or name not in self.refs:
            raise ValueError(f"config schema: unsupported $ref {target!r}")
        return self.refs[name]

    def constant(self, keys) -> str:
        keys = tuple(sorted(keys))
        if keys not in self.constants:
            self.constants[keys] = f"_k{len(self.constants)}"
            self.lines.append(f"{self.constants[keys]} = frozenset({keys!r})")
        return self.constants[keys]

    def test(self, node, var: str, known=None) -> str:
        """An expression that holds when the instance ``var`` satisfies ``node``."""
        if isinstance(node, dict) and _COMPOSITE.intersection(node):
            return f"{self.function(node, known)}({var})"
        return self.conjunction(node, var, known)

    def conjunction(self, node, var: str, known) -> str:
        if not isinstance(node, dict):
            raise ValueError(f"config schema: subschema {node!r} is not an object")
        types = node.get("type")
        if isinstance(types, str):
            known = types
        terms, guarded = [], {}
        if types is not None:
            tests = [_TYPES[t][0].format(x=var) for t in _names(types)]
            terms.append(tests[0] if len(tests) == 1 else f"({' or '.join(tests)})")
        # required first: a property it names is then read without a test
        for keyword in sorted(node, key=lambda k: k != "required"):
            if keyword in _PASSIVE or keyword == "type":
                continue
            guard, term = self.keyword(keyword, node[keyword], node, var, known)
            if guard is None or guard == known or (guard, known) == ("number", "integer"):
                terms.append(term)
            else:
                guarded.setdefault(guard, []).append(term)
        for guard, checks in guarded.items():
            terms.append(f"(not {_TYPES[guard][1].format(x=var)} or {' and '.join(checks)})")
        return f"({' and '.join(terms)})" if terms else "True"

    def keyword(self, keyword, value, node, var, known) -> tuple:
        """The JSON type ``keyword`` applies to (None: every instance) and
        the expression of its check."""
        if keyword in _INSTANCE:
            applies, test = _INSTANCE[keyword]
            return applies, test.format(x=var, v=repr(_written(keyword, value)))
        if keyword == "$ref":
            return None, f"{self.ref(value)}({var})"
        if keyword == "items":
            return "array", f"all(map({self.function(value)}, {var}))"
        if keyword == "required":
            return "object", " and ".join(f"{p!r} in {var}" for p in value) or "True"
        if keyword == "properties":
            required = node.get("required", ())
            return "object", " and ".join(
                self.test(sub, f"{var}[{p!r}]") if p in required else
                f"({p!r} not in {var} or {self.test(sub, f'{var}[{p!r}]')})"
                for p, sub in value.items()) or "True"
        if keyword == "additionalProperties":
            known_keys = node.get("properties", {})
            if value is True:
                return None, "True"
            if value is False:
                return "object", f"{var}.keys() <= {self.constant(known_keys)}"
            sub = self.function(value)
            if not known_keys:
                return "object", f"all(map({sub}, {var}.values()))"
            return "object", (f"all({sub}(v) for k, v in {var}.items() "
                              f"if k not in {self.constant(known_keys)})")
        if keyword == "allOf":
            return None, " and ".join(self.test(s, var, known) for s in value)
        if keyword == "if":
            then, other = (self.test(node[k], var, known) if k in node else "True"
                           for k in ("then", "else"))
            return None, f"({then} if {self.test(value, var, known)} else {other})"
        if keyword == "not":
            return None, f"not {self.test(value, var, known)}"
        if keyword == "oneOf":  # exactly one branch holds
            return None, f"({' + '.join(self.test(s, var, known) for s in value)}) == 1"
        raise ValueError(f"config schema: keyword {keyword!r} is not supported")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def compile_predicate(root: dict):
    """The predicate of a JSON schema: True exactly when ``_errors`` finds
    no error. A keyword outside the tables above, a ``$ref`` outside
    ``#/$defs/``, a subschema that is not an object, a non-string enum or
    const value, or a bound that is not a finite number raises ValueError
    here, before any instance is seen."""
    gen = _Predicate(root)
    namespace: dict = {}
    exec(compile(gen.source(), "<config schema predicate>", "exec"), namespace)
    return namespace[gen.entry]


@functools.cache
def _document_holds():
    return compile_predicate(schema())


def validate_document(doc: dict) -> None:
    """Structural validation against the shipped schema: the generated
    predicate decides, and the walker, run only on a document the predicate
    refuses, names the error."""
    if _document_holds()(doc):
        return
    root = schema()
    errors = _errors(root, doc, root)
    if errors:
        path, message = _best(errors)
        where = "/".join(map(str, path)) or "(top level)"
        raise ConfigError(f"config invalid at {where}: {message}")


def _build_gmap(module: Module, gdoc: dict | None) -> GMap:
    if gdoc is None:
        return GMap.zero(module)
    kind = gdoc["kind"]
    try:
        if kind == "zero":
            return GMap.zero(module)
        if kind == "constant-sequence":
            return GMap.constant_sequence(module, gdoc["values"])
        if kind == "linear-scale":
            return GMap.linear_scale(module, gdoc["values"])
        if kind == "expression":
            return GMap.expression(module, gdoc["exprs"], gdoc.get("sequences", {}))
    except (ParseError, GMapSyntaxError) as exc:
        raise ConfigError(f"bad g map ({kind}): {exc}") from exc
    raise ConfigError(f"unknown g kind {kind!r}")


def _build_recurrence(module: Module, rdoc: dict) -> Recurrence:
    a = rdoc["a"]
    b = rdoc["b"]
    if len(a) != len(b):
        raise ConfigError(
            f"recurrence.a has {len(a)} row(s) but recurrence.b has {len(b)}")
    g = _build_gmap(module, rdoc["g"])
    try:
        return Recurrence(module, a, b, g)
    except (ParseError, ScfactorError) as exc:
        raise ConfigError(f"bad recurrence: {exc}") from exc


def _parse_initial(module: Module, entries: list, order: int) -> list:
    if len(entries) != order:
        raise ConfigError(
            f"initial window must hold {order} value(s) for this order, got {len(entries)}")
    out = []
    for i, entry in enumerate(entries):
        try:
            out.append(module.payloads(entry))
        except (ParseError, ScfactorError) as exc:
            raise ConfigError(f"initial[{i}]: {exc}") from exc
    return out


def _parse_run(module: Module, rdoc: dict | None, k: int) -> RunOptions:
    run = RunOptions()
    if not rdoc:
        return run
    seeds = None
    if "seeds" in rdoc:
        # Seed windows feed the alpha recursion, so entries are ring scalars
        # regardless of the module dimension.
        seeds = []
        for i, window in enumerate(rdoc["seeds"]):
            if len(window) != k:
                raise ConfigError(
                    f"run.seeds[{i}] must hold {k} value(s) (one below the order), "
                    f"got {len(window)}")
            try:
                seeds.append([module.ring.payload(v) for v in window])
            except (ParseError, ScfactorError) as exc:
                raise ConfigError(f"run.seeds[{i}]: {exc}") from exc
    return RunOptions(rdoc.get("steps", run.steps), rdoc.get("horizon", run.horizon),
                      rdoc.get("rel_tol"), seeds,
                      list(rdoc["roots"]) if "roots" in rdoc else None)


# The most values one window of a recurrence holds (module.dim times the
# order). Generated code unrolls every window value: at 1536, the slowest
# planted Z/101 job measured, `verify` of dim 1 and order 1536, took
# 0.55-0.74 s (about half of it the root search) and 77 MB; at dim 1536 and
# order 1 it took 0.34-0.59 s and 88 MB. At 2048 the same jobs took up to 1.3 s.
MAX_WINDOW_VALUES = 1536


def build_job(doc: dict) -> JobConfig:
    """Validate a parsed document and construct the working objects."""
    validate_document(doc)
    ringdoc = doc["ring"]
    try:
        ring = make_ring(ringdoc["kind"], modulus=ringdoc.get("modulus"),
                         tolerance=ringdoc.get("tolerance"))
    except (ParseError, ScfactorError) as exc:
        raise ConfigError(f"bad ring: {exc}") from exc
    module = Module(ring, doc["module"]["dim"])

    family = None
    if "recurrence" in doc:
        rec = _build_recurrence(module, doc["recurrence"])
    elif "family" in doc:
        fdoc = doc["family"]
        if fdoc["kind"] == "linear":
            if "g" in fdoc:
                raise ConfigError(
                    "the linear family carries its forcing in params.c; leave g out")
            g = None
        else:
            g = _build_gmap(module, fdoc.get("g"))
        try:
            family = build_family(module, fdoc["kind"], fdoc["params"], g)
        except (ParseError, ScfactorError) as exc:
            raise ConfigError(f"bad family ({fdoc['kind']}): {exc}") from exc
        rec = family.recurrence
    else:
        try:
            rec = fold_system(module, doc["system"]["components"])
        except (ParseError, ScfactorError) as exc:
            raise ConfigError(f"bad system: {exc}") from exc
    if module.dim * rec.order > MAX_WINDOW_VALUES:
        raise ConfigError(f"dim {module.dim} times order {rec.order} is {module.dim * rec.order} "
                          f"values per window, past the limit of {MAX_WINDOW_VALUES}")

    initial = _parse_initial(module, doc["initial"], rec.order)
    run = _parse_run(module, doc.get("run"), rec.k)
    return JobConfig(ring=ring, module=module, recurrence=rec, family=family,
                     initial=initial, run=run)


def load_job(path: str) -> JobConfig:
    """Read, validate, and build a job from a JSON file path."""
    return build_job(read_config_file(path))
