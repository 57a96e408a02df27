"""Job configs: JSON loading, schema validation, and object construction.

A job file names a ring, a module dimension, exactly one of a raw
recurrence / a named family / a componentwise system, an initial window,
and optional run parameters. ``load_job`` turns a path or parsed document
into a ready-to-use JobConfig; every malformed input surfaces as
ConfigError with the offending location in the message.

The shipped ``config.schema.json`` is the one definition of the format.
``validate_document`` checks a document against it with a small
interpreter of exactly the JSON Schema keywords that file uses, compiled
once per process; a schema keyword outside that set raises ValueError, so
a later schema edit cannot drop a rule silently. One rule is stricter than
JSON Schema: ``integer`` means a JSON integer, so ``5.0`` is refused. Of
several errors, the one reported is the one the reference validator's
best-match rule picks; the test suite checks both against that validator.
"""

from __future__ import annotations

import functools
import heapq
import json
import operator
import sys
from dataclasses import dataclass, field
from importlib import resources

from .errors import ConfigError, GMapSyntaxError, ParseError, ScfactorError
from .recurrence import FamilyInfo, GMap, Recurrence, build_family, fold_system
from .rings import Module, Ring, make_ring


def schema() -> dict:
    """The job-config JSON schema shipped with the package."""
    text = resources.files("scfactor").joinpath("config.schema.json").read_text()
    return json.loads(text)


@dataclass
class RunOptions:
    steps: int = 100
    horizon: int = 64
    rel_tol: float | None = None
    seeds: list[list] | None = None
    roots: list[str] | None = None


@dataclass
class JobConfig:
    doc: dict
    ring: Ring
    module: Module
    recurrence: Recurrence
    family: FamilyInfo | None
    from_system: bool
    initial: list
    run: RunOptions = field(default_factory=RunOptions)

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
# schema interpreter
#
# A compiled check maps an instance to the list of its errors, empty (or ())
# when the instance is valid, so valid input builds no error objects except
# in the failed branches of a oneOf. Each keyword applies only to instances
# of its JSON type, as in JSON Schema.

_IS_TYPE = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    # a JSON integer: JSON Schema would also admit 5.0, which no integer
    # field of a config can use
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
}
_is_number = _IS_TYPE["number"]


def _names(types) -> list:
    return [types] if isinstance(types, str) else list(types)


def _type_test(types):
    """The predicate for a ``type`` value: one type name or a list of them."""
    tests = [_IS_TYPE[t] for t in _names(types)]
    return tests[0] if len(tests) == 1 else lambda x: any(t(x) for t in tests)


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


@dataclass(slots=True)
class _Error:
    """One failed keyword; path is relative to the instance its check was given."""

    keyword: str
    value: object
    instance: object
    node: dict
    context: list | tuple = ()
    path: tuple = ()

    def relevance(self):
        # the reference validator's best-match key: the shallowest error, then
        # the last sibling path, then one that is not a oneOf, then one whose
        # node declares a type the instance does not have
        types = self.node.get("type")
        matches = types is not None and _type_test(types)(self.instance)
        return (-len(self.path), self.path, self.keyword != "oneOf", not matches)


def _errors_at(children) -> list:
    """The errors of (key, check, value) children, each path prefixed by its key."""
    errors = []
    for key, check, value in children:
        for e in check(value):
            e.path = (key, *e.path)
            errors.append(e)
    return errors


def _type(types, node, compile_node):
    test = _type_test(types)
    return lambda x: () if test(x) else [_Error("type", types, x, node)]


def _strings(values):
    # enum and const compare with ==, which is JSON equality for strings only
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"config schema: only string enum and const values are supported, "
                         f"got {values!r}")
    return values


def _enum(values, node, compile_node):
    values = _strings(values)
    return lambda x: () if x in values else [_Error("enum", values, x, node)]


def _const(value, node, compile_node):
    _strings([value])
    return lambda x: () if x == value else [_Error("const", value, x, node)]


def _bound(keyword, applies, fails):
    """A keyword that compares an instance of one type with the keyword's value."""
    def make(value, node, compile_node):
        return lambda x: [_Error(keyword, value, x, node)] if applies(x) and fails(x, value) else ()
    return make


def _required(names, node, compile_node):
    return lambda x: ([_Error("required", p, x, node) for p in names if p not in x]
                      if isinstance(x, dict) else ())


def _properties(props, node, compile_node):
    pairs = [(key, compile_node(sub)) for key, sub in props.items()]
    return lambda x: (_errors_at((key, sub, x[key]) for key, sub in pairs if key in x)
                      if isinstance(x, dict) else ())


def _additional_properties(extra, node, compile_node):
    known = set(node.get("properties", ()))
    if extra is True:
        return lambda x: ()
    if extra is False:
        def check(x):
            unexpected = [key for key in x if key not in known] if isinstance(x, dict) else ()
            return ([_Error("additionalProperties", sorted(unexpected, key=str), x, node)]
                    if unexpected else ())
        return check
    sub = compile_node(extra)
    return lambda x: (_errors_at((key, sub, v) for key, v in x.items() if key not in known)
                      if isinstance(x, dict) else ())


def _items(schema, node, compile_node):
    sub = compile_node(schema)
    # any(map(...)) keeps the common all-valid case in C; paths are built
    # only once some item has failed
    return lambda x: (_errors_at((i, sub, v) for i, v in enumerate(x))
                      if isinstance(x, list) and any(map(sub, x)) else ())


def _all_of(schemas, node, compile_node):
    subs = [compile_node(s) for s in schemas]
    return lambda x: [e for sub in subs for e in sub(x)]


def _if(schema, node, compile_node):
    cond = compile_node(schema)
    then = compile_node(node["then"]) if "then" in node else None
    other = compile_node(node["else"]) if "else" in node else None

    def check(x):
        branch = other if cond(x) else then
        return branch(x) if branch is not None else ()
    return check


def _not(schema, node, compile_node):
    sub = compile_node(schema)
    return lambda x: () if sub(x) else [_Error("not", schema, x, node)]


def _one_of(schemas, node, compile_node):
    subs = [compile_node(s) for s in schemas]

    def check(x):
        context, valid = [], []
        for schema, sub in zip(schemas, subs):
            e = sub(x)
            if e:
                context += e
            else:
                valid.append(schema)
        if len(valid) == 1:
            return ()
        if valid:
            return [_Error("oneOf", valid[1:] + valid[:1], x, node)]
        return [_Error("oneOf", None, x, node, context)]
    return check


_KEYWORDS = {
    "type": _type, "enum": _enum, "const": _const,
    "minimum": _bound("minimum", _is_number, operator.lt),
    "exclusiveMinimum": _bound("exclusiveMinimum", _is_number, operator.le),
    "minItems": _bound("minItems", _IS_TYPE["array"], lambda x, n: len(x) < n),
    "required": _required, "properties": _properties,
    "additionalProperties": _additional_properties, "items": _items,
    "allOf": _all_of, "if": _if, "not": _not, "oneOf": _one_of,
}
# read by their neighbours ("then", "else"), by $ref ("$defs"), or annotations
_PASSIVE = {"then", "else", "$defs", "$schema", "title"}


def compile_schema(root: dict):
    """The check for a JSON schema written in the keywords this module implements.

    The check maps an instance to the list of its errors, empty when valid.
    Any other keyword, a ``$ref`` outside ``#/$defs/``, or a subschema that
    is not an object raises ValueError here, before any instance is seen.
    """
    defs: dict = {}

    def ref(target, node, compile_node):
        name = target.removeprefix("#/$defs/")
        if name == target or name not in root.get("$defs", {}):
            raise ValueError(f"config schema: unsupported $ref {target!r}")
        return lambda x: defs[name](x)

    def compile_node(node):
        if not isinstance(node, dict):
            raise ValueError(f"config schema: subschema {node!r} is not an object")
        checks = []
        for keyword, value in node.items():
            if keyword in _PASSIVE:
                continue
            make = ref if keyword == "$ref" else _KEYWORDS.get(keyword)
            if make is None:
                raise ValueError(f"config schema: keyword {keyword!r} is not supported")
            checks.append(make(value, node, compile_node))
        if len(checks) == 1:
            return checks[0]

        def check(x):
            errors = []
            for c in checks:
                errors += c(x)
            return errors
        return check

    for name, node in root.get("$defs", {}).items():
        defs[name] = compile_node(node)
    return compile_node(root)


def _best(errors: list) -> tuple[tuple, str]:
    """The path and message of the error the reference validator's best match reports."""
    best = max(errors, key=_Error.relevance)
    path = best.path
    while best.context:
        # inside a failed oneOf: the deepest branch error, unless it ties
        first, *rest = heapq.nsmallest(2, best.context, key=_Error.relevance)
        if rest and first.relevance() == rest[0].relevance():
            break
        best = first
        path += best.path
    return path, _MESSAGES[best.keyword](best.instance, best.value)


@functools.cache
def _check_document():
    return compile_schema(schema())


def validate_document(doc: dict) -> None:
    """Structural validation against the shipped schema."""
    errors = _check_document()(doc)
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
    run.steps = rdoc.get("steps", run.steps)
    run.horizon = rdoc.get("horizon", run.horizon)
    run.rel_tol = rdoc.get("rel_tol")
    if "roots" in rdoc:
        run.roots = list(rdoc["roots"])
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
        run.seeds = seeds
    return run


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
    from_system = False
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
        from_system = True
        try:
            rec = fold_system(module, doc["system"]["components"])
        except (ParseError, ScfactorError) as exc:
            raise ConfigError(f"bad system: {exc}") from exc

    initial = _parse_initial(module, doc["initial"], rec.order)
    run = _parse_run(module, doc.get("run"), rec.k)
    return JobConfig(doc=doc, ring=ring, module=module, recurrence=rec,
                     family=family, from_system=from_system,
                     initial=initial, run=run)


def load_job(path: str) -> JobConfig:
    """Read, validate, and build a job from a JSON file path."""
    return build_job(read_config_file(path))
