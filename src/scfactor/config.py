"""Job configs: JSON loading, schema validation, and object construction.

A job file names a ring, a module dimension, exactly one of a raw
recurrence / a named family / a componentwise system, an initial window,
and optional run parameters. ``load_job`` turns a path or parsed document
into a ready-to-use JobConfig; every malformed input surfaces as
ConfigError with the offending location in the message.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .errors import ConfigError, GMapSyntaxError, ParseError, ScfactorError
from .recurrence import FamilyInfo, GMap, Recurrence, build_family, fold_system
from .rings import Module, Ring, make_ring

_FLOAT_RING_KINDS = {"float-complex", "float-quaternion"}


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
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # json raises RecursionError on nesting deeper than the interpreter's stack
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc


@functools.cache
def _validator():
    """A validator for the shipped schema, built once per process.

    The schema itself is checked by the test suite, not on every job.
    """
    doc = schema()
    return validator_for(doc)(doc)


def validate_document(doc: dict) -> None:
    """Structural validation against the shipped schema."""
    error = best_match(_validator().iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "(top level)"
        raise ConfigError(f"config invalid at {where}: {error.message}") from error


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
            out.append(module.el(entry))
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
                seeds.append([module.ring.el(v) for v in window])
            except (ParseError, ScfactorError) as exc:
                raise ConfigError(f"run.seeds[{i}]: {exc}") from exc
        run.seeds = seeds
    return run


def build_job(doc: dict) -> JobConfig:
    """Validate a parsed document and construct the working objects."""
    validate_document(doc)
    ringdoc = doc["ring"]
    if "tolerance" in ringdoc and ringdoc["kind"] not in _FLOAT_RING_KINDS:
        raise ConfigError("ring.tolerance only applies to float rings")
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
