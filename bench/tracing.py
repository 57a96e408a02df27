"""Layer spans recorded from outside the program.

The tracer wraps scfactor's public functions by replacing module (or class)
attributes at the point where the caller looks them up, for example
``scfactor.factorize.unit_roots`` (what ``factor_chain`` calls) rather than
``scfactor.poly.unit_roots``. ``Tracer.installed()`` restores every original
attribute on exit, also when the traced code raises.

Each call records a span: name, start, end, self time, parent span and job
id. Self time is the span's duration minus the time its child spans cover.
The per-step functions (``Recurrence.step`` and ``GMap.apply``, thousands of
calls per job) are kept as one aggregate record per job, parent span and
name (count, total and self time) instead of one record per call, so a run
of thousands of steps does not hold millions of spans in memory.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute looked up by the caller, span name, per-step hot path)
TARGETS = (
    ("scfactor.cli", "main", "cli.main", False),
    ("scfactor.cli", "resolve_factorization", "cli.resolve_factorization", False),
    ("scfactor.cli", "load_job", "config.load_job", False),
    ("scfactor.config", "build_job", "config.build_job", False),
    ("scfactor.config", "validate_document", "config.validate_document", False),
    ("scfactor.cli", "factor_chain", "factorize.factor_chain", False),
    ("scfactor.cli", "linear_complete", "factorize.linear_complete", False),
    ("scfactor.cli", "variable_chain", "factorize.variable_chain", False),
    ("scfactor.cli", "o2b_reducibility", "factorize.o2b_reducibility", False),
    ("scfactor.cli", "substitution_factorization", "factorize.substitution_factorization",
     False),
    ("scfactor.cli", "variable_certificate", "factorize.variable_certificate", False),
    ("scfactor.factorize", "factor_chain", "factorize.factor_chain", False),
    ("scfactor.factorize", "factor_once", "factorize.factor_once", False),
    ("scfactor.factorize", "variable_certificate", "factorize.variable_certificate", False),
    ("scfactor.factorize", "build_variable_factor", "factorize.build_variable_factor", False),
    ("scfactor.factorize", "unit_roots", "poly.unit_roots", False),
    ("scfactor.cli", "verify_equivalence", "engine.verify_equivalence", False),
    ("scfactor.engine", "simulate", "engine.simulate", False),
    ("scfactor.engine", "simulate_chain", "engine.simulate_chain", False),
    ("scfactor.engine", "simulate_substitution", "engine.simulate_substitution", False),
    ("scfactor.recurrence", "Recurrence.step", "recurrence.step", True),
    ("scfactor.recurrence", "GMap.apply", "gmap.apply", True),
)

LAYERS = ("config", "cli", "poly", "factorize", "engine", "recurrence", "gmap")


def _count_roots(counts: Counter, report) -> None:
    counts["poly.roots_found"] += len(report.roots)


def _count_step(counts: Counter, _step) -> None:
    counts["factorize.steps_built"] += 1


def _count_verify(counts: Counter, rep) -> None:
    counts["engine.values_compared"] += rep.compared
    if rep.direct_breakdown is not None or rep.chain_breakdown is not None:
        counts["engine.breakdowns"] += 1


# Counts taken from return values at the same boundaries as the spans.
RESULT_HOOKS = {
    "poly.unit_roots": _count_roots,
    "factorize.factor_once": _count_step,
    "factorize.build_variable_factor": _count_step,
    "engine.verify_equivalence": _count_verify,
}


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, name, job, parent, start, end, self)
        self.hot: dict[tuple, list] = {}  # (job, parent, name) -> [count, total, self]
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[list] = []       # [span id or None, name, start, child time]
        self._next_id = 0

    def _parent_id(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def _wrap(self, fn, name: str, hot: bool):
        hook = RESULT_HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if not hot:
                span_id = self._next_id
                self._next_id += 1
            parent = self._parent_id()
            frame = [span_id, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[2]
                if stack:
                    stack[-1][3] += dur
                if hot:
                    agg = self.hot.setdefault((self.job, parent, name), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[3]
                else:
                    self.spans.append((span_id, name, self.job, parent, frame[2], end,
                                       dur - frame[3]))
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, hot in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, hot))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds], derived from the spans."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _sid, name, _job, _parent, start, end, self_s in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        for (_job, _parent, name), (count, total, self_s) in self.hot.items():
            row = out[name]
            row[0] += count
            row[1] += total
            row[2] += self_s
        return out

    def write(self, path: Path) -> None:
        """Dump spans and aggregates as JSON lines."""
        with open(path, "w") as fh:
            for sid, name, job, parent, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "job": job, "parent": parent,
                                     "start": start, "end": end, "self": self_s}) + "\n")
            for (job, parent, name), (count, total, self_s) in self.hot.items():
                fh.write(json.dumps({"name": name, "job": job, "parent": parent,
                                     "count": count, "total": total, "self": self_s}) + "\n")


# Per-layer metrics: name -> (unit, better, end-to-end metric and workload it should move).
LAYER_METRICS = {
    "config.validate_document.ms": ("ms/job", "lower", "jobs_per_s, job_p50_ms on small-jobs"),
    "config.build_job.self_ms": ("ms/job", "lower", "jobs_per_s, job_p50_ms on small-jobs"),
    "config.load_job.self_ms": ("ms/job", "lower", "job_p50_ms on small-jobs"),
    "cli.main.self_ms": ("ms/job", "lower", "job_p50_ms on small-jobs"),
    "cli.resolve_factorization.self_ms": ("ms/job", "lower", "job_p50_ms on small-jobs"),
    "poly.unit_roots.ms": ("ms/job", "lower", "job_p90_ms, jobs_per_s on root-search"),
    "poly.unit_roots.calls": ("count/job", "lower", "job_p90_ms, jobs_per_s on root-search"),
    "poly.roots_per_search": ("ratio", "higher", "jobs_per_s on root-search"),
    "factorize.factor_once.ms": ("ms/job", "lower", "job_p90_ms on root-search"),
    "factorize.variable_certificate.ms": ("ms/job", "lower", "job_p90_ms on small-jobs"),
    "factorize.build_variable_factor.ms": ("ms/job", "lower", "job_p90_ms on small-jobs"),
    "factorize.steps_built": ("count/job", "higher", "job_p90_ms on small-jobs and root-search"),
    "engine.simulate.ms": ("ms/job", "lower", "jobs_per_s on long-verify"),
    "engine.simulate_chain.self_ms": ("ms/job", "lower", "jobs_per_s on long-verify"),
    "engine.verify_equivalence.self_ms": ("ms/job", "lower", "jobs_per_s on long-verify"),
    "engine.values_compared": ("count/job", "higher", "jobs_per_s on long-verify"),
    "engine.breakdowns": ("count/job", "lower", "jobs_per_s on long-verify"),
    "recurrence.step.calls": ("count/job", "lower", "jobs_per_s on long-verify"),
    "recurrence.step.self_ms": ("ms/job", "lower", "jobs_per_s on long-verify"),
    "gmap.apply.ms": ("ms/job", "lower", "jobs_per_s on long-verify"),
    **{f"layer.{layer}.self_ms": ("ms/job", "lower", "the layer's share of job time")
       for layer in LAYERS},
    "trace.unattributed_ms": ("ms/job", "lower", "time per job outside cli.main"),
    "trace.jobs_per_s_traced": ("1/s", "higher", "jobs_per_s with tracing on"),
    "trace.jobs_per_s_untraced": ("1/s", "higher", "jobs_per_s on the same jobs, tracing off"),
    "trace.overhead_pct": ("%", "lower", "cost of tracing itself"),
}


def layer_metrics(tracer: Tracer, n_jobs: int, job_seconds: float) -> dict[str, float]:
    """Per-job layer metrics from the spans of ``n_jobs`` jobs whose wall
    times sum to ``job_seconds``."""
    tot = tracer.totals()
    row = lambda name: tot.get(name, [0, 0.0, 0.0])
    per_job_ms = lambda secs: secs * 1000.0 / n_jobs
    roots_calls = row("poly.unit_roots")[0]
    out = {
        "config.validate_document.ms": per_job_ms(row("config.validate_document")[1]),
        "config.build_job.self_ms": per_job_ms(row("config.build_job")[2]),
        "config.load_job.self_ms": per_job_ms(row("config.load_job")[2]),
        "cli.main.self_ms": per_job_ms(row("cli.main")[2]),
        "cli.resolve_factorization.self_ms": per_job_ms(row("cli.resolve_factorization")[2]),
        "poly.unit_roots.ms": per_job_ms(row("poly.unit_roots")[1]),
        "poly.unit_roots.calls": roots_calls / n_jobs,
        "poly.roots_per_search": (tracer.counts["poly.roots_found"] / roots_calls
                                  if roots_calls else 0.0),
        "factorize.factor_once.ms": per_job_ms(row("factorize.factor_once")[1]),
        "factorize.variable_certificate.ms":
            per_job_ms(row("factorize.variable_certificate")[1]),
        "factorize.build_variable_factor.ms":
            per_job_ms(row("factorize.build_variable_factor")[1]),
        "factorize.steps_built": tracer.counts["factorize.steps_built"] / n_jobs,
        "engine.simulate.ms": per_job_ms(row("engine.simulate")[1]),
        "engine.simulate_chain.self_ms": per_job_ms(row("engine.simulate_chain")[2]),
        "engine.verify_equivalence.self_ms": per_job_ms(row("engine.verify_equivalence")[2]),
        "engine.values_compared": tracer.counts["engine.values_compared"] / n_jobs,
        "engine.breakdowns": tracer.counts["engine.breakdowns"] / n_jobs,
        "recurrence.step.calls": row("recurrence.step")[0] / n_jobs,
        "recurrence.step.self_ms": per_job_ms(row("recurrence.step")[2]),
        "gmap.apply.ms": per_job_ms(row("gmap.apply")[1]),
    }
    layer_self = Counter()
    for name, (_calls, _total, self_s) in tot.items():
        layer_self[name.split(".", 1)[0]] += self_s
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = per_job_ms(layer_self[layer])
    out["trace.unattributed_ms"] = per_job_ms(job_seconds - row("cli.main")[1])
    return out
