"""One step builder: every route proposes an alpha, and _step proves it.

The oracle composes a step back: the factor's rows and the alpha give the
rows of the level they reduce,

    a_i(n) = a'_i(n) - a'_{i-1}(n) alpha_{n-i},   a'_{-1} = -1, a'_k = 0,

and the same for b from b'_{-1} = 0 (checked only when g reads its
argument). Every step of every chain of the shipped configs and of two
benchmark blocks of each workload must compose back to its level, as must
steps planted over Z/p, Q, Q(i) and H(Q). An AST guard keeps _factor_rows
with its one caller, _step.
"""

import ast
import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scfactor import (CertificateFailure, GMap, Module, NotAValidRoot, Recurrence,
                      ScfactorError, UnitCertificate, build_variable_factor, factor_chain,
                      factor_once, make_ring)
from scfactor.config import build_job, read_config_file
from scfactor.factorize import FactorStep
from scfactor.recurrence import CoeffSeq

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scfactor"


def composed(step, span: int) -> tuple[list, list]:
    """The a and b rows, over phases 0..span-1, that step's factor and alpha
    compose back to (module docstring)."""
    f, alpha = step.factor, step.alpha
    ring = f.ring
    rows = []
    for side, start in ((f.a, ring.neg_one), (f.b, ring.zero)):
        full = [CoeffSeq.constant(ring, start), *side, CoeffSeq.constant(ring, ring.zero)]
        rows.append([[ring._add(full[i + 1].at(n), ring._neg(ring._mul(full[i].at(n),
                                                                         alpha.at(n - i))))
                      for n in range(span)] for i in range(len(full) - 1)])
    return rows[0], rows[1]


def assert_composes_back(level: Recurrence, step) -> None:
    ring = level.ring
    span = math.lcm(step.alpha.period, step.factor.coeff_period, level.coeff_period)
    a, b = composed(step, span)
    for got, seqs in ((a, level.a), (b, level.b))[:1 + level.g.uses_argument]:
        want = [[seq.at(n) for n in range(span)] for seq in seqs]
        assert len(got) == len(want)
        assert all(map(ring._eq, sum(got, []), sum(want, []))), (step.route, got, want)


def chain_steps(job):
    """(level, step) for every step of the job's chain; none when it has no
    chain."""
    try:
        chain = factor_chain(job.recurrence, roots=job.run.roots, seeds=job.run.seeds,
                             horizon=job.run.horizon)
    except ScfactorError:
        return []
    levels = [chain.base] + [s.factor for s in chain.steps]
    return list(zip(levels, chain.steps))


def _bench_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs_one_step", ROOT / "bench" / "jobs.py")
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return [job for workload in ("root-search", "long-verify", "small-jobs")
            for block in jobs.make_blocks(workload, 5, 2) for job in block]


CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_config_steps_compose_back():
    # 22 steps in all: a route that stopped building steps would pass vacuously
    steps = [(level, step) for path in CONFIGS
             for level, step in chain_steps(build_job(read_config_file(str(path))))]
    for level, step in steps:
        assert_composes_back(level, step)
    assert len(steps) == 22


def test_bench_block_steps_compose_back():
    steps = []
    for job in _bench_jobs():
        try:
            steps += chain_steps(build_job(job.doc))
        except ScfactorError:
            pass
    for level, step in steps:
        assert_composes_back(level, step)
    assert len(steps) == 144
    assert {step.route for _, step in steps} == {"constant-root", "certificate", "shortcut"}


RINGS = ["integers-mod-m/7", "integers-mod-m/11", "exact-rational", "gaussian-rational",
         "rational-quaternion"]


def _element(R, rng):
    if R.kind == "integers-mod-m":
        return R.payload(rng.randrange(R.m))
    parts = {"exact-rational": 1, "gaussian-rational": 2, "rational-quaternion": 4}[R.kind]
    return R.payload(tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))
                           for _ in range(parts)))


def _unit(R, rng):
    while R._inv(v := _element(R, rng)) is None:
        pass
    return v


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(RINGS), seed=st.integers(0, 2**32))
def test_planted_step_is_built_back(kind, seed):
    # plant a periodic unit alpha and a factor, compose the level with the
    # oracle, and build its step from a certificate of the planted alpha:
    # the step gives back the planted factor, and composes back to the level
    name, _, m = kind.partition("/")
    R = make_ring(name, modulus=int(m)) if m else make_ring(name)
    rng = random.Random(seed)
    M = Module(R, 1)
    k, L = rng.randint(1, 3), rng.randint(1, 3)
    alpha = CoeffSeq(R, [_unit(R, rng) for _ in range(L)]).reduced()
    rows = [[CoeffSeq(R, [_element(R, rng) for _ in range(rng.randint(1, 3))]).reduced()
             for _ in range(k)] for _ in "ab"]
    planted = Recurrence(M, rows[0], rows[1], GMap.linear_scale(M, ["3"]))
    span = math.lcm(alpha.period, planted.coeff_period)
    a, b = composed(FactorStep("planted", alpha, planted), span)
    level = Recurrence(M, [CoeffSeq(R, r).reduced() for r in a[:-1]] + [CoeffSeq(R, a[-1])],
                       [CoeffSeq(R, r).reduced() for r in b[:-1]] + [CoeffSeq(R, b[-1])],
                       planted.g)
    cert = UnitCertificate(R, alpha.values, alpha.values, alpha.period, alpha.period)
    step = build_variable_factor(level, cert)
    for got, want in zip((*step.factor.a, *step.factor.b), (*planted.a, *planted.b),
                         strict=True):
        assert got == want
    assert_composes_back(level, step)


def test_certificate_that_does_not_split_names_phase_and_side():
    R = make_ring("exact-rational")
    M = Module(R, 1)
    rec = Recurrence(M, ["0", "-1", "0"], ["1", "0", "1"], GMap.linear_scale(M, ["2/3"]))
    one = R.payload(1)
    with pytest.raises(CertificateFailure) as ei:
        build_variable_factor(rec, UnitCertificate(R, (one, one), (one, one), 2, 1))
    assert (ei.value.n, ei.value.side) == (0, "a")
    assert str(ei.value) == "the a-side identity fails for the certified alpha (at step n=0)"


def test_constant_route_judges_q_only_when_g_reads_its_argument():
    # P = x^2 - 3x + 2 = (x - 1)(x - 2) and Q = x over Z/7: 1 is a root of P
    # only, so it splits the recurrence exactly when g ignores its argument
    R = make_ring("integers-mod-m", modulus=7)
    M = Module(R, 1)
    step = factor_once(Recurrence(M, ["3", "-2"], ["1", "0"], GMap.zero(M)), 1)
    assert step.factor.a[0].values == (2,) and step.p == (5,) and step.q == (1,)
    with pytest.raises(NotAValidRoot, match=r"^1 is not a root of Q = x$"):
        factor_once(Recurrence(M, ["3", "-2"], ["1", "0"], GMap.linear_scale(M, ["2"])), 1)
    with pytest.raises(NotAValidRoot, match=r"^3 is not a root of P = x\^2 \+ 4\*x \+ 2$"):
        factor_once(Recurrence(M, ["3", "-2"], ["1", "0"], GMap.zero(M)), 3)


# ---------------------------------------------------------------------------
# the guard


def scopes_mentioning(source: str, name: str) -> list[str]:
    """The enclosing function ("<module>" at the top level) of every mention
    of ``name`` other than its definition: a call, a name bound to it and
    called later, an attribute ``module.name``, or an import of it under any
    alias."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.alias) and child.name == name):
                found.append(scope)
            walk(child, scope)

    walk(ast.parse(source), "<module>")
    return found


def library_callers(name: str) -> list[str]:
    return [f"{path.stem}.{scope}" for path in sorted(SRC.glob("*.py"))
            for scope in scopes_mentioning(path.read_text(), name)]


def test_factor_rows_has_one_caller():
    assert library_callers("_factor_rows") == ["factorize._step"]


def test_wrapped_failure_has_at_most_one_caller():
    assert library_callers("_wrapped_failure") in ([], ["factorize.variable_certificate"])


def test_the_guard_sees_a_call_through_an_alias():
    source = ("from .factorize import _factor_rows as rows\n"
              "def _factor_rows(rec): pass\n"
              "def g(rec):\n    f = _factor_rows\n    return f(rec, (1,), 1)\n"
              "def h(rec):\n    return factorize._factor_rows(rec, (1,), 1)\n"
              "def k(rec):\n    def inner():\n        return [_factor_rows][0]()\n")
    assert scopes_mentioning(source, "_factor_rows") == ["<module>", "g", "h", "inner"]
