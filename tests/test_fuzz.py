"""Mutated configs end in a documented exit code, in bounded time.

Hypothesis starts from a shipped config and mutates it: literals (integers
and fractions of up to 40 digits, exponents, imaginary and quaternion
parts), the order of a recurrence (rows and initial window resized, up to
order 8), coefficient periods, map expressions and the run options. Each
mutated document runs ``factor``, ``verify`` and ``certify`` with ``--json``
in this process through ``cli.main``, each under a 5 s ``signal.alarm``.
Every run must return 0, 2, 3 or 4, with no exception escaping ``main``.
No thread or process is started.
"""

import contextlib
import copy
import io
import json
import signal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scfactor.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DOCS = {p.name: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
EXITS = {0, 2, 3, 4}
ALARM_S = 5
MAX_ORDER = 8

digits = st.integers(-10**40, 10**40).map(str)
EXACT = st.one_of(digits, st.tuples(digits, st.integers(1, 10**40).map(str)).map("/".join))
FLOAT = st.tuples(st.integers(-99, 99), st.integers(-60, 60)).map(lambda t: f"{t[0]}e{t[1]}")
SCALARS = {"integers-mod-m": digits, "exact-rational": EXACT, "gaussian-rational": EXACT,
           "rational-quaternion": EXACT, "float-complex": FLOAT, "float-quaternion": FLOAT}
UNITS = {"gaussian-rational": "i", "rational-quaternion": "ijk", "float-complex": "i",
         "float-quaternion": "ijk"}
# literals that no ring or only some rings read, for the error paths
ODD = st.sampled_from(["0", "-1", "i", "1/2", "0.5", "1e2466", "1e2467", "-1e-2466", "2^3",
                       "", "1/0", "nan", "1e400", "3+4j"])


def literals(kind: str):
    """Literals of the ring kind, with a sum of unit parts on the rings that
    have them, and one in eight from ODD."""
    scalar = SCALARS[kind]
    if kind in UNITS:
        part = st.tuples(scalar, st.sampled_from(UNITS[kind])).map("".join)
        scalar = st.one_of(scalar, st.lists(st.one_of(scalar, part), min_size=2, max_size=4)
                           .map(lambda ts: "+".join(ts).replace("+-", "-")))
    return st.integers(0, 7).flatmap(lambda i: ODD if i == 0 else scalar)


EXPRS = st.recursive(
    st.sampled_from(["u1", "u2", "c[n]", "d[n]", "0", "1", "3", "12345678901234567890"]),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/"), e).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        e.map(lambda x: f"-{x}"), e.map(lambda x: f"inv({x})"), e.map(lambda x: f"tanh({x})")),
    max_leaves=6)
SKIP = {"ring", "module", "kind", "expr", "exprs"}


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException, so no handler in main takes it."""


def _timeout(signum, frame):
    raise JobTimeout(f"job ran past {ALARM_S} s")


def string_slots(obj, out):
    """(container, key) for every string leaf outside the ring, the module,
    kind names and map expressions."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if key in SKIP:
            continue
        if isinstance(value, str):
            out.append((obj, key))
        elif isinstance(value, (dict, list)):
            string_slots(value, out)
    return out


def mutate(doc: dict, draw) -> dict:
    doc = copy.deepcopy(doc)
    rec, dim, init = doc.get("recurrence"), doc["module"]["dim"], doc["initial"]
    literal = literals(doc["ring"]["kind"])
    window = literal if dim == 1 else st.lists(literal, min_size=dim, max_size=dim)
    for op in draw(st.lists(st.sampled_from(["literal", "order", "period", "expr", "run"]),
                            min_size=1, max_size=4)):
        if op == "literal" and (slots := string_slots(doc, [])):
            owner, key = draw(st.sampled_from(slots))
            owner[key] = draw(literal)
        elif op == "order" and rec is not None:
            order = draw(st.integers(1, MAX_ORDER))
            for row in (rec["a"], rec["b"], init):
                del row[order:]
                row += [draw(window if row is init else literal) for _ in range(order - len(row))]
        elif op == "period" and rec is not None:
            row = rec[draw(st.sampled_from("ab"))]
            row[draw(st.integers(0, len(row) - 1))] = draw(st.lists(literal, min_size=1,
                                                                    max_size=4))
        elif op == "expr":
            g = (rec or doc.get("family", {})).get("g", {})
            if g.get("kind") == "expression":
                g["exprs"] = [draw(EXPRS) for _ in g["exprs"]]
            for comp in doc.get("system", {}).get("components", []):
                comp["expr"] = draw(EXPRS)
        elif op == "run":
            run = doc.setdefault("run", {})
            run["steps"] = draw(st.integers(1, 200))
            run["horizon"] = draw(st.integers(1, 300))
            if draw(st.booleans()):
                run["seeds"] = [draw(st.lists(literal, min_size=MAX_ORDER, max_size=MAX_ORDER))]
            if draw(st.booleans()):
                run["roots"] = [draw(literal)]
    for seed in doc.get("run", {}).get("seeds", []):
        del seed[len(init) - 1:]  # a window of k = order - 1 values
    if not all(doc.get("run", {}).get("seeds", [1])):
        del doc["run"]["seeds"]
    return doc


def run_main(argv) -> int:
    """main(argv) with its output swallowed, under the alarm."""
    old = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="module")
def job_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "job.json"


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(DOCS)), data=st.data())
def test_mutated_config_ends_in_a_documented_exit(job_path, name, data):
    job_path.write_text(json.dumps(mutate(DOCS[name], data.draw)))
    for command in ("factor", "verify", "certify"):
        assert run_main([command, str(job_path), "--json"]) in EXITS, command

