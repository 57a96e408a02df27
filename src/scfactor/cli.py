"""Command-line front end.

Four subcommands on a shared job-config format:

* factor    decide reducibility and print the factorization chain
* verify    factor, then simulate both forms and compare trajectories
* simulate  write trajectory files for the direct run and each chain level
* certify   run the alpha recursion from a seed and report its status

Exit codes: 0 success; 1 internal fault (one line naming the exception);
2 malformed config or an input past a stated limit; 3 irreducible input or
failed certificate; 4 trajectory verification failure.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from json.encoder import encode_basestring_ascii as _quote

from . import engine
from .config import JobConfig, load_job
from .engine import Trajectory, trajectory_csv, trajectory_json_obj, verify_equivalence
from .errors import (CertificateFailure, CertificateNotPeriodic, ConfigError,
                     GMapSyntaxError, Irreducible, NoConvergence, NotFoldable, ParseError,
                     ScfactorError)
# linear_complete and variable_chain are not called here, but
# bench/tracing.TARGETS wraps them under this module's name.
from .factorize import (FactorizationChain, O2bVerdict, SubstitutionFactorization,
                        factor_chain, level_name, linear_complete,
                        o2b_reducibility, substitution_factorization,
                        variable_certificate, variable_chain)
from .recurrence import CoeffSeq, GMap, Recurrence

_CONFIG_ERRORS = (ConfigError, ParseError, GMapSyntaxError, NotFoldable)


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) plus a newline, byte for
    byte, for str keys: written directly, with the C string encoder, where
    json.dumps with an indent falls back to its pure-Python encoder."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append the text of obj; ``newline`` starts a line at its depth.
    Dispatches on the exact type (reports hold no subclasses of str, int,
    list or dict), and writes a str item of a list or dict in its loop."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is dict or kind is list or kind is tuple:
        if not obj:
            out.append("{}" if kind is dict else "[]")
            return
        is_dict = kind is dict
        inner = sep = newline + "  "
        out.append("{" if is_dict else "[")
        for item in sorted(obj) if is_dict else obj:
            if is_dict:
                out.append(f"{sep}{_quote(item)}: ")
                item = obj[item]
            else:
                out.append(sep)
            if type(item) is str:
                out.append(_quote(item))
            else:
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + ("}" if is_dict else "]"))
    elif obj is None or kind is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is float:
        out.append(float.__repr__(obj) if math.isfinite(obj) else
                   "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# report serializers


def _coeff_obj(c: CoeffSeq):
    if c.is_constant:
        return c.ring.fmt(c.values[0])
    return list(map(c.ring.fmt, c.values))


def _gmap_obj(g: GMap) -> dict:
    obj = {"kind": g.kind}
    fmt = g.module.ring.fmt
    if g.kind == "constant-sequence":
        # the payloads are stored per component: one list per value
        obj["values"] = [list(map(fmt, v)) for v in zip(*g.seqs.values())]
    elif g.kind == "linear-scale":
        obj["values"] = list(map(fmt, g.seqs[0]))
    elif g.kind == "expression":
        obj["exprs"] = list(g.sources)
        if g.seqs:
            obj["sequences"] = {name: list(map(fmt, vals)) for name, vals in g.seqs.items()}
    return obj


def _rec_obj(rec: Recurrence, var: str, memo: dict) -> dict:
    """The report object of rec named ``var``, built once per report: a
    chain's levels share one map, and its final factor is its last step's.
    ``memo`` holds the objects built for this report, by object id."""
    key = (id(rec), var)
    if key not in memo:
        if id(rec.g) not in memo:
            memo[id(rec.g)] = _gmap_obj(rec.g)
        memo[key] = {
            "order": rec.order,
            "a": [_coeff_obj(c) for c in rec.a],
            "b": [_coeff_obj(c) for c in rec.b],
            "g": memo[id(rec.g)],
            "text": rec.describe(var),
        }
    return memo[key]


def _cert_obj(cert) -> dict:
    return {
        "status": cert.status,
        "period": cert.period,
        "horizon": cert.horizon,
        "checked_upto": cert.checked_upto,
        "seed": list(map(cert.ring.fmt, cert.seed)),
        "alphas": list(map(cert.ring.fmt, cert.alphas)),
        "notes": list(cert.notes),
    }


def _root_report_obj(rr) -> dict:
    return {
        "roots": [[rr.ring.fmt(r), m] for r, m in rr.roots],
        "method": rr.method,
        "exhaustive": rr.exhaustive,
        "notes": list(rr.notes),
    }


def _chain_obj(chain: FactorizationChain, memo: dict) -> dict:
    fmt = chain.base.ring.fmt
    steps = []
    for i, st in enumerate(chain.steps, start=1):
        obj = {
            "route": st.route,
            "alpha": _coeff_obj(st.alpha),
            "factor": _rec_obj(st.factor, level_name(i), memo),
        }
        if st.rho is not None:
            obj.update(rho=fmt(st.rho), p=list(map(fmt, st.p)), q=list(map(fmt, st.q)))
        if st.certificate is not None:
            obj["certificate"] = _cert_obj(st.certificate)
        if st.root_report is not None:
            obj["root_report"] = _root_report_obj(st.root_report)
        steps.append(obj)
    return {
        "base": _rec_obj(chain.base, "x", memo),
        "steps": steps,
        "final_factor": _rec_obj(chain.final_factor, level_name(len(chain.steps)), memo),
        "complete": chain.complete,
        "depth": chain.depth,
        "levels": list(chain.level_names()),
        "notes": list(chain.notes),
    }


def _sub_obj(sub: SubstitutionFactorization, memo: dict) -> dict:
    fmt = sub.base.ring.fmt
    return {
        "sub_coeffs": list(map(fmt, sub.sub_coeffs)),
        "b": fmt(sub.b),
        "factor": _rec_obj(sub.factor, "s", memo),
    }


def _o2b_obj(v: O2bVerdict) -> dict:
    fmt = v.ring.fmt
    return {
        "reducible": v.reducible,
        "b": fmt(v.b),
        "b_is_unit": v.b_is_unit,
        "p_at_b": fmt(v.p_at_b),
        "q_at_b": fmt(v.q_at_b),
        "reason": v.reason,
    }


def _equiv_obj(rep) -> dict:
    obj = {
        "equal": rep.equal,
        "compared": rep.compared,
        "first_divergence": rep.first_divergence,
        "max_deviation": rep.max_deviation,
        "breakdowns_aligned": rep.breakdowns_aligned,
        "capped": rep.capped,
        "notes": list(rep.notes),
    }
    for name, b in (("direct_breakdown", rep.direct_breakdown),
                    ("chain_breakdown", rep.chain_breakdown)):
        obj[name] = None if b is None else {"index": b.index, "reason": b.reason}
    return obj


# ---------------------------------------------------------------------------
# factorization dispatch


class FactorOutcome:
    __slots__ = ("reducible", "chain", "substitution", "o2b", "reason", "root_report", "notes")

    def __init__(self, reducible: bool):
        self.reducible = reducible
        self.chain: FactorizationChain | None = None
        self.substitution: SubstitutionFactorization | None = None
        self.o2b: O2bVerdict | None = None
        self.reason: str | None = None
        self.root_report: object | None = None
        self.notes: list[str] = []


def resolve_factorization(job: JobConfig) -> FactorOutcome:
    """Run factor_chain with the job's roots, seeds and horizon; it picks the
    route at each level. The o2b verdict (which can end the job first) and
    the alsp substitution split are attached along the way.
    """
    out = FactorOutcome(reducible=False)
    if job.family_kind == "o2b":
        out.o2b = o2b_reducibility(job.family)
        if not out.o2b.reducible:
            out.reason = out.o2b.reason
            return out
    if job.family_kind == "alsp":
        out.substitution = substitution_factorization(job.family)
    try:
        out.chain = factor_chain(job.recurrence, roots=job.run.roots, seeds=job.run.seeds,
                                 horizon=job.run.horizon)
    except Irreducible as exc:
        out.reason = str(exc)
        out.root_report = exc.report
    except (CertificateFailure, CertificateNotPeriodic) as exc:
        out.reason = str(exc)
    except NoConvergence as exc:
        out.reason = f"root search failed: {exc}"
    out.reducible = out.chain is not None or out.substitution is not None
    if out.chain is None and out.substitution is not None and out.reason:
        out.notes.append(f"chain route unavailable ({out.reason}); "
                         "substitution route still applies")
        out.reason = None
    return out


def _outcome_obj(out: FactorOutcome) -> dict:
    obj = {
        "status": "reducible" if out.reducible else "irreducible",
        "notes": list(out.notes),
    }
    memo: dict = {}
    if out.chain is not None:
        obj["chain"] = _chain_obj(out.chain, memo)
    if out.substitution is not None:
        obj["substitution"] = _sub_obj(out.substitution, memo)
    if out.o2b is not None:
        obj["o2b"] = _o2b_obj(out.o2b)
    if out.reason is not None:
        obj["reason"] = out.reason
    if out.root_report is not None:
        obj["root_report"] = _root_report_obj(out.root_report)
    return obj


def _print_outcome(job: JobConfig, out: FactorOutcome) -> None:
    fmt = job.ring.fmt
    print(f"base: {job.recurrence.describe('x')}")
    if out.o2b is not None:
        v = out.o2b
        print(f"o2b check: b = {fmt(v.b)} (unit: {v.b_is_unit}), "
              f"P(b) = {fmt(v.p_at_b)}, Q(b) = {fmt(v.q_at_b)} -> "
              f"{'reducible' if v.reducible else 'not reducible'}")
        if v.reason:
            print(f"  {v.reason}")
    if out.substitution is not None:
        sub = out.substitution
        print(f"substitution split: s[n] = x[n] - ("
              + " + ".join(f"{fmt(c)}*x[n-{j}]" for j, c in enumerate(sub.sub_coeffs, start=1))
              + f"); {sub.factor.describe('s')}")
    if out.chain is not None:
        ch = out.chain
        for i, st in enumerate(ch.steps, start=1):
            bits = [f"step {i} [{st.route}]"]
            if st.rho is not None:
                bits.append(f"rho = {fmt(st.rho)}")
            bits.append(f"alpha = {st.alpha}")
            print("  ".join(bits))
            print(f"  {st.factor.describe(level_name(i))}")
            if st.certificate is not None:
                c = st.certificate
                ptxt = f", period {c.period}" if c.period else ""
                print(f"  certificate: {c.status}{ptxt}, horizon {c.horizon}")
        state = "complete" if ch.complete else "not complete"
        print(f"chain {state}, depth {ch.depth}, levels: {', '.join(ch.level_names())}")
        for note in ch.notes:
            print(f"note: {note}")
    for note in out.notes:
        print(f"note: {note}")
    if not out.reducible:
        print(f"irreducible: {out.reason}")


# ---------------------------------------------------------------------------
# commands


# The largest number of steps verify and simulate run: simulate holds every
# trajectory in memory, and `simulate --steps 100000` on exzp_z11.json takes
# about 0.55 s and peaks at about 60 MB; of that, engine.simulate takes about
# 0.04 s and engine.simulate_chain about 0.15 s, and writing the files the rest.
MAX_STEPS = 100000

# The most window values times steps (module.dim times order times steps)
# verify and simulate run. At 10^6 the slowest planted Z/101 job measured,
# `verify` of dim 1 and order 1536 for 651 steps, took 0.8-1.3 s and 77 MB;
# at 100 steps the same job took 0.65-0.9 s.
MAX_VALUE_STEPS = 1000000


def _steps(args, job: JobConfig) -> int:
    """The steps verify and simulate run: --steps, else run.steps, at most
    MAX_STEPS, and at most MAX_VALUE_STEPS times the window values."""
    steps = args.steps if args.steps is not None else job.run.steps
    if steps > MAX_STEPS:
        raise ConfigError(f"steps {steps} exceeds the limit of {MAX_STEPS}")
    dim, order = job.module.dim, job.recurrence.order
    if dim * order * steps > MAX_VALUE_STEPS:
        raise ConfigError(f"dim {dim} times order {order} times steps {steps} is "
                          f"{dim * order * steps} value-steps, past the limit of "
                          f"{MAX_VALUE_STEPS}")
    return steps


def _cmd_factor(args) -> int:
    job = load_job(args.config)
    out = resolve_factorization(job)
    if args.json:
        sys.stdout.write(canonical_json(_outcome_obj(out)))
    else:
        _print_outcome(job, out)
    return 0 if out.reducible else 3


def _cmd_verify(args) -> int:
    job = load_job(args.config)
    steps = _steps(args, job)
    out = resolve_factorization(job)
    if not out.reducible:
        if args.json:
            sys.stdout.write(canonical_json(_outcome_obj(out)))
        else:
            _print_outcome(job, out)
        return 3
    reports = {}
    if out.chain is not None:
        reports["chain"] = verify_equivalence(
            job.recurrence, out.chain, job.initial, steps, rel_tol=job.run.rel_tol)
    if out.substitution is not None:
        reports["substitution"] = verify_equivalence(
            job.recurrence, out.substitution, job.initial, steps,
            rel_tol=job.run.rel_tol)
    ok = all(rep.equal for rep in reports.values())
    if args.json:
        obj = _outcome_obj(out)
        obj["verification"] = {route: _equiv_obj(rep) for route, rep in reports.items()}
        obj["verified"] = ok
        sys.stdout.write(canonical_json(obj))
    else:
        _print_outcome(job, out)
        for route, rep in reports.items():
            print(f"verify [{route}]: {rep.describe()}")
        print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 4


def _write_traj(traj: Trajectory, job: JobConfig, outdir: Path, stem: str,
                emit: str) -> Path:
    if emit == "csv":
        path, text = outdir / f"{stem}.csv", trajectory_csv(traj, job.module)
    else:
        path, text = outdir / f"{stem}.json", canonical_json(trajectory_json_obj(traj, job.module))
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc
    return path


def _cmd_simulate(args) -> int:
    job = load_job(args.config)
    steps = _steps(args, job)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out!r}: {exc}") from exc
    written = []
    direct = engine.simulate(job.recurrence, job.initial, steps)
    written.append(_write_traj(direct, job, outdir, "x", args.emit))
    if direct.breakdown is not None:
        print(f"note: direct run {direct.breakdown.describe()}")
    out = resolve_factorization(job)
    if out.reducible:
        run = engine.simulate_chain(out.chain or out.substitution, job.initial, steps)
        for traj in run.trajectories[1:]:
            written.append(_write_traj(traj, job, outdir, traj.level, args.emit))
        written.append(_write_traj(run.reconstructed, job, outdir, "x_rec", args.emit))
        if run.reconstructed.breakdown is not None:
            print(f"note: chain run {run.reconstructed.breakdown.describe()}")
    else:
        print(f"irreducible: {out.reason}")
    for path in written:
        print(f"wrote {path}")
    return 0 if out.reducible else 3


def _parse_seed(job: JobConfig, text: str) -> list:
    """Comma-separated ring literals for the alpha window (always scalars)."""
    ring = job.module.ring
    try:
        window = [ring.payload(chunk.strip()) for chunk in text.split(",")]
    except (ParseError, ScfactorError) as exc:
        raise ConfigError(f"bad seed {text!r}: {exc}") from exc
    k = job.recurrence.k
    if len(window) != k:
        raise ConfigError(f"seed must hold {k} value(s) (one below the order), "
                          f"got {len(window)}")
    return window


def _cmd_certify(args) -> int:
    job = load_job(args.config)
    if args.seed is not None:
        seed = _parse_seed(job, args.seed)
    elif job.run.seeds:
        seed = job.run.seeds[0]
    else:
        raise ConfigError("no seed: pass --seed or set run.seeds in the config")
    horizon = args.horizon if args.horizon is not None else job.run.horizon
    try:
        cert = variable_certificate(job.recurrence, seed, horizon=horizon)
    except CertificateFailure as exc:
        if args.json:
            sys.stdout.write(canonical_json({
                "status": "failed", "reason": exc.reason, "step": exc.n}))
        else:
            print(f"certificate failed: {exc}")
        return 3
    if args.json:
        sys.stdout.write(canonical_json(_cert_obj(cert)))
    else:
        ptxt = f", period {cert.period}" if cert.period else ""
        print(f"certificate: {cert.status}{ptxt} "
              f"(horizon {cert.horizon}, checked up to n = {cert.checked_upto})")
        print("alphas: " + ", ".join(map(cert.ring.fmt, cert.alphas)))
        for note in cert.notes:
            print(f"note: {note}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _int(text: str) -> int:
    """An option's int value; the ValueError carries argparse's message."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    """--steps: an int of at least 1, as run.steps in the schema."""
    value = _int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


class _Option:
    """One option after the config path: a switch (False unless given), or
    an option with a value, which ``convert`` turns from its text (raising
    ValueError with argparse's message) or which must be one of ``choices``."""

    __slots__ = ("flag", "convert", "choices", "default", "required", "help")

    def __init__(self, flag: str, convert=None, choices: tuple | None = None, default=None,
                 required: bool = False, help: str | None = None):
        self.flag = flag
        self.convert = convert
        self.choices = choices
        self.default = default
        self.required = required
        self.help = help

    @property
    def dest(self) -> str:
        return self.flag[2:]

    @property
    def switch(self) -> bool:
        return self.convert is None and self.choices is None


# Each command: its handler, its help, the help of its config path, and its options.
_COMMANDS = {
    "factor": (_cmd_factor, "decide reducibility and print the chain", "job config JSON path",
               (_Option("--json", help="emit a JSON report"),)),
    "verify": (_cmd_verify, "factor, simulate both forms, compare", None, (
        _Option("--steps", _positive_int,
                help="steps to simulate (default: run.steps from the config)"),
        _Option("--json"))),
    "simulate": (_cmd_simulate, "write trajectory files per level", None, (
        _Option("--steps", _positive_int),
        _Option("--emit", choices=("csv", "json"), default="csv"),
        _Option("--out", str, required=True, help="output directory"))),
    "certify": (_cmd_certify, "run the alpha recursion from a seed", None, (
        _Option("--seed", str, help="comma-separated ring literals for the alpha window"),
        _Option("--horizon", _int),
        _Option("--json"))),
}


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace argparse gives an argv that is a command, its config
    path, then whole option names, each value passing its option's check;
    None for any other argv. A word that starts with "-" is never read as
    the path or a value, as argparse may take it for an option."""
    if len(argv) < 2 or argv[0] not in _COMMANDS or argv[1].startswith("-"):
        return None
    func, _help, _config_help, options = _COMMANDS[argv[0]]
    args = {"command": argv[0], "config": argv[1]}
    args.update((opt.dest, False if opt.switch else opt.default) for opt in options)
    by_flag = {opt.flag: opt for opt in options}
    given = set()
    words = iter(argv[2:])
    for word in words:
        opt = by_flag.get(word)
        if opt is None:
            return None
        given.add(word)
        if opt.switch:
            args[opt.dest] = True
            continue
        text = next(words, "-")
        if text.startswith("-") or (opt.choices is not None and text not in opt.choices):
            return None
        try:
            args[opt.dest] = text if opt.convert is None else opt.convert(text)
        except ValueError:
            return None
    if any(opt.required and opt.flag not in given for opt in options):
        return None
    return SimpleNamespace(**args, func=func)


def _argparse_type(convert):
    """``convert`` as an argparse type: its ValueError message becomes the usage error."""
    import argparse

    def checked(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return checked


@functools.cache
def build_parser():
    """The argparse parser of the same commands, built once per process on
    the first argv that _read_argv leaves to it; parse_args leaves it as it
    was. It alone writes help and usage errors."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="scfactor",
        description="Factor nonlinear recurrences over rings and verify the "
                    "factorization by simulation.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_text, config_help, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help=config_help)
        for opt in options:
            if opt.switch:
                p.add_argument(opt.flag, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.flag, type=opt.convert and _argparse_type(opt.convert),
                               choices=opt.choices, default=opt.default,
                               required=opt.required, help=opt.help)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScfactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
