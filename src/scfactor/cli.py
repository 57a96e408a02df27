"""Command-line front end.

Four subcommands on a shared job-config format:

* factor    decide reducibility and print the factorization chain
* verify    factor, then simulate both forms and compare trajectories
* simulate  write trajectory files for the direct run and each chain level
* certify   run the alpha recursion from a seed and report its status

Exit codes: 0 success; 2 malformed config or an input past a stated limit;
3 irreducible input or failed certificate; 4 trajectory verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from json.encoder import encode_basestring_ascii as _quote

from .config import JobConfig, load_job
from .engine import (Trajectory, simulate, simulate_chain, simulate_substitution,
                     trajectory_csv, trajectory_json_obj, verify_equivalence)
from .errors import (CertificateFailure, CertificateNotPeriodic, ConfigError,
                     GMapSyntaxError, Irreducible, NotFoldable, ParseError,
                     ScfactorError)
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
        return str(c.values[0])
    return [str(v) for v in c.values]


def _gmap_obj(g: GMap) -> dict:
    obj = {"kind": g.kind}
    fmt = g.module.ring.fmt
    if g.kind == "constant-sequence":
        # the payloads are stored per component: one list per value
        obj["values"] = [list(map(fmt, v)) for v in zip(*g.seq_payloads.values())]
    elif g.kind == "linear-scale":
        obj["values"] = list(map(fmt, g.seq_payloads[0]))
    elif g.kind == "expression":
        obj["exprs"] = list(g.sources)
        if g.seqs:
            obj["sequences"] = {name: list(map(fmt, vals))
                                for name, vals in g.seq_payloads.items()}
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
        "seed": [str(v) for v in cert.seed],
        "alphas": [str(a) for a in cert.alphas],
        "notes": list(cert.notes),
    }


def _root_report_obj(rr) -> dict:
    return {
        "roots": [[str(r), m] for r, m in rr.roots],
        "method": rr.method,
        "exhaustive": rr.exhaustive,
        "notes": list(rr.notes),
    }


def _chain_obj(chain: FactorizationChain, memo: dict) -> dict:
    steps = []
    for i, st in enumerate(chain.steps, start=1):
        obj = {
            "route": st.route,
            "alpha": _coeff_obj(st.alpha),
            "factor": _rec_obj(st.factor, level_name(i), memo),
        }
        if st.rho is not None:
            obj["rho"] = str(st.rho)
        if st.p is not None:
            obj["p"] = [str(v) for v in st.p]
        if st.q is not None:
            obj["q"] = [str(v) for v in st.q]
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
    return {
        "sub_coeffs": [str(c) for c in sub.sub_coeffs],
        "b": str(sub.b),
        "factor": _rec_obj(sub.factor, "s", memo),
    }


def _o2b_obj(v: O2bVerdict) -> dict:
    return {
        "reducible": v.reducible,
        "b": str(v.b),
        "b_is_unit": v.b_is_unit,
        "p_at_b": str(v.p_at_b),
        "q_at_b": str(v.q_at_b),
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


@dataclass
class FactorOutcome:
    reducible: bool
    chain: FactorizationChain | None = None
    substitution: SubstitutionFactorization | None = None
    o2b: O2bVerdict | None = None
    reason: str | None = None
    root_report: object | None = None
    notes: list[str] = field(default_factory=list)


def resolve_factorization(job: JobConfig) -> FactorOutcome:
    """Pick and run the factorization route a job calls for.

    Explicit seeds force the certificate route; constant coefficients over a
    commutative ring use the characteristic-pair root search; anything else
    falls back to the certificate machinery (which, without seeds, only the
    order-two shortcut can satisfy). Family-specific verdicts (o2b) and the
    substitution split (alsp) are attached along the way.
    """
    out = FactorOutcome(reducible=False)
    rec = job.recurrence
    if job.family_kind == "o2b":
        out.o2b = o2b_reducibility(job.family)
        if not out.o2b.reducible:
            out.reason = out.o2b.reason
            return out
    if job.family_kind == "alsp":
        out.substitution = substitution_factorization(job.family)
    try:
        if job.run.seeds is not None:
            out.chain = variable_chain(rec, seeds=job.run.seeds,
                                       horizon=job.run.horizon)
        elif job.family_kind == "linear":
            out.chain = linear_complete(rec, roots=job.run.roots)
        elif rec.constant_coeffs and rec.ring.commutative:
            out.chain = factor_chain(rec, roots=job.run.roots)
        else:
            out.chain = variable_chain(rec, horizon=job.run.horizon)
    except Irreducible as exc:
        out.reason = str(exc)
        out.root_report = exc.report
    except (CertificateFailure, CertificateNotPeriodic) as exc:
        out.reason = str(exc)
    except ValueError as exc:
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
    print(f"base: {job.recurrence.describe('x')}")
    if out.o2b is not None:
        v = out.o2b
        print(f"o2b check: b = {v.b} (unit: {v.b_is_unit}), "
              f"P(b) = {v.p_at_b}, Q(b) = {v.q_at_b} -> "
              f"{'reducible' if v.reducible else 'not reducible'}")
        if v.reason:
            print(f"  {v.reason}")
    if out.substitution is not None:
        sub = out.substitution
        print(f"substitution split: s[n] = x[n] - ("
              + " + ".join(f"{c}*x[n-{j}]" for j, c in enumerate(sub.sub_coeffs, start=1))
              + f"); {sub.factor.describe('s')}")
    if out.chain is not None:
        ch = out.chain
        for i, st in enumerate(ch.steps, start=1):
            bits = [f"step {i} [{st.route}]"]
            if st.rho is not None:
                bits.append(f"rho = {st.rho}")
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
    steps = args.steps if args.steps is not None else job.run.steps
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
    steps = args.steps if args.steps is not None else job.run.steps
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out!r}: {exc}") from exc
    written = []
    direct = simulate(job.recurrence, job.initial, steps)
    written.append(_write_traj(direct, job, outdir, "x", args.emit))
    if direct.breakdown is not None:
        print(f"note: direct run {direct.breakdown.describe()}")
    out = resolve_factorization(job)
    if out.reducible:
        if out.chain is not None:
            run = simulate_chain(out.chain, job.initial, steps)
        else:
            run = simulate_substitution(out.substitution, job.initial, steps)
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
        window = [ring.el(chunk.strip()) for chunk in text.split(",")]
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
        print("alphas: " + ", ".join(str(a) for a in cert.alphas))
        for note in cert.notes:
            print(f"note: {note}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    """argparse type for --steps: an int of at least 1, as run.steps in the schema."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="scfactor",
        description="Factor nonlinear recurrences over rings and verify the "
                    "factorization by simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="decide reducibility and print the chain")
    p.add_argument("config", help="job config JSON path")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("verify", help="factor, simulate both forms, compare")
    p.add_argument("config")
    p.add_argument("--steps", type=_positive_int, default=None,
                   help="steps to simulate (default: run.steps from the config)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="write trajectory files per level")
    p.add_argument("config")
    p.add_argument("--steps", type=_positive_int, default=None)
    p.add_argument("--emit", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="run the alpha recursion from a seed")
    p.add_argument("config")
    p.add_argument("--seed", default=None,
                   help="comma-separated ring literals for the alpha window")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScfactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
