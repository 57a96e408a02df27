"""Compare one job's exit code and ``--json`` report with its planted expectation.

The checker parses ring literals itself (residues, rationals, Gaussian
rationals, quaternions, floats), so it does not depend on the code under
test to decide whether that code was right.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction

_TERM = re.compile(r"([+-]?[^ijk]*)([ijk]?)")
_UNITS = ("", "i", "j", "k")


def parse_lit(text: str, exact: bool = True) -> tuple:
    """A ring literal as (w, x, y, z); Fractions when exact, floats otherwise."""
    num = Fraction if exact else float
    terms, cur = [], ""
    for ch in text.replace(" ", ""):
        if ch in "+-" and cur and cur[-1] not in "eE":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    parts = dict.fromkeys(_UNITS, num(0))
    for term in terms:
        m = _TERM.fullmatch(term)
        if m is None:
            raise ValueError(f"bad literal {text!r}")
        coef, unit = m.groups()
        if coef in ("", "+", "-"):
            coef += "1"
        parts[unit] += num(coef)
    return tuple(parts[u] for u in _UNITS)


def _seq(entry) -> list:
    """A report coefficient (literal or list of literals) as a list of values."""
    return [parse_lit(v) for v in (entry if isinstance(entry, list) else [entry])]


def _same_periodic(a: list, b: list) -> bool:
    n = math.lcm(len(a), len(b))
    return all(a[i % len(a)] == b[i % len(b)] for i in range(n))


def _float_match(expected: list, got: list, tol: float = 1e-6) -> bool:
    pool = list(got)
    for er, ei in expected:
        for idx, (gr, gi) in enumerate(pool):
            if abs(er - gr) <= tol and abs(ei - gi) <= tol:
                del pool[idx]
                break
        else:
            return False
    return not pool


def check(expect: dict, rc: int, out: str) -> list[str]:
    """Every way the run differs from ``expect``; empty when it matches."""
    problems = []

    def differs(key, got):
        if got != expect[key]:
            problems.append(f"{key}: expected {expect[key]!r}, got {got!r}")

    differs("exit", rc)
    try:
        rep = json.loads(out)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    chain = rep.get("chain") or {}
    steps = chain.get("steps", [])
    for key in ("status", "complete", "depth", "verified"):
        if key in expect:
            differs(key, rep.get(key, chain.get(key)))
    if "rhos" in expect:
        got = Counter(parse_lit(s["rho"]) for s in steps if "rho" in s)
        if got != Counter(parse_lit(r) for r in expect["rhos"]):
            problems.append(f"rhos: expected {expect['rhos']}, got "
                            f"{[s.get('rho') for s in steps]}")
    if "first_rho" in expect:
        got = steps[0].get("rho") if steps else None
        if got is None or parse_lit(got) != parse_lit(expect["first_rho"]):
            problems.append(f"first_rho: expected {expect['first_rho']}, got {got}")
    if "float_rhos" in expect:
        got = [parse_lit(s["rho"], exact=False)[:2] for s in steps if "rho" in s]
        if not _float_match(expect["float_rhos"], got):
            problems.append(f"float_rhos: expected {expect['float_rhos']}, got {got}")
    if "routes" in expect:
        differs("routes", [s["route"] for s in steps])
    if "alphas" in expect:
        got = [s["alpha"] for s in steps]
        if len(got) != len(expect["alphas"]) or not all(
                _same_periodic(_seq(g), _seq(e)) for g, e in zip(got, expect["alphas"])):
            problems.append(f"alphas: expected {expect['alphas']}, got {got}")
    if "o2b" in expect:
        differs("o2b", (rep.get("o2b") or {}).get("reducible"))
    if "substitution" in expect:
        differs("substitution", "substitution" in rep)
    if "cert_status" in expect:
        differs("cert_status", rep.get("status"))
    if "period" in expect:
        differs("period", rep.get("period"))
    if "compared" in expect or "breakdown" in expect:
        ver = (rep.get("verification") or {}).get("chain") or {}
        if "compared" in expect:
            differs("compared", ver.get("compared"))
        if "breakdown" in expect:
            for side in ("direct_breakdown", "chain_breakdown"):
                got = (ver.get(side) or {}).get("index")
                if got != expect["breakdown"]:
                    problems.append(f"{side}: expected index {expect['breakdown']!r}, "
                                    f"got {got!r}")
    return problems
