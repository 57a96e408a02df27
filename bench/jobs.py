"""Seeded job streams with planted expectations.

Every job is a scfactor config document plus the CLI arguments to run it
with and the outcome it must produce. Expectations are planted by
construction, never computed by scfactor itself:

* constant-root jobs build P and Q from chosen unit roots, so the chain's
  rho multiset, depth and completeness are known in advance;
* certificate jobs compose the recurrence from a chosen periodic alpha and
  a chosen first-order factor, so the alpha of every step is known;
* breakdowns are planted through two sequences of coprime periods whose sum
  vanishes exactly once, at a chosen index;
* irreducible and float verify-fail jobs carry their expected exit codes.

A workload is a list of blocks. Every block holds one job of each slot in
the workload's fixed slot list, so any run that stops at a block boundary
has exactly the workload's stated mix whatever the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# exact quaternions over Q (rationals and Gaussian rationals are subrings)


class Qt:
    """w + x i + y j + z k with Fraction parts; Hamilton product."""

    __slots__ = ("c",)

    def __init__(self, w=0, x=0, y=0, z=0):
        self.c = (Fraction(w), Fraction(x), Fraction(y), Fraction(z))

    def __add__(self, o):
        return Qt(*(a + b for a, b in zip(self.c, o.c)))

    def __sub__(self, o):
        return Qt(*(a - b for a, b in zip(self.c, o.c)))

    def __neg__(self):
        return Qt(*(-a for a in self.c))

    def __mul__(self, o):
        w1, x1, y1, z1 = self.c
        w2, x2, y2, z2 = o.c
        return Qt(w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                  w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                  w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                  w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)

    def __eq__(self, o):
        return isinstance(o, Qt) and self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def inv(self) -> "Qt":
        n = sum(a * a for a in self.c)
        w, x, y, z = self.c
        return Qt(w / n, -x / n, -y / n, -z / n)

    @property
    def is_zero(self) -> bool:
        return not any(self.c)

    def lit(self) -> str:
        return fmt_terms(zip(self.c, ("", "i", "j", "k")))


def fmt_terms(parts) -> str:
    """Ring literal such as "1/2-i+3/4k"; float parts use repr."""
    out = ""
    for coef, unit in parts:
        if coef == 0:
            continue
        if unit and coef == 1:
            txt = unit
        elif unit and coef == -1:
            txt = "-" + unit
        else:
            txt = (repr(coef) if isinstance(coef, float) else str(coef)) + unit
        out += txt if (not out or txt.startswith("-")) else "+" + txt
    return out or "0"


HURWITZ_UNITS = tuple(
    [Qt(s, 0, 0, 0) for s in (1, -1)] + [Qt(0, s, 0, 0) for s in (1, -1)]
    + [Qt(0, 0, s, 0) for s in (1, -1)] + [Qt(0, 0, 0, s) for s in (1, -1)]
    + [Qt(Fraction(a, 2), Fraction(b, 2), Fraction(c, 2), Fraction(d, 2))
       for a in (1, -1) for b in (1, -1) for c in (1, -1) for d in (1, -1)])


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients ascending)


def _pmul(a, b, add, mul, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def mod_rows(m: int, roots, sigma: int, lead: int, q_zero: bool = False):
    """a and b rows over Z_m for P = (y - sigma) prod(y - rho), Q = lead prod(y - rho)."""
    add = lambda x, y: (x + y) % m
    mul = lambda x, y: (x * y) % m
    q = [1]
    for r in roots:
        q = _pmul(q, [-r % m, 1], add, mul, 0)
    p = _pmul(q, [-sigma % m, 1], add, mul, 0)
    k = len(roots)
    a = [str(-p[k - i] % m) for i in range(k + 1)]
    b = ["0" if q_zero else str(lead * q[k - i] % m) for i in range(k + 1)]
    return a, b, p, [lead * c % m for c in q]


def field_rows(roots, sigma: Qt, lead: Qt):
    """a and b rows over Q or Q(i) for P = (y - sigma) prod(y - rho), Q = lead prod(y - rho)."""
    add = lambda x, y: x + y
    mul = lambda x, y: x * y
    q = [Qt(1)]
    for r in roots:
        q = _pmul(q, [-r, Qt(1)], add, mul, Qt(0))
    p = _pmul(q, [-sigma, Qt(1)], add, mul, Qt(0))
    k = len(roots)
    a = [(-p[k - i]).lit() for i in range(k + 1)]
    b = [(lead * q[k - i]).lit() for i in range(k + 1)]
    return a, b


def _horner_mod(coeffs, u, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * u + c) % m
    return acc


def smallest_common_unit_root(p, q, m) -> int | None:
    """Brute-force reference for composite moduli."""
    for u in range(1, m):
        if math.gcd(u, m) == 1 and _horner_mod(p, u, m) == 0 and _horner_mod(q, u, m) == 0:
            return u
    return None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randint(lo, hi)
        if _is_prime(p):
            return p


def _composite_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        m = rng.randint(lo, hi)
        if not _is_prime(m):
            return m


def _units(rng: random.Random, m: int, count: int, distinct: bool = True) -> list[int]:
    out: list[int] = []
    while len(out) < count:
        u = rng.randint(1, m - 1)
        if math.gcd(u, m) == 1 and not (distinct and u in out):
            out.append(u)
    return out


def _nonresidue(rng: random.Random, p: int) -> int:
    while True:
        n = rng.randint(2, p - 1)
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n


def _periodic(vals: list) -> list:
    """The shortest prefix of vals whose repetition reproduces vals."""
    n = len(vals)
    for p in range(1, n + 1):
        if n % p == 0 and all(vals[i] == vals[i % p] for i in range(n)):
            return vals[:p]
    return vals


def _row_entry(vals: list[Qt]):
    return vals[0].lit() if len(vals) == 1 else [v.lit() for v in vals]


def compose(alpha: list[Qt], fa: list[list[Qt]], fb: list[list[Qt]]):
    """Rows of the order-(k+1) recurrence that reduces at ``alpha`` to the
    order-k factor with rows (fa, fb).

    Substituting t[n-i] = x[n-i] - alpha[n-i-1] x[n-i-1] into the factor gives
    a_0 = alpha_n + a'_0, a_j = a'_j - a'_{j-1} alpha_{n-j} (a'_k = 0), and the
    same for b without the alpha_n term.
    """
    k = len(fa)
    period = math.lcm(len(alpha), *(len(s) for s in fa + fb))
    at = lambda s, n: s[n % len(s)]
    rows_a, rows_b = [], []
    for j in range(k + 1):
        av, bv = [], []
        for n in range(period):
            x, y = Qt(), Qt()
            if j == 0:
                x = x + at(alpha, n)
            if j < k:
                x = x + at(fa[j], n)
                y = y + at(fb[j], n)
            if j >= 1:
                x = x - at(fa[j - 1], n) * at(alpha, n - j)
                y = y - at(fb[j - 1], n) * at(alpha, n - j)
            av.append(x)
            bv.append(y)
        rows_a.append(_periodic(av))
        rows_b.append(_periodic(bv))
    return rows_a, rows_b


def _pick_distinct_cycle(rng, pool, period: int) -> list:
    """A sequence of the given period that does not collapse to a shorter one."""
    while True:
        vals = [rng.choice(pool) for _ in range(period)]
        if len(_periodic(vals)) == period:
            return vals


def hurwitz_chain(rng: random.Random, levels: int, alpha_periods, seq_period: int):
    """A recurrence of order levels+1 over the Hurwitz quaternions.

    Bottom factor r[n+1] = c_n r[n] + g(d_n r[n]) with g(u) = s[n]*u and
    c_n + s_n d_n a unit, so trajectories stay bounded with denominators at
    most 2 and per-step cost stays flat over thousands of steps.
    Returns rows, the g sequence and the alphas top-down.
    """
    s = [rng.choice(HURWITZ_UNITS) for _ in range(seq_period)]
    d = [rng.choice(HURWITZ_UNITS)]
    m = [rng.choice(HURWITZ_UNITS) for _ in range(seq_period)]
    c = _periodic([m[n] - s[n] * d[0] for n in range(seq_period)])
    fa, fb = [c], [d]
    alphas = []
    for lvl in range(levels):
        alpha = _pick_distinct_cycle(rng, HURWITZ_UNITS, alpha_periods[lvl])
        fa, fb = compose(alpha, fa, fb)
        alphas.append(alpha)
    alphas.reverse()
    return fa, fb, s, alphas


def _hurwitz_window(rng: random.Random, n: int) -> list[str]:
    out = []
    for _ in range(n):
        v = rng.choice(HURWITZ_UNITS) * Qt(rng.randint(1, 3)) + rng.choice(HURWITZ_UNITS)
        out.append(v.lit())
    return out


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    id: str
    command: str
    doc: dict
    expect: dict
    path: str | None = None

    def argv(self) -> list[str]:
        return [self.command, self.path, "--json"]


def _doc(ring: dict, dim: int, body_key: str, body, initial, run: dict | None = None) -> dict:
    doc = {"ring": ring, "module": {"dim": dim}, body_key: body, "initial": initial}
    if run:
        doc["run"] = run
    return doc


def _zm(m: int) -> dict:
    return {"kind": "integers-mod-m", "modulus": m}


def _rand_window(rng, m, n, dim=1):
    if dim == 1:
        return [str(rng.randrange(m)) for _ in range(n)]
    return [[str(rng.randrange(m)) for _ in range(dim)] for _ in range(n)]


def _chain_expect(rhos, **extra) -> dict:
    """A complete constant-root chain: one step per planted root."""
    return {"exit": 0, "status": "reducible", "rhos": list(rhos), "complete": True,
            "depth": len(rhos) + 1, **extra}


# --- small-jobs slots -------------------------------------------------------


def sj_zp_verify(rng, tiny):
    p = _prime_in(rng, 11, 97)
    roots = _units(rng, p, 2)
    sigma = rng.randrange(p)
    a, b, _, _ = mod_rows(p, roots, sigma, rng.randint(1, p - 1))
    steps = rng.randint(50, 150)
    cseq = [str(rng.randrange(p)) for _ in range(rng.randint(1, 3))]
    rec = {"a": a, "b": b, "g": {"kind": "expression", "exprs": ["u1*u1 + c[n]"],
                                 "sequences": {"c": cseq}}}
    doc = _doc(_zm(p), 1, "recurrence", rec, _rand_window(rng, p, 3), {"steps": steps})
    return "verify", doc, _chain_expect([str(r) for r in roots], verified=True,
                                        compared=3 + steps, breakdown=None)


def _small_fraction(rng) -> Fraction:
    return Fraction(rng.choice((1, 2, 3, 4, 5, 6)) * rng.choice((1, -1)), rng.choice((1, 2, 3)))


def sj_q_factor(rng, tiny):
    k = rng.randint(2, 3)
    roots = []
    while len(roots) < k:
        r = _small_fraction(rng)
        if r not in roots:
            roots.append(r)
    a, b = field_rows([Qt(r) for r in roots], Qt(_small_fraction(rng)), Qt(rng.randint(1, 4)))
    rec = {"a": a, "b": b, "g": {"kind": "expression", "exprs": ["u1*u1"]}}
    doc = _doc({"kind": "exact-rational"}, 1, "recurrence", rec,
               [str(rng.randint(-3, 3)) for _ in range(k + 1)])
    return "factor", doc, _chain_expect([Qt(r).lit() for r in roots])


def _gauss_int(rng, lo=-3, hi=3) -> Qt:
    while True:
        g = Qt(rng.randint(lo, hi), rng.randint(lo, hi))
        if not g.is_zero:
            return g


def sj_gauss_verify(rng, tiny):
    roots = []
    while len(roots) < 2:
        r = _gauss_int(rng, -2, 2)
        if r not in roots:
            roots.append(r)
    a, b = field_rows(roots, _gauss_int(rng), _gauss_int(rng, 1, 2))
    steps = rng.randint(20, 40)
    scale = [Qt(Fraction(rng.choice((1, -1)), rng.choice((1, 2))), rng.randint(-1, 1)).lit()
             for _ in range(rng.randint(1, 2))]
    rec = {"a": a, "b": b, "g": {"kind": "linear-scale", "values": scale}}
    doc = _doc({"kind": "gaussian-rational"}, 1, "recurrence", rec,
               [_gauss_int(rng).lit() for _ in range(3)], {"steps": steps})
    return "verify", doc, _chain_expect([r.lit() for r in roots], verified=True,
                                        compared=3 + steps, breakdown=None)


def sj_fsc_factor(rng, tiny):
    p = _prime_in(rng, 11, 97)
    k = rng.randint(2, 3)
    roots = _units(rng, p, k)
    _, _, _, q = mod_rows(p, roots, 0, 1)
    btail = [str(q[k - i]) for i in range(1, k + 1)]
    fam = {"kind": "fsc", "params": {"r": str(rng.randint(1, p - 1)), "b": btail},
           "g": {"kind": "expression", "exprs": ["u1*u1 + 1"]}}
    doc = _doc(_zm(p), 1, "family", fam, _rand_window(rng, p, k + 1))
    return "factor", doc, _chain_expect([str(r) for r in roots])


def sj_alsp_verify(rng, tiny):
    p = _prime_in(rng, 11, 97)
    k = rng.randint(2, 3)
    acoef = [str(rng.randrange(p)) for _ in range(k - 1)] + [str(rng.randint(1, p - 1))]
    fam = {"kind": "alsp", "params": {"a": acoef, "b": str(rng.randint(1, p - 1))},
           "g": {"kind": "expression", "exprs": ["u1*u1"]}}
    doc = _doc(_zm(p), 1, "family", fam, _rand_window(rng, p, k + 1),
               {"steps": rng.randint(50, 120)})
    return "verify", doc, {"exit": 0, "status": "reducible", "verified": True,
                           "substitution": True}


def _o2b(rng, reducible: bool):
    p = _prime_in(rng, 11, 97)
    j = rng.randint(0, 1)
    bval = rng.randint(1, p - 1)
    a0, a1 = rng.randrange(p), rng.randrange(p)
    a2 = (bval ** 3 - a0 * bval * bval - a1 * bval) % p
    if not reducible:
        a2 = (a2 + rng.randint(1, p - 1)) % p
    fam = {"kind": "o2b", "params": {"a": [str(a0), str(a1), str(a2)], "j": j, "b": str(bval)},
           "g": {"kind": "expression", "exprs": ["u1*u1"]}}
    return _doc(_zm(p), 1, "family", fam, _rand_window(rng, p, 3)), bval


def sj_o2b_factor(rng, tiny):
    doc, bval = _o2b(rng, True)
    return "factor", doc, {"exit": 0, "status": "reducible", "o2b": True,
                           "first_rho": str(bval)}


def sj_o2b_irreducible(rng, tiny):
    doc, _ = _o2b(rng, False)
    return "factor", doc, {"exit": 3, "status": "irreducible", "o2b": False}


def sj_linear_verify(rng, tiny):
    p = _prime_in(rng, 11, 97)
    k = rng.randint(1, 2)
    roots = _units(rng, p, k + 1, distinct=False)
    a, _, _, _ = mod_rows(p, roots[:-1], roots[-1], 1, q_zero=True)
    steps = rng.randint(50, 150)
    fam = {"kind": "linear", "params": {"a": a, "c": [str(rng.randrange(p))
                                                     for _ in range(rng.randint(1, 3))]}}
    doc = _doc(_zm(p), 1, "family", fam, _rand_window(rng, p, k + 1), {"steps": steps})
    rhos = [str(r) for r in sorted(roots)[:k]]
    return "verify", doc, _chain_expect(rhos, verified=True, compared=k + 1 + steps,
                                        breakdown=None)


def sj_system_verify(rng, tiny):
    p = _prime_in(rng, 11, 97)
    roots = _units(rng, p, 2)
    a, b, _, _ = mod_rows(p, roots, rng.randrange(p), rng.randint(1, p - 1))
    steps = rng.randint(40, 100)
    cseq = {"c": [str(rng.randrange(p)) for _ in range(rng.randint(1, 3))]}
    comps = [{"a": a, "b": b, "expr": "u1*u2 + c[n]", "sequences": cseq},
             {"a": a, "b": b, "expr": "u2*u2 - u1", "sequences": cseq}]
    doc = _doc(_zm(p), 2, "system", {"components": comps}, _rand_window(rng, p, 3, 2),
               {"steps": steps})
    return "verify", doc, _chain_expect([str(r) for r in roots], verified=True,
                                        compared=3 + steps, breakdown=None)


def sj_rq_second_order_verify(rng, tiny):
    (a0, a1), (b0, b1), s, alphas = hurwitz_chain(rng, 1, [2], rng.randint(1, 2))
    steps = rng.randint(40, 80)
    fam = {"kind": "second-order",
           "params": {"a": [_row_entry(a0), _row_entry(a1)],
                      "b": [_row_entry(b0), _row_entry(b1)]},
           "g": {"kind": "expression", "exprs": ["s[n]*u1"],
                 "sequences": {"s": [v.lit() for v in s]}}}
    doc = _doc({"kind": "rational-quaternion"}, 1, "family", fam,
               _hurwitz_window(rng, 2), {"steps": steps})
    return "verify", doc, {"exit": 0, "status": "reducible", "complete": True, "depth": 2,
                           "routes": ["shortcut"],
                           "alphas": [[v.lit() for v in al] for al in alphas],
                           "verified": True, "compared": 2 + steps, "breakdown": None}


def sj_rq_certify(rng, tiny):
    q = rng.choice(HURWITZ_UNITS) * Qt(rng.randint(1, 3)) + rng.choice(HURWITZ_UNITS)
    while q.is_zero:
        q = rng.choice(HURWITZ_UNITS)
    alpha = [q, -q.inv()]
    rec = {"a": [[v.lit() for v in alpha], "0", "0"], "b": ["1", "0", "1"],
           "g": {"kind": "linear-scale", "values": ["1/2"]}}
    doc = _doc({"kind": "rational-quaternion"}, 1, "recurrence", rec, _hurwitz_window(rng, 3),
               {"horizon": rng.randint(8, 24), "seeds": [[v.lit() for v in alpha]]})
    return "certify", doc, {"exit": 0, "cert_status": "proved-periodic", "period": 2}


def sj_fq_certify(rng, tiny):
    while True:
        v = [rng.uniform(-1, 1) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 0.3:
            break
    u = fmt_terms([(0.0, ""), (v[0] / norm, "i"), (v[1] / norm, "j"), (v[2] / norm, "k")])
    rec = {"a": [u, "0", "0"], "b": ["1", "0", "1"],
           "g": {"kind": "linear-scale", "values": ["0.5"]}}
    doc = _doc({"kind": "float-quaternion"}, 1, "recurrence", rec, ["1", "0.5i", "-1"],
               {"horizon": rng.randint(8, 16), "seeds": [[u, u]]})
    return "certify", doc, {"exit": 0, "cert_status": "proved-periodic", "period": 1}


def sj_float_verify(rng, tiny):
    theta = rng.uniform(0.4, 2.7)
    sigma = rng.uniform(-0.5, 0.5)
    lead = rng.uniform(0.5, 1.5)
    quad = [1.0, -2.0 * math.cos(theta), 1.0]  # ascending: 1 - 2cos y + y^2
    q = [lead * c for c in quad]
    p = _pmul(quad, [-sigma, 1.0], lambda x, y: x + y, lambda x, y: x * y, 0.0)
    a = [repr(-p[2 - i]) for i in range(3)]
    b = [repr(q[2 - i]) for i in range(3)]
    steps = rng.randint(60, 120)
    rec = {"a": a, "b": b, "g": {"kind": "expression", "exprs": ["1/(4+u1)"]}}
    init = [fmt_terms([(round(rng.uniform(-0.5, 0.5), 3), ""),
                       (round(rng.uniform(-0.5, 0.5), 3), "i")]) for _ in range(3)]
    doc = _doc({"kind": "float-complex"}, 1, "recurrence", rec, init, {"steps": steps})
    rho = complex(math.cos(theta), math.sin(theta))
    return "verify", doc, {"exit": 0, "status": "reducible", "complete": True, "depth": 3,
                           "float_rhos": [[rho.real, rho.imag], [rho.real, -rho.imag]],
                           "verified": True}


def sj_float_verify_fail(rng, tiny):
    rho = rng.choice((0.25, 0.375, 0.5, 0.625, 0.75))
    x0 = round(rng.uniform(0.1, 0.9), 6)
    t1 = round(rng.uniform(0.1, 0.9), 6)
    rec = {"a": [repr(1 + rho), repr(-rho)], "b": ["1", repr(-rho)],
           "g": {"kind": "expression", "exprs": ["3*u1 - 4*u1*u1"]}}
    doc = _doc({"kind": "float-complex"}, 1, "recurrence", rec,
               [repr(x0), repr(round(t1 + rho * x0, 9))], {"steps": rng.randint(300, 400)})
    return "verify", doc, {"exit": 4, "status": "reducible", "verified": False}


def sj_q_irreducible(rng, tiny):
    s = rng.choice((1, 2, 3, 5, 6, 7, -2, -3, -5, -6, -7))
    lead = rng.randint(1, 5)
    sigma = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    # Q = lead (y^2 + s), P = (y - sigma)(y^2 + s): no rational common root
    a = [str(sigma), str(-s), str(sigma * s)]
    b = [str(lead), "0", str(lead * s)]
    rec = {"a": a, "b": b, "g": {"kind": "linear-scale", "values": ["2/3"]}}
    doc = _doc({"kind": "exact-rational"}, 1, "recurrence", rec,
               [str(rng.randint(-3, 3)) for _ in range(3)])
    return "factor", doc, {"exit": 3, "status": "irreducible"}


def sj_zp_irreducible(rng, tiny):
    p = _prime_in(rng, 11, 97)
    n = _nonresidue(rng, p)
    sigma = rng.randrange(p)
    lead = rng.randint(1, p - 1)
    # Q = lead (y^2 - n), P = (y - sigma)(y^2 - n) with n a non-residue
    a = [str(sigma), str(n), str(-sigma * n % p)]
    b = [str(lead), "0", str(-lead * n % p)]
    rec = {"a": a, "b": b, "g": {"kind": "expression", "exprs": ["u1*u1"]}}
    doc = _doc(_zm(p), 1, "recurrence", rec, _rand_window(rng, p, 3))
    return "verify", doc, {"exit": 3, "status": "irreducible"}


# --- root-search slots --------------------------------------------------------


def _rs_prime(rng, tiny, order, near):
    lo, hi = (101, 199) if tiny else (near - 100, near + 100)
    p = _prime_in(rng, lo, hi)
    roots = _units(rng, p, order - 1)
    a, b, _, _ = mod_rows(p, roots, rng.randrange(p), rng.randint(1, p - 1))
    rec = {"a": a, "b": b, "g": {"kind": "expression", "exprs": ["u1*u1 + 1"]}}
    doc = _doc(_zm(p), 1, "recurrence", rec, _rand_window(rng, p, order))
    return "factor", doc, _chain_expect([str(r) for r in roots])


def _rs_prime_slot(order: int, near: int):
    """Slot of order-``order`` jobs over primes within 100 of ``near``. The
    root search scans every unit at each of order-1 levels, so the job costs
    about (order-1)*near unit evaluations whatever the seed."""
    def slot(rng, tiny):
        return _rs_prime(rng, tiny, order, near)
    slot.__name__ = f"rs_prime{order}"
    return slot


def rs_composite(rng, tiny):
    m = _composite_in(rng, *((101, 199) if tiny else (10007, 10499)))
    order = rng.randint(3, 4)
    roots = _units(rng, m, order - 1)
    a, b, p, q = mod_rows(m, roots, rng.randrange(m), _units(rng, m, 1)[0])
    rec = {"a": a, "b": b, "g": {"kind": "expression", "exprs": ["u1*u1 + 1"]}}
    doc = _doc(_zm(m), 1, "recurrence", rec, _rand_window(rng, m, order))
    rho = smallest_common_unit_root(p, q, m)
    return "factor", doc, {"exit": 0, "status": "reducible", "rhos": [str(rho)],
                           "complete": False, "depth": 1}


_HC_NUMS = (2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 30)
_HC_DENS = (1, 1, 2, 3, 4, 5, 6)


def rs_rational(rng, tiny):
    order = rng.randint(4, 5)
    roots: list[Fraction] = []
    while len(roots) < order - 1:
        r = Fraction(rng.choice(_HC_NUMS) * rng.choice((1, -1)), rng.choice(_HC_DENS))
        if r not in roots:
            roots.append(r)
    sigma = Fraction(rng.choice(_HC_NUMS), rng.choice(_HC_DENS))
    a, b = field_rows([Qt(r) for r in roots], Qt(sigma), Qt(rng.choice((6, 12, 24, 30, 60))))
    rec = {"a": a, "b": b, "g": {"kind": "expression", "exprs": ["u1*u1"]}}
    doc = _doc({"kind": "exact-rational"}, 1, "recurrence", rec,
               [str(rng.randint(-5, 5)) for _ in range(order)])
    return "factor", doc, _chain_expect([Qt(r).lit() for r in roots])


def rs_gaussian(rng, tiny):
    order = rng.randint(3, 4)
    roots: list[Qt] = []
    while len(roots) < order - 1:
        r = Qt(rng.choice((2, 3, 4, 6)) * rng.choice((1, -1)), rng.choice((0, 1, 2, 3, -2)))
        if r not in roots:
            roots.append(r)
    a, b = field_rows(roots, _gauss_int(rng), Qt(rng.choice((2, 4, 6)), rng.choice((0, 2))))
    rec = {"a": a, "b": b, "g": {"kind": "expression", "exprs": ["u1*u1"]}}
    doc = _doc({"kind": "gaussian-rational"}, 1, "recurrence", rec,
               [_gauss_int(rng).lit() for _ in range(order)])
    return "factor", doc, _chain_expect([r.lit() for r in roots])


# --- long-verify slots --------------------------------------------------------

_PERIOD_PRIMES = (31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
_TINY_PERIOD_PRIMES = (5, 7, 11, 13)


def _lv_system(rng, tiny, dim: int, steps_band, breakdown: bool):
    """A dim-component system over a small prime field whose g divides by
    d[n] + e[n]. d and e have coprime periods; their sum is 0 at exactly one
    residue class, placed at n_star when ``breakdown`` is set."""
    p = _prime_in(rng, 11, 101)
    roots = _units(rng, p, 2)
    a, b, _, _ = mod_rows(p, roots, rng.randrange(p), rng.randint(1, p - 1))
    lo, hi = steps_band
    steps = rng.randint(lo // 20, hi // 20) if tiny else rng.randint(lo, hi)
    primes = _TINY_PERIOD_PRIMES if tiny else _PERIOD_PRIMES
    n_star = rng.randint(2 + steps * 3 // 5, 2 + steps * 5 // 8)
    while True:
        l1, l2 = rng.sample(primes, 2)
        if l1 * l2 > n_star:
            break
    j1, j2 = n_star % l1, n_star % l2
    d = ["1"] * l1
    e = ["1"] * l2
    d[j1] = "2"
    e[j2] = str(p - 2) if breakdown else "2"
    seqs = {"c": [str(rng.randint(1, p - 1)) for _ in range(rng.randint(1, 5))], "d": d, "e": e}
    comps = []
    for i in range(1, dim + 1):
        j = i % dim + 1
        expr = (f"c[n]*u{i}*u{j}/(d[n]+e[n]) + u{i}", f"inv(d[n]+e[n])*u{j} - c[n]*u{i}*u{i}")[i % 2 == 0]
        comps.append({"a": a, "b": b, "expr": expr, "sequences": seqs})
    doc = _doc(_zm(p), dim, "system", {"components": comps}, _rand_window(rng, p, 3, dim),
               {"steps": steps})
    if breakdown:
        exp = _chain_expect([str(r) for r in roots], verified=True, compared=n_star + 1,
                            breakdown=n_star + 1)
    else:
        exp = _chain_expect([str(r) for r in roots], verified=True, compared=3 + steps,
                            breakdown=None)
    return "verify", doc, exp


def _lv_slot(dim: int, steps: int, breakdown: bool = False):
    """Slot of dim-component systems running steps-10 to steps+10 steps."""
    def slot(rng, tiny):
        return _lv_system(rng, tiny, dim, (steps - 10, steps + 10), breakdown)
    slot.__name__ = f"lv_dim{dim}" + ("_breakdown" if breakdown else "")
    return slot


def lv_rq_periodic(rng, tiny):
    """Order 3 over the rational quaternions with periodic coefficients: the
    top step needs the certificate route, the order-2 step the shortcut."""
    rows_a, rows_b, s, alphas = hurwitz_chain(rng, 2, [1 + rng.randint(0, 1), 2],
                                              rng.randint(1, 3))
    steps = rng.randint(25, 35) if tiny else rng.randint(60, 70)
    rec = {"a": [_row_entry(r) for r in rows_a], "b": [_row_entry(r) for r in rows_b],
           "g": {"kind": "expression", "exprs": ["s[n]*u1"],
                 "sequences": {"s": [v.lit() for v in s]}}}
    top = alphas[0]
    seed = [top[0].lit(), top[1 % len(top)].lit()]
    doc = _doc({"kind": "rational-quaternion"}, 1, "recurrence", rec, _hurwitz_window(rng, 3),
               {"steps": steps, "horizon": 24, "seeds": [seed]})
    return "verify", doc, {"exit": 0, "status": "reducible", "complete": True, "depth": 3,
                           "routes": ["certificate", "shortcut"],
                           "alphas": [[v.lit() for v in al] for al in alphas],
                           "verified": True, "compared": 3 + steps, "breakdown": None}


# ---------------------------------------------------------------------------
# workloads

# A block holds one job per slot. Within root-search and long-verify a
# slot's cost hardly depends on the seed, and the slots' costs are spaced
# about 10-15% apart above the cheap jobs. Sorted job times then form the
# same continuum for every seed: the median and the 90th percentile lie
# between neighbouring slots, not at a gap between classes, and they move
# smoothly when machine speed changes during a run.
# Root-search: the rational and Gaussian jobs and the one-step composite are
# cheap; order-3 and order-4 primes take about 16k to 40k unit evaluations.
# Long-verify: the quaternion chains (whose cost per step depends on how
# many coefficients cancel) and the planted breakdowns (stopping 3/5 of the
# way) are cheap; the residue systems above them grow by about 10% a slot.
WORKLOADS = {
    "small-jobs": (
        sj_zp_verify, sj_q_factor, sj_gauss_verify, sj_fsc_factor, sj_alsp_verify,
        sj_o2b_factor, sj_o2b_irreducible, sj_linear_verify, sj_system_verify,
        sj_rq_second_order_verify, sj_rq_second_order_verify, sj_rq_certify, sj_fq_certify,
        sj_float_verify, sj_float_verify_fail, sj_q_irreducible, sj_zp_irreducible,
    ),
    "root-search": (
        rs_rational, rs_gaussian, rs_composite,
        _rs_prime_slot(3, 8000), _rs_prime_slot(3, 9150), _rs_prime_slot(3, 10400),
        _rs_prime_slot(3, 11850), _rs_prime_slot(3, 13550),
        _rs_prime_slot(4, 10300), _rs_prime_slot(4, 11730), _rs_prime_slot(4, 13370),
    ),
    "long-verify": (
        lv_rq_periodic, lv_rq_periodic,
        _lv_slot(1, 1510, breakdown=True), _lv_slot(2, 1000, breakdown=True),
        _lv_slot(1, 1150), _lv_slot(2, 940), _lv_slot(3, 825), _lv_slot(1, 1650),
        _lv_slot(2, 1285), _lv_slot(1, 2120), _lv_slot(3, 1120), _lv_slot(2, 1665),
    ),
}

# Blocks generated per run: more than a 50 s run uses on the reference
# machine; a faster machine cycles through them again.
BLOCKS = {"small-jobs": 90, "root-search": 24, "long-verify": 32}


def make_blocks(workload: str, seed: int, n_blocks: int | None = None,
                tiny: bool = False) -> list[list[Job]]:
    """The workload's job stream for ``seed``: n_blocks blocks of one job per slot."""
    slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    blocks = []
    for bi in range(n_blocks if n_blocks is not None else BLOCKS[workload]):
        block = []
        for si, slot in enumerate(slots):
            command, doc, expect = slot(rng, tiny)
            name = slot.__name__.split("_", 1)[1].replace("_", "-")
            block.append(Job(f"{workload}/{bi:03d}-{si:02d}-{name}", command, doc, expect))
        blocks.append(block)
    return blocks


def write_jobs(blocks: list[list[Job]], outdir: Path) -> None:
    """Write one config file per job and record its path on the job."""
    outdir.mkdir(parents=True, exist_ok=True)
    for block in blocks:
        for job in block:
            path = outdir / (job.id.split("/", 1)[1] + ".json")
            path.write_text(json.dumps(job.doc, sort_keys=True, indent=2) + "\n")
            job.path = str(path)
