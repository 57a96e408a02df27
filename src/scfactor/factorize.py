"""Reducibility analysis and triangular factorization of recurrences.

A reduction step replaces the order-(k+1) recurrence in x by an order-k
recurrence in t (the factor) plus the first-order cofactor

    x_{n+1} = alpha_n x_n + t_{n+1},   t_{n+1} = x_{n+1} - alpha_n x_n,

where every alpha_n is a unit. Two construction routes exist:

* constant coefficients over a commutative ring: alpha_n = rho, a common
  unit root of the characteristic pair (P, Q); factor coefficients come from
  the Horner recursions p_i = rho p_{i-1} - a_i, q_i = rho q_{i-1} + b_i,
  giving t_{n+1} = -sum p_i t_{n-i} + g_n(sum q_i t_{n-i}).
* general coefficients (periodic, possibly noncommutative ring): alpha_n is
  produced by the forward recursion

      alpha_n = sum_i a_i(n) (alpha_{n-1} ... alpha_{n-i})^(-1)

  with the side condition sum_i b_i(n) (alpha_{n-1} ... alpha_{n-i})^(-1) = 0
  whenever g reads its argument. A certificate records the run; once the
  alpha window recurs at a multiple of the coefficient period, the sequence
  is pure-periodic and the factor coefficients

      a'_i'(n) = -sum_{j>i'} a_j(n) (alpha_{n-i'-1} ... alpha_{n-j})^(-1)
      b'_i'(n) = -sum_{j>i'} b_j(n) (alpha_{n-i'-1} ... alpha_{n-j})^(-1)

  are well defined periodic sequences.

The certificate route computes on payloads with the ring's lazy operations
(rings: _lazy_add, _lazy_mul, _normal), as generated code does, and brings
each alpha and each factor coefficient to its canonical payload once.

criterion_check is the independent test from the defining property: the
expression f_n(zeta_0, .., zeta_k) - alpha_n zeta_0 must not depend on the
free leading value zeta_0 once the remaining zeta_j are pinned by probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    CertificateFailure,
    CertificateNotPeriodic,
    ConfigError,
    DivisionByNonUnit,
    Irreducible,
    NoncommutativeRing,
    NotAValidRoot,
    ParseError,
)
from .poly import RootReport, is_root, unit_roots, verified_roots
from .recurrence import CoeffSeq, Recurrence
from .rings import MAX_PAYLOAD_BITS, El, IntegersMod, Vec

# Largest common period (lcm of the coefficient and alpha periods) over which
# a certificate-route factor is built or checked; each n costs a row of ring
# arithmetic, so periods 2 to 17 (lcm 510510) would take over a second.
MAX_COEFF_SPAN = 1 << 16


def _span(*periods: int) -> int:
    span = math.lcm(*periods)
    if span > MAX_COEFF_SPAN:
        raise ConfigError(f"common period {span} of the coefficients and alphas exceeds "
                          f"the limit of {MAX_COEFF_SPAN}")
    return span

LEVEL_NAMES = ("x", "t", "r", "s", "w", "v")


def level_name(i: int) -> str:
    return LEVEL_NAMES[i] if i < len(LEVEL_NAMES) else f"y{i}"


# ---------------------------------------------------------------------------
# data model


@dataclass
class UnitCertificate:
    """A verified run of the alpha recursion.

    status is "proved-periodic" (period set: the wrapped alpha sequence
    satisfies esa/esb for every n, see variable_certificate) or
    "horizon-bounded" (recursion ran clean to the horizon but no period was
    established).
    """

    seed: tuple[El, ...]
    alphas: tuple[El, ...]
    status: str
    horizon: int
    period: int | None = None
    checked_upto: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def proved_periodic(self) -> bool:
        return self.status == "proved-periodic"

    def alpha_seq(self) -> CoeffSeq:
        if not self.proved_periodic:
            raise CertificateNotPeriodic(
                "alpha sequence is only globally defined for proved-periodic certificates")
        return CoeffSeq(self.alphas[: self.period]).reduced()


@dataclass
class FactorStep:
    """One order reduction: cofactor data plus the factor recurrence."""

    route: str                      # "constant-root" | "certificate" | "shortcut"
    alpha: CoeffSeq
    factor: Recurrence
    rho: El | None = None           # constant route only
    p: tuple[El, ...] | None = None
    q: tuple[El, ...] | None = None
    certificate: UnitCertificate | None = None
    root_report: RootReport | None = None


@dataclass
class FactorizationChain:
    """Reduction steps applied to base; final_factor is what remains.

    complete means the residual recurrence is first order, in which case the
    chain presents depth = len(steps) + 1 triangular levels (each step's
    cofactor plus the terminal factor).
    """

    base: Recurrence
    steps: list[FactorStep]
    notes: list[str] = field(default_factory=list)

    @property
    def final_factor(self) -> Recurrence:
        return self.steps[-1].factor if self.steps else self.base

    @property
    def complete(self) -> bool:
        return self.final_factor.order == 1

    @property
    def depth(self) -> int:
        return len(self.steps) + (1 if self.complete else 0)

    def level_names(self) -> list[str]:
        """Names for the simulated levels: one per step's factor."""
        return [level_name(i + 1) for i in range(len(self.steps))]


# ---------------------------------------------------------------------------
# the reduction criterion (independent oracle)


def _inverse(ring, v):
    """The inverse of the payload v; a non-unit raises as El.inverse does."""
    w = ring._inv(v)
    if w is None:
        raise DivisionByNonUnit(f"{ring.fmt(v)} is not a unit in {ring}")
    return w


def _descending_alpha_product(ring, alpha: CoeffSeq, n: int, i: int, j: int):
    """The payload of alpha_{n-i} * alpha_{n-i-1} * ... * alpha_{n-j}
    (i <= j), normalized once."""
    acc = alpha.payload_at(n - i)
    for l in range(i + 1, j + 1):
        acc = ring._lazy_mul(acc, alpha.payload_at(n - l))
    return ring._normal(acc)


def _zeta_chain(rec: Recurrence, alpha: CoeffSeq, n: int, u0: Vec, probes) -> list[Vec]:
    """Backward substitution values zeta_0..zeta_k given the probes v_1..v_k.

    zeta_j = (alpha_{n-1}..alpha_{n-j})^(-1) u0
             - sum_{i=1..j} (alpha_{n-i}..alpha_{n-j})^(-1) v_i
    """
    ring = rec.ring

    def inverse(i, j):
        return El(ring, _inverse(ring, _descending_alpha_product(ring, alpha, n, i, j)))
    zetas = [u0]
    for j in range(1, rec.order):
        acc = inverse(1, j) * u0
        for i in range(1, j + 1):
            acc = acc - inverse(i, j) * probes[i - 1]
        zetas.append(acc)
    return zetas


def criterion_check(rec: Recurrence, alpha: CoeffSeq, n: int,
                    u0_a: Vec, u0_b: Vec, probes) -> bool:
    """Does f_n(zeta chain) - alpha_n zeta_0 agree for two leading values?

    A valid reduction makes the expression independent of the leading value
    for every choice of probes; testing two leading values against one probe
    tuple gives a refutable instance of that independence.
    """
    if len(probes) != rec.k:
        raise ValueError(f"need {rec.k} probe value(s), got {len(probes)}")
    outs = []
    for u0 in (u0_a, u0_b):
        zetas = _zeta_chain(rec, alpha, n, u0, probes)
        val = rec.step(n, zetas) - alpha.at(n) * u0
        outs.append(val)
    return outs[0] == outs[1]


# ---------------------------------------------------------------------------
# constant-coefficient route


def factor_once(rec: Recurrence, rho: El, report: RootReport | None = None) -> FactorStep:
    """One reduction step at a common unit root of the characteristic pair.

    Validates rho (unit, annihilates P, annihilates Q unless Q = 0) and
    builds the factor coefficients by the Horner recursions, which are the
    coefficients of P / (x - rho) and Q / (x - rho).
    """
    ring = rec.ring
    if not ring.commutative:
        raise NoncommutativeRing(
            "root-based reduction works over commutative rings; "
            "use a unit-sequence certificate instead")
    if not rec.constant_coeffs:
        raise ParseError("root-based reduction needs constant coefficients")
    if rec.order < 2:
        raise ParseError("a first-order recurrence has nothing to reduce")
    rho = ring.el(rho)
    r = rho.v
    P, Q = rec.char_pair()
    if not rho.is_unit:
        raise NotAValidRoot(f"{rho} is not a unit in {ring}")
    if not is_root(P, r):
        raise NotAValidRoot(f"{rho} is not a root of P = {P.fmt()}")
    if not Q.is_zero and not is_root(Q, r):
        raise NotAValidRoot(f"{rho} is not a root of Q = {Q.fmt()}")

    add, mul, neg = ring._add, ring._mul, ring._neg
    p, q = [], []
    prev_p, prev_q = ring.one.v, ring.zero.v
    for a, b in zip(rec.a[:-1], rec.b[:-1]):
        prev_p = add(mul(r, prev_p), neg(a.values[0].v))
        prev_q = add(mul(r, prev_q), b.values[0].v)
        p.append(prev_p)
        q.append(prev_q)

    p, q = tuple(El(ring, v) for v in p), tuple(El(ring, v) for v in q)
    factor = Recurrence(rec.module, [-c for c in p], q, rec.g)
    return FactorStep(
        route="constant-root",
        alpha=CoeffSeq.constant(rho),
        factor=factor,
        rho=rho,
        p=p,
        q=q,
        root_report=report,
    )


def factor_chain(rec: Recurrence, roots: list[El] | None = None) -> FactorizationChain:
    """Greedy chain of root-based reductions.

    The characteristic pair is searched once. The pair one level down is
    (P/(x - rho), Q/(x - rho)), so over a field (Z/p, Q, Q(i)) each later
    report is derived from the one before by RootReport.deflated, which keeps
    repeated roots. Numeric (float) reports are searched again at every
    level, and supplied roots are verified level by level. Raises Irreducible
    when not even one step exists. Over a residue ring with composite modulus
    the chain stops after one step.
    """
    ring = rec.ring
    composite = isinstance(ring, IntegersMod) and not ring.is_prime
    supplied = list(roots) if roots else None

    steps: list[FactorStep] = []
    notes: list[str] = []
    current = rec
    report = None
    while current.order > 1 and not (composite and steps):
        if supplied is not None:
            if not supplied:
                break
            report = verified_roots(*current.char_pair(), [supplied.pop(0)])
        elif report is not None and report.gcd is not None:
            report = report.deflated(rho)
        else:
            report = unit_roots(*current.char_pair())
        if not report.found:
            if not steps:
                P, Q = rec.char_pair()
                raise Irreducible(
                    f"no common unit root of P = {P.fmt()} and Q = {Q.fmt()}; "
                    f"{report.describe()}", report)
            notes.append(f"stopped at order {current.order}: {report.describe()}")
            break
        rho = report.roots[0][0]
        step = factor_once(current, rho, report)
        steps.append(step)
        current = step.factor
    if composite and steps and current.order > 1:
        notes.append(
            f"{ring} has a composite modulus: stopped after one reduction "
            "(repeated deflation needs an integral domain)")
    return FactorizationChain(rec, steps, notes)


def linear_complete(rec: Recurrence, roots: list | None = None) -> FactorizationChain:
    """Chain for recurrences that are linear apart from their g term.

    Applies when g never mixes nonlinearly with the state: a zero or
    constant-sequence map (plain non-homogeneous linear recurrence) or a
    linear-scale map (periodically rescaled linear form). The recurrence
    then reduces through unit roots of the characteristic pair like any
    other, and the chain is complete exactly when enough roots exist; the
    last root stays visible as the coefficient of the terminal first-order
    factor.
    """
    if rec.g.kind not in ("zero", "constant-sequence", "linear-scale"):
        raise ParseError(
            "linear_complete applies to forcing-only or linear-scale maps, "
            f"got a {rec.g.kind} map")
    return factor_chain(rec, roots=roots)


# ---------------------------------------------------------------------------
# variable-coefficient route


def _row_sum(ring, row, alpha_at, n: int):
    """sum_i row_i(n) (alpha_{n-1} .. alpha_{n-i})^(-1) for a coefficient row,
    on payloads: alpha_at(m) is the payload of alpha_m, and the sum is
    normalized once.

    For row rec.a this is the right side of ESa; for rec.b, the value of ESb.
    On exact rings trailing zero coefficients add nothing, so the alpha
    product stops at the last nonzero one.
    """
    add, mul, eq, zero = ring._lazy_add, ring._lazy_mul, ring._eq, ring.zero.v
    acc, *coeffs = [seq.payload_at(n) for seq in row]
    while ring.exact and coeffs and eq(coeffs[-1], zero):
        coeffs.pop()
    prod = None
    for i, c in enumerate(coeffs, start=1):
        prod = alpha_at(n - i) if prod is None else mul(prod, alpha_at(n - i))
        acc = add(acc, mul(c, _inverse(ring, prod)))
    return ring._normal(acc)


def variable_certificate(rec: Recurrence, seed, horizon: int = 64) -> UnitCertificate:
    """Run the alpha recursion from a seed window of k units.

    Every produced alpha_n must be a unit and, when g reads its argument,
    the b-side sum must vanish at every step; the first violation raises
    CertificateFailure with the step index.

    The certificate is upgraded to proved-periodic when the k-window recurs
    at a position p that is a multiple of the coefficient period. The
    identities of the wrapped (purely periodic) sequence then hold for all n,
    including the early indices n < k whose conditions reach alpha at
    negative indices: on an exact ring the run from p repeats the run from 0
    (same window, same coefficients), so each wrapped identity is the forward
    identity at some n' = n (mod p) with k <= n' <= horizon, already checked.
    On a float ring the window only recurs within tolerance, so the wrapped
    sequence is re-verified over one full common period.
    """
    k = rec.k
    if k < 1:
        raise ParseError("certificates apply to recurrences of order >= 2")
    ring = rec.ring
    seed_els = [ring.el(s) for s in seed]
    if len(seed_els) != k:
        raise CertificateFailure(
            f"seed must supply {k} value(s) alpha_0..alpha_{k - 1}, got {len(seed_els)}")
    for idx, s in enumerate(seed_els):
        if not s.is_unit:
            raise CertificateFailure(f"seed value alpha_{idx} = {s} is not a unit", n=idx)
    if horizon < k + 1:
        raise ParseError(f"horizon must be at least {k + 1}")

    need_esb = rec.g.uses_argument
    eq, zero, fmt, oversize = ring._eq, ring.zero.v, ring.fmt, ring._oversize
    alphas = [s.v for s in seed_els]

    def alpha_hist(m: int):
        if m < 0:
            raise CertificateFailure(
                "alpha recursion reached an index before the seed window", n=m)
        return alphas[m]

    notes = []
    if not need_esb:
        notes.append("map ignores its argument; b-side condition is vacuous")

    for n in range(k, horizon + 1):
        if need_esb:
            val = _row_sum(ring, rec.b, alpha_hist, n)
            if not eq(val, zero):
                raise CertificateFailure(
                    f"b-side sum is {fmt(val)}, not 0, with alpha window "
                    f"{[fmt(alphas[n - i]) for i in range(1, k + 1)]}", n=n)
        nxt = _row_sum(ring, rec.a, alpha_hist, n)
        if oversize is not None and oversize(nxt):
            raise ConfigError(f"alpha_{n} exceeds the size limit of {MAX_PAYLOAD_BITS} "
                              "bits per numerator or denominator")
        if ring._inv(nxt) is None:
            raise CertificateFailure(f"alpha_{n} = {fmt(nxt)} is not a unit", n=n)
        alphas.append(nxt)

    coeff_period = rec.coeff_period
    period = None
    for p in range(coeff_period, len(alphas) - k + 1, coeff_period):
        if all(eq(alphas[p + i], alphas[i]) for i in range(k)):
            period = p
            break

    if period is not None and not ring.exact:
        wrapped = CoeffSeq([El(ring, a) for a in alphas[:period]]).payload_at
        for n in range(math.lcm(period, coeff_period)):
            if not eq(wrapped(n), _row_sum(ring, rec.a, wrapped, n)):
                side = "a"
            elif need_esb and not eq(_row_sum(ring, rec.b, wrapped, n), zero):
                side = "b"
            else:
                continue
            notes.append(
                f"window recurs at {period} but the wrapped {side}-side identity fails "
                f"at n={n}; certificate stays horizon-bounded")
            period = None
            break
    status = "horizon-bounded" if period is None else "proved-periodic"
    return UnitCertificate(tuple(seed_els), tuple(El(ring, a) for a in alphas), status,
                           horizon, period, horizon, notes)


def build_variable_factor(rec: Recurrence, cert: UnitCertificate) -> FactorStep:
    """Materialize the order-k factor from a proved-periodic certificate."""
    if not cert.proved_periodic:
        raise CertificateNotPeriodic(
            "factor construction requires a proved-periodic certificate "
            f"(status is {cert.status!r})")
    ring = rec.ring
    k = rec.k
    alpha = cert.alpha_seq()
    span = _span(alpha.period, rec.coeff_period)
    add, mul, neg, normal = ring._lazy_add, ring._lazy_mul, ring._neg, ring._normal

    new_a: list[CoeffSeq] = []
    new_b: list[CoeffSeq] = []
    for ip in range(k):
        avals = []
        bvals = []
        for n in range(span):
            acc_a = acc_b = ring.zero.v
            prod = None
            for j in range(ip + 1, k + 1):
                # gamma_{ip+1, j}(n) = alpha_{n-ip-1} * ... * alpha_{n-j}
                a = alpha.payload_at(n - j)
                prod = a if prod is None else mul(prod, a)
                inv = _inverse(ring, prod)
                acc_a = add(acc_a, mul(rec.a[j].payload_at(n), inv))
                acc_b = add(acc_b, mul(rec.b[j].payload_at(n), inv))
            avals.append(El(ring, normal(neg(acc_a))))
            bvals.append(El(ring, normal(neg(acc_b))))
        new_a.append(CoeffSeq(avals).reduced())
        new_b.append(CoeffSeq(bvals).reduced())

    factor = Recurrence(rec.module, new_a, new_b, rec.g)
    return FactorStep(route="certificate", alpha=alpha, factor=factor, certificate=cert)


def second_order_shortcut(rec: Recurrence) -> FactorStep:
    """Closed-form reduction for order-2 recurrences with unit b rows.

    When b_0(n) and b_1(n) are units for all n, the b-side condition pins
    alpha_n = -b_0(n+1)^(-1) b_1(n+1), so no seed search is needed; the
    a-side identity becomes the single closed condition

        a_0(n) - a_1(n) b_1(n)^(-1) b_0(n) + b_0(n+1)^(-1) b_1(n+1) = 0.

    The step is built through the shared certificate machinery, so failures
    surface as CertificateFailure and the factor agrees with the general
    construction by construction.
    """
    if rec.order != 2:
        raise ParseError("the shortcut applies to second-order recurrences only")
    if not rec.g.uses_argument:
        raise ParseError("the shortcut needs a map that reads its argument")
    period = _span(rec.coeff_period)
    for n in range(period):
        for row, name in ((rec.b[0], "b_0"), (rec.b[1], "b_1")):
            if not row.at(n).is_unit:
                raise CertificateFailure(f"{name}({n}) = {row.at(n)} is not a unit", n=n)
    alpha_vals = [-(rec.b[0].at(n + 1).inverse() * rec.b[1].at(n + 1)) for n in range(period)]
    alpha = CoeffSeq(alpha_vals).reduced()
    span = math.lcm(alpha.period, rec.coeff_period)
    ring, alpha_at = rec.ring, alpha.payload_at
    for n in range(span):
        if not ring._eq(alpha_at(n), _row_sum(ring, rec.a, alpha_at, n)):
            diff = rec.a[0].at(n) - rec.a[1].at(n) * rec.b[1].at(n).inverse() * rec.b[0].at(n) \
                + rec.b[0].at(n + 1).inverse() * rec.b[1].at(n + 1)
            raise CertificateFailure(
                f"second-order closed condition fails: residual {diff}", n=n)
        if not ring._eq(_row_sum(ring, rec.b, alpha_at, n), ring.zero.v):
            raise CertificateFailure("b-side condition fails for the forced alpha", n=n)
    cert = UnitCertificate(
        seed=(alpha.at(0),),
        alphas=alpha.values,
        status="proved-periodic",
        horizon=span,
        period=alpha.period,
        checked_upto=span,
        notes=["alpha forced by the unit b row (no seed search)"],
    )
    step = build_variable_factor(rec, cert)
    return FactorStep(route="shortcut", alpha=step.alpha, factor=step.factor,
                      certificate=cert)


def variable_chain(rec: Recurrence, seeds=None, horizon: int = 64) -> FactorizationChain:
    """Chain of certificate-based reductions.

    At each level: order-2 recurrences with unit b rows use the closed-form
    shortcut; otherwise the next seed window from ``seeds`` drives the
    recursion. The chain stops (keeping what it has) when neither route
    applies; a CertificateFailure on an explicit seed propagates, since the
    caller asked for that specific route.
    """
    seeds = list(seeds or [])
    steps: list[FactorStep] = []
    notes: list[str] = []
    current = rec
    while current.order > 1:
        step = None
        if current.order == 2 and current.g.uses_argument:
            try:
                step = second_order_shortcut(current)
            except CertificateFailure as exc:
                if not seeds:
                    notes.append(f"stopped at order {current.order}: {exc}")
                    break
        if step is None:
            if not seeds:
                if current.order != 2:
                    notes.append(
                        f"stopped at order {current.order}: no seed window provided")
                break
            seed = seeds.pop(0)
            cert = variable_certificate(current, seed, horizon)
            if not cert.proved_periodic:
                raise CertificateNotPeriodic(
                    f"certificate from seed {[str(s) for s in cert.seed]} stayed "
                    f"horizon-bounded at horizon {cert.horizon}; cannot build the factor")
            step = build_variable_factor(current, cert)
        steps.append(step)
        current = step.factor
    if not steps:
        raise Irreducible("no reduction step could be constructed via certificates")
    return FactorizationChain(rec, steps, notes)


# ---------------------------------------------------------------------------
# family-specific routes


@dataclass
class SubstitutionFactorization:
    """Direct split for the alsp family.

    s_n = x_n - sum_{j=1..k} a_{j-1} x_{n-j} satisfies the first-order factor
    s_{n+1} = g_n(b s_n), and x is recovered by the order-k linear cofactor
    x_{n+1} = sum_{j=1..k} a_{j-1} x_{n+1-j} + s_{n+1}.
    """

    base: Recurrence
    sub_coeffs: tuple[El, ...]
    b: El
    factor: Recurrence

    @property
    def k(self) -> int:
        return len(self.sub_coeffs)

    def describe(self) -> str:
        terms = []
        for j, c in enumerate(self.sub_coeffs, start=1):
            if c.is_zero:
                continue
            xs = f"x[n-{j}]"
            terms.append(xs if c == c.ring.one else f"{c}*{xs}")
        sub = " - ".join(["x[n]"] + terms) if terms else "x[n]"
        return f"s[n] = {sub}; s[n+1] = g[n]({self.b}*s[n]) when b != 1 else g[n](s[n])"


def substitution_factorization(fam) -> SubstitutionFactorization:
    """Build the direct substitution split from an alsp FamilyInfo."""
    if fam.kind != "alsp":
        raise ParseError("the substitution route applies to the alsp family")
    rec = fam.recurrence
    a_list = fam.params["a"]
    b = fam.params["b"]
    module = rec.module
    factor = Recurrence(module, [module.ring.zero], [b], rec.g)
    return SubstitutionFactorization(rec, tuple(a_list), b, factor)


@dataclass
class O2bVerdict:
    reducible: bool
    b: El
    b_is_unit: bool
    p_at_b: El
    q_at_b: El
    reason: str


def o2b_reducibility(fam) -> O2bVerdict:
    """Decide reducibility of an o2b family instance.

    The binomial b-row makes b a root of Q automatically, so the whole
    question is whether b is a unit and P(b) = 0.
    """
    if fam.kind != "o2b":
        raise ParseError("this verdict applies to the o2b family")
    rec = fam.recurrence
    b = fam.params["b"]
    P, Q = rec.char_pair()
    qb = Q(b)
    pb = P(b)
    if not b.is_unit:
        return O2bVerdict(False, b, False, pb, qb, f"b = {b} is not a unit")
    if not pb.is_zero:
        return O2bVerdict(False, b, True, pb, qb, f"P(b) = {pb} is nonzero")
    return O2bVerdict(True, b, True, pb, qb, "b is a unit and a root of P (and of Q by shape)")
