"""Reducibility analysis and triangular factorization of recurrences.

A reduction step replaces the order-(k+1) recurrence in x by an order-k
recurrence in t (the factor) plus the first-order cofactor

    x_{n+1} = alpha_n x_n + t_{n+1},   t_{n+1} = x_{n+1} - alpha_n x_n,

where every alpha_n is a unit. One forward recursion on the alphas builds
the factor on every route (_factor_rows): for each phase n, with i = 0..k,

    a'_i(n) = a'_{i-1}(n) alpha_{n-i} + a_i(n),   a'_{-1} = -1
    b'_i(n) = b'_{i-1}(n) alpha_{n-i} + b_i(n),   b'_{-1} = 0

and t_{n+1} = sum_{i<k} a'_i(n) t_{n-i} + g_n(sum_{i<k} b'_i(n) t_{n-i}).
alpha multiplies from the right, which keeps the recursion valid over H.
The last row (a'_k, b'_k) is what the split leaves over: a'_k must vanish,
and b'_k too when g reads its argument. The alphas come from one of two
routes:

* constant coefficients over a commutative ring: alpha_n = rho, a common
  unit root of the characteristic pair (P, Q). The rows are the Horner rows
  of P / (x - rho) and Q / (x - rho), and the last row is (-P(rho), Q(rho)).
* general coefficients (periodic, possibly noncommutative ring): alpha_n is
  produced by the forward recursion

      alpha_n = sum_i a_i(n) (alpha_{n-1} ... alpha_{n-i})^(-1)

  with the side condition sum_i b_i(n) (alpha_{n-1} ... alpha_{n-i})^(-1) = 0
  whenever g reads its argument (ESa and ESb; the last row is zero at n
  exactly when both hold there). A certificate records the run; once the
  alpha window recurs at a multiple of the coefficient period, the sequence
  is pure-periodic and the rows are well defined periodic sequences.

factor_chain is the one driver. Its level routes are data, the ordered tuple
_ROUTES = (_constant_root, _shortcut, _seed_window): each takes the level and
the job state and returns a FactorStep, None when it does not apply, or the
note that ends the chain. Each level takes the first answer that is not None.

Every value is a payload. The alpha recursion and the factor rows compute
with the ring's lazy operations (rings: _lazy_add, _lazy_mul, _normal), as
generated code does, and bring each alpha and each factor coefficient to its
canonical payload once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    CertificateFailure,
    CertificateNotPeriodic,
    ConfigError,
    Irreducible,
    NoncommutativeRing,
    NotAValidRoot,
    ParseError,
)
from .poly import RootReport, is_root, unit_roots, verified_roots
from .recurrence import CoeffSeq, Recurrence
from .rings import MAX_PAYLOAD_BITS, IntegersMod, Ring

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
    """A verified run of the alpha recursion over ``ring``; seed and alphas
    are payloads.

    status is "proved-periodic" (period set: the wrapped alpha sequence
    satisfies esa/esb for every n, see variable_certificate) or
    "horizon-bounded" (recursion ran clean to the horizon but no period was
    established).
    """

    ring: Ring
    seed: tuple
    alphas: tuple
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
                f"certificate from seed {list(map(self.ring.fmt, self.seed))} stayed "
                f"horizon-bounded at horizon {self.horizon}; cannot build the factor")
        return CoeffSeq(self.ring, self.alphas[: self.period]).reduced()


@dataclass
class FactorStep:
    """One order reduction: cofactor data plus the factor recurrence; rho, p
    and q are payloads."""

    route: str                      # "constant-root" | "certificate" | "shortcut"
    alpha: CoeffSeq
    factor: Recurrence
    rho: object = None              # constant route only
    p: tuple | None = None
    q: tuple | None = None
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
# the factor rows


def _factor_rows(rec: Recurrence, alphas: tuple, span: int) -> tuple[list, list]:
    """The rows a'_0..a'_k and b'_0..b'_k of the module docstring over the
    phases 0..span-1, each a list of payloads; alphas is one period of the
    alpha sequence, alpha_m = alphas[m % len(alphas)].

    Each value is computed with the lazy operations and normalized once.
    Rows i < k are the factor's. For a constant alpha = rho the last row is
    (-P(rho), Q(rho)), over H the right evaluations.
    """
    ring = rec.ring
    add, mul, normal = ring._lazy_add, ring._lazy_mul, ring._normal
    period, neg_one = len(alphas), ring._neg(ring.one)
    a_rows, b_rows = [[] for _ in rec.a], [[] for _ in rec.b]
    for n in range(span):
        a, b = neg_one, ring.zero
        for i, (a_seq, b_seq, a_row, b_row) in enumerate(zip(rec.a, rec.b, a_rows, b_rows)):
            alpha = alphas[(n - i) % period]
            a = normal(add(mul(a, alpha), a_seq.at(n)))
            b = normal(add(mul(b, alpha), b_seq.at(n)))
            a_row.append(a)
            b_row.append(b)
    return a_rows, b_rows


# ---------------------------------------------------------------------------
# constant-coefficient route


def factor_once(rec: Recurrence, rho, report: RootReport | None = None) -> FactorStep:
    """One reduction step at a common unit root of the characteristic pair.

    rho is anything ring.payload accepts. Validates it (a unit that
    annihilates P, and Q unless Q = 0) by the last row of _factor_rows at
    alpha = rho, whose other rows are the coefficients of P / (x - rho) and
    Q / (x - rho).
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
    r = ring.payload(rho)
    P, Q = rec.char_pair()
    if ring._inv(r) is None:
        raise NotAValidRoot(f"{ring.fmt(r)} is not a unit in {ring}")
    (*a_rows, a_k), (*b_rows, b_k) = _factor_rows(rec, (r,), 1)
    if not is_root(P, r, ring._neg(a_k[0])):
        raise NotAValidRoot(f"{ring.fmt(r)} is not a root of P = {P.fmt()}")
    if not Q.is_zero and not is_root(Q, r, b_k[0]):
        raise NotAValidRoot(f"{ring.fmt(r)} is not a root of Q = {Q.fmt()}")

    return FactorStep(
        route="constant-root",
        alpha=CoeffSeq.constant(ring, r),
        factor=Recurrence(rec.module, [CoeffSeq(ring, c) for c in a_rows],
                          [CoeffSeq(ring, c) for c in b_rows], rec.g),
        rho=r,
        p=tuple(ring._neg(c[0]) for c in a_rows),
        q=tuple(c[0] for c in b_rows),
        root_report=report,
    )


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
    add, mul, eq, zero = ring._lazy_add, ring._lazy_mul, ring._eq, ring.zero
    acc, *coeffs = [seq.at(n) for seq in row]
    while ring.exact and coeffs and eq(coeffs[-1], zero):
        coeffs.pop()
    prod = None
    for i, c in enumerate(coeffs, start=1):
        prod = alpha_at(n - i) if prod is None else mul(prod, alpha_at(n - i))
        acc = add(acc, mul(c, ring.inverse(prod)))
    return ring._normal(acc)


def variable_certificate(rec: Recurrence, seed, horizon: int = 64) -> UnitCertificate:
    """Run the alpha recursion from a seed window of k units (anything
    ring.payload accepts).

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
    eq, zero, fmt, oversize = ring._eq, ring.zero, ring.fmt, ring._oversize
    seed = tuple(ring.payload(s) for s in seed)
    if len(seed) != k:
        raise CertificateFailure(
            f"seed must supply {k} value(s) alpha_0..alpha_{k - 1}, got {len(seed)}")
    for idx, s in enumerate(seed):
        if ring._inv(s) is None:
            raise CertificateFailure(f"seed value alpha_{idx} = {fmt(s)} is not a unit", n=idx)
    if horizon < k + 1:
        raise ParseError(f"horizon must be at least {k + 1}")

    need_esb = rec.g.uses_argument
    alphas = list(seed)

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
        wrapped = CoeffSeq(ring, alphas[:period]).at
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
    return UnitCertificate(ring, seed, tuple(alphas), status, horizon, period, horizon, notes)


def build_variable_factor(rec: Recurrence, cert: UnitCertificate) -> FactorStep:
    """Materialize the order-k factor from a proved-periodic certificate:
    the rows of _factor_rows over the common period of the alphas and the
    coefficients. A horizon-bounded one raises CertificateNotPeriodic."""
    ring = rec.ring
    alpha = cert.alpha_seq()
    a_rows, b_rows = _factor_rows(rec, alpha.values, _span(alpha.period, rec.coeff_period))
    factor = Recurrence(rec.module, [CoeffSeq(ring, c).reduced() for c in a_rows[:-1]],
                        [CoeffSeq(ring, c).reduced() for c in b_rows[:-1]], rec.g)
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
    ring = rec.ring
    add, neg, mul, fmt = ring._add, ring._neg, ring._mul, ring.fmt
    a0, a1 = rec.a[0].at, rec.a[1].at
    b0, b1 = rec.b[0].at, rec.b[1].at
    period = _span(rec.coeff_period)
    for n in range(period):
        for row, name in ((b0, "b_0"), (b1, "b_1")):
            if ring._inv(row(n)) is None:
                raise CertificateFailure(f"{name}({n}) = {fmt(row(n))} is not a unit", n=n)
    inverse = ring.inverse
    alpha = CoeffSeq(ring, [neg(mul(inverse(b0(n + 1)), b1(n + 1)))
                            for n in range(period)]).reduced()
    span = math.lcm(alpha.period, rec.coeff_period)
    alpha_at = alpha.at
    for n in range(span):
        if not ring._eq(alpha_at(n), _row_sum(ring, rec.a, alpha_at, n)):
            diff = add(add(a0(n), neg(mul(mul(a1(n), inverse(b1(n))), b0(n)))),
                       mul(inverse(b0(n + 1)), b1(n + 1)))
            raise CertificateFailure(
                f"second-order closed condition fails: residual {fmt(diff)}", n=n)
        if not ring._eq(_row_sum(ring, rec.b, alpha_at, n), ring.zero):
            raise CertificateFailure("b-side condition fails for the forced alpha", n=n)
    cert = UnitCertificate(
        ring=ring,
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


# ---------------------------------------------------------------------------
# the chain


@dataclass
class _Job:
    """The job state the routes share; roots is None when each level searches."""

    roots: list | None
    seeds: list | None
    horizon: int
    steps: list[FactorStep] = field(default_factory=list)
    report: RootReport | None = None


def _constant_root(level: Recurrence, job: _Job):
    """A common unit root of (P, Q), with no seeds and constant coefficients
    over a commutative ring: the next supplied root, else the first of the
    report one level up deflated by its root (exact rings), else of a fresh
    search. Over a composite modulus it refuses a second step."""
    ring = level.ring
    if job.seeds is not None or not ring.commutative or not level.constant_coeffs:
        return None
    if job.steps and isinstance(ring, IntegersMod) and not ring.is_prime:
        return (f"{ring} has a composite modulus: stopped after one reduction "
                "(repeated deflation needs an integral domain)")
    if job.roots is not None:
        if not job.roots:
            return ""
        report = verified_roots(*level.char_pair(), [job.roots.pop(0)])
    elif job.report is not None and job.report.gcd is not None:
        report = job.report.deflated(job.steps[-1].rho)
    else:
        report = unit_roots(*level.char_pair())
    job.report = report
    if report.found:
        return factor_once(level, report.roots[0][0], report)
    if job.steps:
        return f"stopped at order {level.order}: {report.describe()}"
    P, Q = level.char_pair()
    raise Irreducible(f"no common unit root of P = {P.fmt()} and Q = {Q.fmt()}; "
                      f"{report.describe()}", report)


def _shortcut(level: Recurrence, job: _Job):
    """The order-2 closed form, when the map reads its argument; a failure
    passes the level on while seed windows remain."""
    if level.order != 2 or not level.g.uses_argument:
        return None
    try:
        return second_order_shortcut(level)
    except CertificateFailure as exc:
        return None if job.seeds else f"stopped at order {level.order}: {exc}"


def _seed_window(level: Recurrence, job: _Job):
    """The certificate from the next seed window, run to the horizon."""
    if job.seeds:
        return build_variable_factor(
            level, variable_certificate(level, job.seeds.pop(0), job.horizon))
    return "" if level.order == 2 else f"stopped at order {level.order}: no seed window provided"


_ROUTES = (_constant_root, _shortcut, _seed_window)


def factor_chain(rec: Recurrence, roots: list | None = None, seeds=None,
                 horizon: int = 64) -> FactorizationChain:
    """Reduce level by level along _ROUTES. Each route takes (level, job
    state) and returns a FactorStep, None when it does not apply, or the
    note that ends the chain ("" for a silent stop); each level takes the
    first answer that is not None, so a refused level ends the chain.
    Seeds, even none, turn the constant route off. With no step at all it
    raises Irreducible (with the root report, from the constant route).
    """
    job = _Job(list(roots) if roots else None, None if seeds is None else list(seeds), horizon)
    level, note = rec, ""
    while level.order > 1:
        answer = next(a for a in (route(level, job) for route in _ROUTES) if a is not None)
        if not isinstance(answer, FactorStep):
            note = answer
            break
        job.steps.append(answer)
        level = answer.factor
    # a first-order base is its own complete chain on every route
    if not job.steps and rec.order > 1:
        raise Irreducible("no reduction step could be constructed via certificates")
    return FactorizationChain(rec, job.steps, [note] if note else [])


def linear_complete(rec: Recurrence, roots: list | None = None) -> FactorizationChain:
    """factor_chain for maps that never mix nonlinearly with the state: zero,
    constant-sequence (plain non-homogeneous linear) or linear-scale."""
    if rec.g.kind not in ("zero", "constant-sequence", "linear-scale"):
        raise ParseError(
            "linear_complete applies to forcing-only or linear-scale maps, "
            f"got a {rec.g.kind} map")
    return factor_chain(rec, roots=roots)


def variable_chain(rec: Recurrence, seeds=None, horizon: int = 64) -> FactorizationChain:
    """factor_chain on the certificate routes at every level."""
    return factor_chain(rec, seeds=list(seeds or []), horizon=horizon)


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
    sub_coeffs: tuple               # payloads, as b
    b: object
    factor: Recurrence

    @property
    def k(self) -> int:
        return len(self.sub_coeffs)


def substitution_factorization(fam) -> SubstitutionFactorization:
    """Build the direct substitution split from an alsp FamilyInfo."""
    if fam.kind != "alsp":
        raise ParseError("the substitution route applies to the alsp family")
    rec = fam.recurrence
    a_list = fam.params["a"]
    b = fam.params["b"]
    ring = rec.ring
    factor = Recurrence(rec.module, [CoeffSeq.constant(ring, ring.zero)],
                        [CoeffSeq.constant(ring, b)], rec.g)
    return SubstitutionFactorization(rec, tuple(a_list), b, factor)


@dataclass
class O2bVerdict:
    """The o2b decision over ``ring``; b, p_at_b and q_at_b are payloads."""

    ring: Ring
    reducible: bool
    b: object
    b_is_unit: bool
    p_at_b: object
    q_at_b: object
    reason: str


def o2b_reducibility(fam) -> O2bVerdict:
    """Decide reducibility of an o2b family instance.

    The binomial b-row makes b a root of Q automatically, so the whole
    question is whether b is a unit and P(b) = 0.
    """
    if fam.kind != "o2b":
        raise ParseError("this verdict applies to the o2b family")
    rec = fam.recurrence
    ring, b = rec.ring, fam.params["b"]
    P, Q = rec.char_pair()
    qb = Q(b)
    pb = P(b)
    if ring._inv(b) is None:
        return O2bVerdict(ring, False, b, False, pb, qb, f"b = {ring.fmt(b)} is not a unit")
    if not ring._eq(pb, ring.zero):
        return O2bVerdict(ring, False, b, True, pb, qb, f"P(b) = {ring.fmt(pb)} is nonzero")
    return O2bVerdict(ring, True, b, True, pb, qb,
                      "b is a unit and a root of P (and of Q by shape)")
