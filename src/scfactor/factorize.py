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
The last row (a'_k, b'_k) is what the split leaves over: a'_k(n) vanishes
exactly when alpha_n = sum_i a_i(n) (alpha_{n-1} ... alpha_{n-i})^(-1) (ESa),
and b'_k(n), which must vanish too when g reads its argument, exactly when
sum_i b_i(n) (alpha_{n-1} ... alpha_{n-i})^(-1) = 0 (ESb). A route only
proposes a periodic alpha. One builder, _step, computes the rows once over
the common period, judges the last row (poly._vanishes: zero on exact rings,
small against the same recursion on magnitudes on float rings), and builds
the factor or names the first phase and side where the split fails:

* constant root (factor_once): alpha_n = rho, a common unit root of the
  characteristic pair (P, Q); the rows are the Horner rows of P / (x - rho)
  and Q / (x - rho), the last row (-P(rho), Q(rho)).
* certificate (build_variable_factor): the alphas of the forward recursion
  ESa from a seed window, checked against ESb at every step. On an exact
  ring the run ends where the seed window recurs at a multiple of the
  coefficient period, since it repeats from there: the alphas are periodic.
* shortcut (second_order_shortcut): at order 2, the alpha that ESb forces
  when the b row is a unit.

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
from collections import namedtuple

from .errors import (
    CertificateFailure,
    CertificateNotPeriodic,
    ConfigError,
    Irreducible,
    NoncommutativeRing,
    NotAValidRoot,
    ParseError,
)
from .poly import RootReport, _vanishes, unit_roots, verified_roots
from .recurrence import CoeffSeq, Recurrence
from .rings import MAX_PAYLOAD_BITS, IntegersMod, Ring

# Largest common period (lcm of the coefficient and alpha periods) over which
# a certificate-route factor is built or checked; each n costs a row of ring
# arithmetic, so periods 2 to 17 (lcm 510510) would take over a second.
MAX_COEFF_SPAN = 1 << 16

# Largest certificate horizon: the alpha recursion runs one row of ring
# arithmetic per n up to it, and at 10^5 `certify --json` on a proved-periodic
# quaternion config takes about a second and writes about a megabyte.
MAX_HORIZON = 100000


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


class UnitCertificate(namedtuple("UnitCertificate", "ring seed alphas horizon period notes")):
    """A verified run of the alpha recursion over ``ring``; seed and alphas
    are payloads.

    status follows from period: "proved-periodic" when it is set (the wrapped
    alpha sequence satisfies ESa and ESb for every n, see
    variable_certificate), else "horizon-bounded"; either way the run is
    checked up to n = horizon.
    """

    __slots__ = ()

    def __new__(cls, ring: Ring, seed: tuple, alphas: tuple, horizon: int,
                period: int | None = None, notes: list[str] | None = None):
        return super().__new__(cls, ring, seed, alphas, horizon, period,
                               [] if notes is None else notes)

    @property
    def proved_periodic(self) -> bool:
        return self.period is not None

    @property
    def status(self) -> str:
        return "proved-periodic" if self.proved_periodic else "horizon-bounded"

    @property
    def checked_upto(self) -> int:
        return self.horizon

    def alpha_seq(self) -> CoeffSeq:
        if not self.proved_periodic:
            raise CertificateNotPeriodic(
                f"certificate from seed {list(map(self.ring.fmt, self.seed))} stayed "
                f"horizon-bounded at horizon {self.horizon}; cannot build the factor")
        return CoeffSeq(self.ring, self.alphas[: self.period]).reduced()


class FactorStep:
    """One order reduction: cofactor data plus the factor recurrence; rho is
    a payload."""

    __slots__ = ("route", "alpha", "factor", "rho", "certificate", "root_report")

    def __init__(self, route: str, alpha: CoeffSeq, factor: Recurrence, rho=None,
                 certificate: UnitCertificate | None = None,
                 root_report: RootReport | None = None):
        self.route = route              # "constant-root" | "certificate" | "shortcut"
        self.alpha = alpha
        self.factor = factor
        self.rho = rho                  # constant route only
        self.certificate = certificate
        self.root_report = root_report

    @property
    def p(self) -> tuple | None:
        """Constant route: P / (x - rho) from the top, minus the factor's a row."""
        neg = self.factor.ring._neg
        return None if self.rho is None else tuple(neg(seq.at(0)) for seq in self.factor.a)

    @property
    def q(self) -> tuple | None:
        """Constant route: Q / (x - rho) from the top, the factor's b row."""
        return None if self.rho is None else tuple(seq.at(0) for seq in self.factor.b)


class FactorizationChain:
    """Reduction steps applied to base; final_factor is what remains.

    complete means the residual recurrence is first order, in which case the
    chain presents depth = len(steps) + 1 triangular levels (each step's
    cofactor plus the terminal factor).
    """

    __slots__ = ("base", "steps", "notes")

    def __init__(self, base: Recurrence, steps: list[FactorStep],
                 notes: list[str] | None = None):
        self.base = base
        self.steps = steps
        self.notes = [] if notes is None else notes

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
# the one step builder


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
    period, neg_one = len(alphas), ring.neg_one
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


def _step(level: Recurrence, alpha: CoeffSeq, span: int, **fields):
    """The reduction step of level at the periodic alpha over span, a common
    period of the alphas and the coefficients, from one run of _factor_rows.
    Returns the first (n, side) where the last row does not vanish, side "a"
    before "b" at each phase ("b" only when g reads its argument); else the
    FactorStep with the route's fields."""
    ring, alphas = level.ring, alpha.values
    a_rows, b_rows = _factor_rows(level, alphas, span)
    sides = (("a", a_rows.pop(), level.a, 1.0), ("b", b_rows.pop(), level.b, 0.0))
    for n in range(span):
        for side, last, row, size in sides[:1 + level.g.uses_argument]:
            steps = ((alphas[(n - i) % len(alphas)], seq.at(n)) for i, seq in enumerate(row))
            if not _vanishes(ring, last[n], size, steps):
                return n, side
    factor = Recurrence(level.module, [CoeffSeq(ring, c).reduced() for c in a_rows],
                        [CoeffSeq(ring, c).reduced() for c in b_rows], level.g)
    return FactorStep(alpha=alpha, factor=factor, **fields)


# ---------------------------------------------------------------------------
# constant-coefficient route


def factor_once(rec: Recurrence, rho, report: RootReport | None = None) -> FactorStep:
    """One reduction step at a common unit root of the characteristic pair.

    rho is anything ring.payload accepts and must be a unit. It is proposed
    to _step as the constant alpha, whose last row is (-P(rho), Q(rho)), so
    rho is refused unless it annihilates P, and Q when g reads its argument.
    The other rows are the coefficients of P / (x - rho) and Q / (x - rho).
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
    if ring._inv(r) is None:
        raise NotAValidRoot(f"{ring.fmt(r)} is not a unit in {ring}")
    if isinstance(step := _step(rec, CoeffSeq.constant(ring, r), 1, route="constant-root",
                                rho=r, root_report=report), FactorStep):
        return step
    P, Q = rec.char_pair()
    name, poly = ("P", P) if step[1] == "a" else ("Q", Q)
    raise NotAValidRoot(f"{ring.fmt(r)} is not a root of {name} = {poly.fmt()}")


# ---------------------------------------------------------------------------
# variable-coefficient route


def _row_sums(rec: Recurrence, alpha_at, n: int):
    """(a, b) at phase n on payloads, alpha_at(m) the payload of alpha_m: a is
    the ESa sum, sum_i a_i(n) (alpha_{n-1} .. alpha_{n-i})^(-1), and b the ESb
    sum if ESb fails, else None (also when g ignores its argument). Both rows
    share each inverse, and each sum is normalized once. ESb holds when b_0(n)
    equals minus the rest of its sum by ring._eq, a test relative to the terms
    on float rings. On exact rings the product stops at the last index where
    either row is nonzero.
    """
    ring = rec.ring
    add, mul, eq, zero = ring._lazy_add, ring._lazy_mul, ring._eq, ring.zero
    a = [seq.at(n) for seq in rec.a]
    b = [seq.at(n) for seq in rec.b] if rec.g.uses_argument else None
    k = len(a) - 1
    while ring.exact and k and eq(a[k], zero) and (b is None or eq(b[k], zero)):
        k -= 1
    a_sum, b_rest, prod = a[0], zero, None
    for i in range(1, k + 1):
        prod = alpha_at(n - i) if prod is None else mul(prod, alpha_at(n - i))
        inv = ring.inverse(prod)
        a_sum = add(a_sum, mul(a[i], inv))
        if b is not None:
            b_rest = add(b_rest, mul(b[i], inv))
    if b is not None and not eq(b[0], ring._neg(b_rest := ring._normal(b_rest))):
        return ring._normal(a_sum), ring._add(b[0], b_rest)
    return ring._normal(a_sum), None


def _wrapped_failure(rec: Recurrence, alpha_at, span: int):
    """The first (n, side) with n < span where the periodic alpha sequence
    alpha_at fails ESa (side "a") or ESb (side "b"); None when none does."""
    eq = rec.ring._eq
    for n in range(span):
        a_sum, b_sum = _row_sums(rec, alpha_at, n)
        if not eq(alpha_at(n), a_sum):
            return n, "a"
        if b_sum is not None:
            return n, "b"
    return None


def variable_certificate(rec: Recurrence, seed, horizon: int = 64) -> UnitCertificate:
    """Run the alpha recursion from a seed window of k units (anything
    ring.payload accepts).

    Every produced alpha_n must be a unit and, when g reads its argument,
    ESb must hold at every step; the first violation raises
    CertificateFailure with the step index.

    The period is the first p = n + 1 - k, a multiple of the coefficient
    period, where the window alpha_p .. alpha_n is the seed window. On an
    exact ring the run from p then repeats the run from 0 (same window, same
    coefficients): every later alpha is alpha_{m mod p} and every later
    identity one already checked, so the loop stops there, and the wrapped
    sequence satisfies ESa and ESb for all n, even n < k. On a float ring the
    window recurs only within tolerance, so the run goes on to the horizon
    and the wrapped sequence is re-verified over one period.
    """
    k = rec.k
    if k < 1:
        raise ParseError("certificates apply to recurrences of order >= 2")
    ring = rec.ring
    eq, fmt, oversize = ring._eq, ring.fmt, ring._oversize
    seed = tuple(ring.payload(s) for s in seed)
    if len(seed) != k:
        raise CertificateFailure(
            f"seed must supply {k} value(s) alpha_0..alpha_{k - 1}, got {len(seed)}")
    for idx, s in enumerate(seed):
        if ring._inv(s) is None:
            raise CertificateFailure(f"seed value alpha_{idx} = {fmt(s)} is not a unit", n=idx)
    if horizon < k + 1:
        raise ParseError(f"horizon must be at least {k + 1}")
    if horizon > MAX_HORIZON:
        raise ConfigError(f"horizon {horizon} exceeds the limit of {MAX_HORIZON}")

    notes = [] if rec.g.uses_argument else [
        "map ignores its argument; b-side condition is vacuous"]
    coeff_period, alphas, period = rec.coeff_period, list(seed), None
    for n in range(k, horizon + 1):
        nxt, b_sum = _row_sums(rec, alphas.__getitem__, n)
        if b_sum is not None:
            raise CertificateFailure(
                f"b-side sum is {fmt(b_sum)}, not 0, with alpha window "
                f"{[fmt(alphas[n - i]) for i in range(1, k + 1)]}", n=n)
        if oversize is not None and oversize(nxt):
            raise ConfigError(f"alpha_{n} exceeds the size limit of {MAX_PAYLOAD_BITS} "
                              "bits per numerator or denominator")
        if ring._inv(nxt) is None:
            raise CertificateFailure(f"alpha_{n} = {fmt(nxt)} is not a unit", n=n)
        alphas.append(nxt)
        p = n + 1 - k
        if period is None and p % coeff_period == 0 and all(map(eq, alphas[p:], seed)):
            period = p
            if ring.exact:
                alphas += [alphas[m % p] for m in range(n + 1, horizon + 1)]
                break

    if period is not None and not ring.exact and \
            (failure := _wrapped_failure(rec, CoeffSeq(ring, alphas[:period]).at, period)):
        notes.append(f"window recurs at {period} but the wrapped {failure[1]}-side identity "
                     f"fails at n={failure[0]}; certificate stays horizon-bounded")
        period = None
    return UnitCertificate(ring, seed, tuple(alphas), horizon, period, notes)


def build_variable_factor(rec: Recurrence, cert: UnitCertificate,
                          route: str = "certificate") -> FactorStep:
    """The step of _step at the alphas of a proved-periodic certificate,
    labelled route. A horizon-bounded certificate raises
    CertificateNotPeriodic, and alphas that do not split rec (which the proof
    rules out on exact rings) CertificateFailure with the phase and side."""
    alpha = cert.alpha_seq()
    if isinstance(step := _step(rec, alpha, _span(alpha.period, rec.coeff_period), route=route,
                                certificate=cert), FactorStep):
        return step
    n, side = step
    raise CertificateFailure(f"the {side}-side identity fails for the certified alpha",
                             n=n, side=side)


def second_order_shortcut(rec: Recurrence) -> FactorStep:
    """Closed-form reduction for order-2 recurrences with unit b rows.

    When b_0(n) and b_1(n) are units for all n, the b-side condition pins
    alpha_n = -b_0(n+1)^(-1) b_1(n+1), so no seed search is needed; the
    a-side identity becomes the single closed condition

        a_0(n) - a_1(n) b_1(n)^(-1) b_0(n) + b_0(n+1)^(-1) b_1(n+1) = 0.

    The forced alpha goes through build_variable_factor like a certificate's,
    so the factor agrees with the general construction by construction; a
    phase where it does not split rec is reported as the failure of that
    closed condition (side a) or of the b-side condition.
    """
    if rec.order != 2:
        raise ParseError("the shortcut applies to second-order recurrences only")
    if not rec.g.uses_argument:
        raise ParseError("the shortcut needs a map that reads its argument")
    ring = rec.ring
    add, neg, mul, inverse, fmt = ring._add, ring._neg, ring._mul, ring.inverse, ring.fmt
    a0, a1 = rec.a[0].at, rec.a[1].at
    b0, b1 = rec.b[0].at, rec.b[1].at
    period = _span(rec.coeff_period)
    for n in range(period):
        for row, name in ((b0, "b_0"), (b1, "b_1")):
            if ring._inv(row(n)) is None:
                raise CertificateFailure(f"{name}({n}) = {fmt(row(n))} is not a unit", n=n)
    alpha = CoeffSeq(ring, [neg(mul(inverse(b0(n + 1)), b1(n + 1)))
                            for n in range(period)]).reduced()
    cert = UnitCertificate(ring=ring, seed=(alpha.at(0),), alphas=alpha.values, horizon=period,
                           period=alpha.period,
                           notes=["alpha forced by the unit b row (no seed search)"])
    try:
        return build_variable_factor(rec, cert, route="shortcut")
    except CertificateFailure as exc:
        n = exc.n
        if exc.side == "b":
            raise CertificateFailure("b-side condition fails for the forced alpha", n=n) from None
        diff = add(add(a0(n), neg(mul(mul(a1(n), inverse(b1(n))), b0(n)))),
                   mul(inverse(b0(n + 1)), b1(n + 1)))
        raise CertificateFailure(
            f"second-order closed condition fails: residual {fmt(diff)}", n=n) from None


# ---------------------------------------------------------------------------
# the chain


class _Job:
    """The job state the routes share; roots is None when each level searches."""

    __slots__ = ("roots", "seeds", "horizon", "steps", "report")

    def __init__(self, roots: list | None, seeds: list | None, horizon: int,
                 steps: list[FactorStep] | None = None, report: RootReport | None = None):
        self.roots = roots
        self.seeds = seeds
        self.horizon = horizon
        self.steps = [] if steps is None else steps
        self.report = report


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
    """The certificate from the next seed window, run to the horizon; with
    no window left, the note that says so."""
    if job.seeds:
        return build_variable_factor(
            level, variable_certificate(level, job.seeds.pop(0), job.horizon))
    return f"stopped at order {level.order}: no seed window provided"


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


class SubstitutionFactorization:
    """Direct split for the alsp family.

    s_n = x_n - sum_{j=1..k} a_{j-1} x_{n-j} satisfies the first-order factor
    s_{n+1} = g_n(b s_n), and x is recovered by the order-k linear cofactor
    x_{n+1} = sum_{j=1..k} a_{j-1} x_{n+1-j} + s_{n+1}.
    """

    __slots__ = ("base", "sub_coeffs", "b", "factor")

    def __init__(self, base: Recurrence, sub_coeffs: tuple, b, factor: Recurrence):
        self.base = base
        self.sub_coeffs = sub_coeffs    # payloads, as b
        self.b = b
        self.factor = factor

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


class O2bVerdict:
    """The o2b decision over ``ring``; b, p_at_b and q_at_b are payloads."""

    __slots__ = ("ring", "reducible", "b", "b_is_unit", "p_at_b", "q_at_b", "reason")

    def __init__(self, ring: Ring, reducible: bool, b, b_is_unit: bool, p_at_b, q_at_b,
                 reason: str):
        self.ring = ring
        self.reducible = reducible
        self.b = b
        self.b_is_unit = b_is_unit
        self.p_at_b = p_at_b
        self.q_at_b = q_at_b
        self.reason = reason


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
