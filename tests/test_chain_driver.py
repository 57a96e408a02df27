"""factor_chain, the one chain driver, against the dispatch it replaced.

The reference below is the chain code as it was before one loop chose the
route at each level: a root-only factor_chain, a certificate-only
variable_chain (with the shortcut computed on El values), and the branch of
cli.resolve_factorization that picked one of them per job. Hypothesis draws
small recurrences over Z/p, composite Z/m, Q, float-complex and H(Q), with
constant or periodic rows, with or without a planted alpha sequence, and
job options (no roots or seeds, supplied roots, one or two seed windows).
The driver must give the same chain report, or raise the same exception
with the same message and root report.

Two intended differences: a linear family over a noncommutative ring
without seeds used to go to the root search, which refused it; it now gets
the certificate routes like any other noncommutative job. And a
first-order recurrence is its own complete chain of depth 1 on every route,
where the certificate routes used to raise Irreducible; the reference
below has that fix.

The tests at the end pin the route contract of factor_chain's _ROUTES:
when each route applies, how it stops, and that the driver itself names no
route or ring kind.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from elements import El, el as element, pmul
from hypothesis import given, settings, strategies as st

from scfactor import (CertificateFailure, CertificateNotPeriodic, GMap, Irreducible, Module,
                      ParseError, Poly, Recurrence, ScfactorError, UnitCertificate,
                      build_variable_factor, factor_chain, factor_once, make_ring, unit_roots,
                      variable_certificate, verified_roots)
from scfactor.cli import _chain_obj, _root_report_obj, canonical_json
from scfactor.factorize import (FactorizationChain, FactorStep, _constant_root, _Job,
                                _row_sum, _seed_window, _shortcut, _span)
from scfactor.recurrence import CoeffSeq
from scfactor.rings import IntegersMod

# ---------------------------------------------------------------------------
# reference: the three drivers and the route branch they replaced


def ref_factor_chain(rec, roots=None):
    ring = rec.ring
    composite = isinstance(ring, IntegersMod) and not ring.is_prime
    supplied = list(roots) if roots else None
    steps, notes = [], []
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


def ref_second_order_shortcut(rec):
    if rec.order != 2:
        raise ParseError("the shortcut applies to second-order recurrences only")
    if not rec.g.uses_argument:
        raise ParseError("the shortcut needs a map that reads its argument")
    ring = rec.ring
    period = _span(rec.coeff_period)

    def at(row, n):
        return El(ring, row.at(n))
    a0, a1, b0, b1 = rec.a[0], rec.a[1], rec.b[0], rec.b[1]
    for n in range(period):
        for row, name in ((b0, "b_0"), (b1, "b_1")):
            if not at(row, n).is_unit:
                raise CertificateFailure(f"{name}({n}) = {at(row, n)} is not a unit", n=n)
    alpha_vals = [(-(at(b0, n + 1).inverse() * at(b1, n + 1))).v for n in range(period)]
    alpha = CoeffSeq(ring, alpha_vals).reduced()
    span = math.lcm(alpha.period, rec.coeff_period)
    alpha_at = alpha.at
    for n in range(span):
        if not ring._eq(alpha_at(n), _row_sum(ring, rec.a, alpha_at, n)):
            diff = at(a0, n) - at(a1, n) * at(b1, n).inverse() * at(b0, n) \
                + at(b0, n + 1).inverse() * at(b1, n + 1)
            raise CertificateFailure(
                f"second-order closed condition fails: residual {diff}", n=n)
        if not ring._eq(_row_sum(ring, rec.b, alpha_at, n), ring.zero):
            raise CertificateFailure("b-side condition fails for the forced alpha", n=n)
    cert = UnitCertificate(ring=ring, seed=(alpha.at(0),), alphas=alpha.values,
                           status="proved-periodic",
                           horizon=span, period=alpha.period, checked_upto=span,
                           notes=["alpha forced by the unit b row (no seed search)"])
    step = build_variable_factor(rec, cert)
    return FactorStep(route="shortcut", alpha=step.alpha, factor=step.factor, certificate=cert)


def ref_variable_chain(rec, seeds=None, horizon=64):
    seeds = list(seeds or [])
    steps, notes = [], []
    current = rec
    while current.order > 1:
        step = None
        if current.order == 2 and current.g.uses_argument:
            try:
                step = ref_second_order_shortcut(current)
            except CertificateFailure as exc:
                if not seeds:
                    notes.append(f"stopped at order {current.order}: {exc}")
                    break
        if step is None:
            if not seeds:
                if current.order != 2:
                    notes.append(f"stopped at order {current.order}: no seed window provided")
                break
            seed = seeds.pop(0)
            cert = variable_certificate(current, seed, horizon)
            if not cert.proved_periodic:
                raise CertificateNotPeriodic(
                    f"certificate from seed {[str(El(rec.ring, s)) for s in cert.seed]} stayed "
                    f"horizon-bounded at horizon {cert.horizon}; cannot build the factor")
            step = build_variable_factor(current, cert)
        steps.append(step)
        current = step.factor
    if not steps and rec.order > 1:
        raise Irreducible("no reduction step could be constructed via certificates")
    return FactorizationChain(rec, steps, notes)


def ref_route(rec, family_kind, roots, seeds, horizon):
    """The chain branch of resolve_factorization; a linear family always has
    a forcing map, which linear_complete accepts."""
    if seeds is not None:
        return ref_variable_chain(rec, seeds=seeds, horizon=horizon)
    if family_kind == "linear":
        return ref_factor_chain(rec, roots=roots)
    if rec.constant_coeffs and rec.ring.commutative:
        return ref_factor_chain(rec, roots=roots)
    return ref_variable_chain(rec, horizon=horizon)


# ---------------------------------------------------------------------------
# the differential check

RINGS = (("integers-mod-m", 5), ("integers-mod-m", 7), ("integers-mod-m", 6),
         ("integers-mod-m", 12), ("exact-rational", None), ("float-complex", None),
         ("rational-quaternion", None))
# map kinds, two expressions, and "linear": the linear family's shape, a
# forcing map over a zero b row
MAPS = ("zero", "constant-sequence", "linear-scale", "u1*u1", "u1 + 1", "linear")


def _value(ring, t):
    a, b, c, d = t
    if ring.kind == "integers-mod-m":
        return element(ring, a)
    if ring.kind == "exact-rational":
        return element(ring, Fraction(a, 1 + abs(b)))
    if ring.kind == "float-complex":
        return element(ring, complex(a / 2, b))
    return element(ring, (a, Fraction(b, 2), c, d))


def _inv_product(alpha, n, i):
    """(alpha_{n-1} alpha_{n-2} .. alpha_{n-i})^(-1), alpha extended periodically."""
    prod = alpha[(n - 1) % len(alpha)]
    for l in range(2, i + 1):
        prod = prod * alpha[(n - l) % len(alpha)]
    return prod.inverse()


def _planted_head(alpha, a_rows, b_rows, period):
    """a_0 and b_0 such that the periodic alpha satisfies both identities:
    alpha_n = sum_i a_i(n) (alpha_{n-1}..alpha_{n-i})^(-1) and
    0 = sum_i b_i(n) (alpha_{n-1}..alpha_{n-i})^(-1)."""
    a0, b0 = [], []
    for n in range(period):
        acc_a, acc_b = alpha[n % len(alpha)], element(alpha[0].ring, 0)
        for i in range(1, len(a_rows)):
            inv = _inv_product(alpha, n, i)
            acc_a = acc_a - a_rows[i][n] * inv
            acc_b = acc_b - b_rows[i][n] * inv
        a0.append(acc_a)
        b0.append(acc_b)
    return a0, b0


@st.composite
def jobs(draw):
    kind, modulus = draw(st.sampled_from(RINGS))
    ring = make_ring(kind, modulus=modulus)
    M = Module(ring, 1)
    small = st.integers(min_value=-2, max_value=2)
    el = st.tuples(small, small, small, small).map(lambda t: _value(ring, t))
    units = el.filter(lambda x: x.is_unit)
    order = draw(st.sampled_from((1, 2, 2, 3, 3, 4)))
    k = order - 1
    period = draw(st.sampled_from((1, 1, 2, 3)))
    shape = draw(st.sampled_from(MAPS))
    linear = shape == "linear"
    if linear:
        period = 1
    seq = st.lists(el, min_size=period, max_size=period)
    a_rows = [draw(seq) for _ in range(order)]
    b_rows = [[element(ring, 0)] * period if linear else draw(seq) for _ in range(order)]
    planted = draw(st.sampled_from((True, True, False)))
    alpha = draw(st.lists(units, min_size=period, max_size=period)) if planted else None
    second = None
    if planted and period == 1 and ring.commutative and order >= 2 and draw(st.booleans()):
        # two planted roots: P = (x - rho)(x - second) C and Q = (x - rho)(x - second) D
        second = draw(units)
        both = pmul(Poly(ring, [(-alpha[0]).v, ring.one]), Poly(ring, [(-second).v, ring.one]))
        P = pmul(both, Poly(ring, [x.v for x in draw(st.lists(el, min_size=k - 1, max_size=k - 1))]
                             + [ring.one]))
        q_cof = [] if linear else [x.v for x in draw(st.lists(el, max_size=k - 1))]
        Q = pmul(both, Poly(ring, q_cof))
        a_rows = [[-El(ring, P.coeff(k - i))] for i in range(order)]
        b_rows = [[El(ring, Q.coeff(k - i))] for i in range(order)]
    elif planted:
        a_rows[0], b_rows[0] = _planted_head(alpha, a_rows, b_rows, period)
    if shape == "zero":
        g = GMap.zero(M)
    elif shape in ("constant-sequence", "linear"):
        g = GMap.constant_sequence(M, [[v.v] for v in draw(st.lists(el, min_size=1,
                                                                       max_size=2))])
    elif shape == "linear-scale":
        g = GMap.linear_scale(M, [v.v for v in draw(st.lists(units, min_size=1, max_size=2))])
    else:
        g = GMap.expression(M, [shape])
    rec = Recurrence(M, [CoeffSeq(ring, [x.v for x in r]) for r in a_rows],
                     [CoeffSeq(ring, [x.v for x in r]) for r in b_rows], g)

    fmt = ring.fmt
    root = [fmt(alpha[0].v)] if planted else []
    roots = draw(st.sampled_from([None, root or None, root * order or None,
                                  [fmt(draw(el).v)], root + [fmt(draw(el).v)]]))
    seeds = None
    if k and draw(st.booleans()):
        # the first window fits the base; a second one fits the next level
        window = st.lists(units, min_size=k, max_size=k)
        if planted:
            window = st.one_of(st.just([alpha[i % period] for i in range(k)]), window)
        seeds = [[x.v for x in draw(window)]]
        if draw(st.booleans()):
            window = st.lists(units, min_size=max(k - 1, 1), max_size=max(k - 1, 1))
            if second is not None and k > 1:
                window = st.one_of(st.just([second] * (k - 1)), window)
            seeds.append([x.v for x in draw(window)])
    horizon = draw(st.sampled_from((2, 6, 12, 24)))
    return rec, "linear" if linear else None, roots, seeds, horizon


def outcome(fn, *args, **kwargs):
    """The chain's canonical report, or the exception's type, message and
    root report."""
    try:
        chain = fn(*args, **kwargs)
    except (ScfactorError, ValueError) as exc:
        report = getattr(exc, "report", None)
        return type(exc).__name__, str(exc), None if report is None else _root_report_obj(report)
    return canonical_json(_chain_obj(chain, {}))


@settings(max_examples=300, deadline=None)
@given(jobs())
def test_driver_matches_old_dispatch(job):
    rec, family_kind, roots, seeds, horizon = job
    got = outcome(factor_chain, rec, roots=roots, seeds=seeds, horizon=horizon)
    want = outcome(ref_route, rec, family_kind, roots, seeds, horizon)
    if family_kind == "linear" and seeds is None and not rec.ring.commutative \
            and rec.order > 1:
        # the intended change: the root search refused these; now they take
        # the certificate routes
        assert want[0] == "NoncommutativeRing"
        want = ("Irreducible", "no reduction step could be constructed via certificates", None)
    assert got == want


# ---------------------------------------------------------------------------
# the route contract: each route says when it applies and how it stops


def _rec(kind, a, b, g="zero", modulus=None):
    M = Module(make_ring(kind, modulus=modulus), 1)
    return Recurrence(M, a, b, GMap.zero(M) if g == "zero" else GMap.expression(M, [g]))


def test_constant_root_applies_only_without_seeds_over_commutative_constant_rows():
    # P = (x - 1)(x - 2) over Q
    rec = _rec("exact-rational", ["3", "-2"], ["0", "0"])
    assert isinstance(_constant_root(rec, _Job(None, None, 64)), FactorStep)
    assert _constant_root(rec, _Job(None, [], 64)) is None
    assert _constant_root(rec, _Job(None, [["1"]], 64)) is None
    quaternion = _rec("rational-quaternion", ["3", "-2"], ["0", "0"])
    assert _constant_root(quaternion, _Job(None, None, 64)) is None
    periodic = _rec("exact-rational", [["3", "1"], "-2"], ["0", "0"])
    assert _constant_root(periodic, _Job(None, None, 64)) is None


def test_shortcut_applies_only_at_order_two_with_a_map_that_reads_its_argument():
    order3 = _rec("exact-rational", ["1", "1", "1"], ["1", "1", "1"], g="u1*u1")
    assert _shortcut(order3, _Job(None, [], 64)) is None
    ignores = _rec("exact-rational", ["1", "1"], ["1", "1"])
    assert _shortcut(ignores, _Job(None, [], 64)) is None
    # b = (1, 1) forces alpha = -1, and the closed condition holds for a = (-2, -1)
    reads = _rec("exact-rational", ["-2", "-1"], ["1", "1"], g="u1*u1")
    assert _shortcut(reads, _Job(None, [], 64)).route == "shortcut"


def test_composite_modulus_note_at_the_second_level():
    # P = (x - 1)^3 over Z/12: one step at rho = 1, then the refusal
    rec = _rec("integers-mod-m", ["3", "-3", "1"], ["0", "0", "0"], modulus=12)
    chain = factor_chain(rec)
    assert len(chain.steps) == 1 and chain.final_factor.order == 2
    assert chain.notes == [f"{rec.ring} has a composite modulus: stopped after one reduction "
                           "(repeated deflation needs an integral domain)"]
    job = _Job(None, None, 64, list(chain.steps))
    assert _constant_root(chain.final_factor, job) == chain.notes[0]


def test_failed_shortcut_falls_through_to_a_seed_only_while_seeds_remain():
    # b_0 = 0 is no unit, so the shortcut fails; the seed alpha = 1 solves
    # alpha = 3 - 2 / alpha with a vacuous b side
    rec = _rec("exact-rational", ["3", "-2"], ["0", "0"], g="u1*u1")
    stop = "stopped at order 2: b_0(0) = 0 is not a unit (at step n=0)"
    assert _shortcut(rec, _Job(None, [], 64)) == stop
    assert _shortcut(rec, _Job(None, None, 64)) == stop
    job = _Job(None, [["1"]], 64)
    assert _shortcut(rec, job) is None
    assert _seed_window(rec, job).route == "certificate"
    assert job.seeds == []
    assert factor_chain(rec, seeds=[["1"]]).steps[0].route == "certificate"
    with pytest.raises(Irreducible):
        factor_chain(rec, seeds=[])


# names that would mean factor_chain picks a route itself
ROUTE_NAMES = {"IntegersMod", "is_prime", "commutative", "constant_coeffs", "uses_argument",
               "second_order_shortcut", "variable_certificate", "factor_once"}
FACTORIZE = Path(__file__).resolve().parent.parent / "src" / "scfactor" / "factorize.py"


def names_in_function(source: str, name: str) -> set[str]:
    """Every name and attribute that the body of function ``name`` mentions."""
    fn = next(node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(fn) if isinstance(node, (ast.Name, ast.Attribute))}


def test_factor_chain_holds_no_route_branch():
    assert names_in_function(FACTORIZE.read_text(), "factor_chain") & ROUTE_NAMES == set()


def test_the_route_guard_sees_what_it_refuses():
    source = ("def factor_chain(rec):\n"
              "    if isinstance(rec.ring, IntegersMod) and rec.constant_coeffs:\n"
              "        return factor_once(rec, 1)\n")
    assert names_in_function(source, "factor_chain") & ROUTE_NAMES == {
        "IntegersMod", "constant_coeffs", "factor_once"}
