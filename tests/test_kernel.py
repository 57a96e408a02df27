"""The compiled payload kernel against the element-level step it replaced.

The reference below is the step as it was written on El and Vec values:
Recurrence.step summing its rows, GMap.apply dispatching on the map's shape,
eval_expr walking the AST node by node, and the simulate loop that checked
every new value for finiteness. Hypothesis draws small recurrences over all
six ring kinds and all four map shapes, with periodic coefficients; the
kernel must give bit-identical values, the same breakdown index and the
same breakdown reason.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from scfactor import (Breakdown, DivisionByNonUnit, GMap, Module, Recurrence,
                      TanhUnsupported, make_ring, simulate)
from scfactor.gmap import eval_expr, format_expr
from scfactor.rings import El, Vec

# ---------------------------------------------------------------------------
# reference: the element-level step


def ref_eval(ast, ring, u, seqs, n):
    op = ast[0]
    if op == "int":
        return ring.from_int(ast[1])
    if op == "u":
        return u[ast[1] - 1]
    if op == "seq":
        vals = seqs[ast[1]]
        return vals[n % len(vals)]
    if op == "neg":
        return -ref_eval(ast[1], ring, u, seqs, n)
    if op == "inv":
        val = ref_eval(ast[1], ring, u, seqs, n)
        if not val.is_unit:
            raise DivisionByNonUnit(f"inv of non-unit {val}", n=n)
        return val.inverse()
    if op == "tanh":
        val = ref_eval(ast[1], ring, u, seqs, n)
        z = val.v
        if abs(z.imag) > ring.tol * max(1.0, abs(z.real)):
            raise TanhUnsupported(f"tanh argument {val} has a non-negligible imaginary part", n=n)
        return El(ring, complex(math.tanh(z.real), 0.0))
    left = ref_eval(ast[1], ring, u, seqs, n)
    right = ref_eval(ast[2], ring, u, seqs, n)
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    if not right.is_unit:
        raise DivisionByNonUnit(f"division by non-unit {right}", n=n)
    return left * right.inverse()


def ref_apply(g, n, w):
    if g.kind == "zero":
        return g.module.zero
    if g.kind == "constant-sequence":
        return g.vec_values[n % len(g.vec_values)]
    if g.kind == "linear-scale":
        return g.scalar_values[n % len(g.scalar_values)] * w
    return Vec(ref_eval(ast, g.module.ring, w.parts, g.seqs, n) for ast in g.exprs)


def ref_row(rec, row, n, window):
    ring = rec.ring
    zero = ring.zero.v
    acc = [zero] * rec.module.dim
    for seq, x in zip(row, window):
        c = seq.at(n).v
        if ring._eq(c, zero):
            continue
        for j, p in enumerate(x.parts):
            acc[j] = ring._add(acc[j], ring._mul(c, p.v))
    return acc


def ref_step(rec, n, window):
    ring = rec.ring
    acc = ref_row(rec, rec.a, n, window)
    if not rec.g.is_zero:
        if rec.g.uses_argument:
            arg = Vec(El(ring, v) for v in ref_row(rec, rec.b, n, window))
        else:
            arg = rec.module.zero
        acc = [ring._add(s, t.v) for s, t in zip(acc, ref_apply(rec.g, n, arg).parts)]
    return Vec(El(ring, v) for v in acc)


def ref_is_finite(v):
    for c in v.parts:
        payload = c.v
        if isinstance(payload, complex):
            if not (math.isfinite(payload.real) and math.isfinite(payload.imag)):
                return False
        elif isinstance(payload, tuple) and payload and isinstance(payload[0], float):
            if not all(math.isfinite(x) for x in payload):
                return False
    return True


def ref_simulate(rec, init, steps):
    values = list(init)
    for n in range(rec.k, rec.k + steps):
        window = [values[-1 - i] for i in range(rec.order)]
        try:
            nxt = ref_step(rec, n, window)
        except (DivisionByNonUnit, TanhUnsupported) as exc:
            return values, Breakdown(n + 1, str(exc))
        if not ref_is_finite(nxt):
            return values, Breakdown(n + 1, "value is not finite")
        values.append(nxt)
    return values, None


# ---------------------------------------------------------------------------
# strategies

KINDS = ("integers-mod-m", "exact-rational", "gaussian-rational", "float-complex",
         "rational-quaternion", "float-quaternion")
SHAPES = ("zero", "constant-sequence", "linear-scale", "expression")
SEQ_NAMES = ("c", "d")


def _payload(ring, t):
    """A small payload of ``ring`` from four small ints."""
    a, b, c, d = t
    kind = ring.kind
    if kind == "integers-mod-m":
        return a
    if kind == "exact-rational":
        return Fraction(a, 1 + abs(b))
    if kind == "gaussian-rational":
        return (Fraction(a, 2), Fraction(b))
    if kind == "float-complex":
        # d = 2: a nonzero value within the ring's tolerance of zero
        return complex(a * 1e-12, 0.0) if d == 2 else complex(a / 2, b)
    if kind == "rational-quaternion":
        return (a, Fraction(b, 2), c, d)
    return (a * 1e-12, 0.0, 0.0, 0.0) if d == 2 else (a / 2, float(b), float(c), d / 4)


def elements(ring):
    small = st.integers(min_value=-2, max_value=2)
    # zero itself often, so that zero coefficients and divisions by zero occur
    quads = st.one_of(st.just((0, 0, 0, 0)), st.tuples(small, small, small, small))
    return quads.map(lambda t: ring.el(_payload(ring, t)))


def asts(dim, tanh):
    leaves = st.one_of(
        st.integers(min_value=0, max_value=3).map(lambda k: ("int", k)),
        st.integers(min_value=1, max_value=dim).map(lambda i: ("u", i)),
        st.sampled_from(SEQ_NAMES).map(lambda name: ("seq", name)))
    unary = ("neg", "inv", "tanh") if tanh else ("neg", "inv")

    def extend(child):
        return st.one_of(
            st.tuples(st.sampled_from(("add", "sub", "mul", "div")), child, child),
            st.tuples(st.sampled_from(unary), child))
    return st.recursive(leaves, extend, max_leaves=4)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(KINDS))
    ring = make_ring(kind, modulus=draw(st.sampled_from([5, 6, 7, 12]))) \
        if kind == "integers-mod-m" else make_ring(kind)
    dim = draw(st.integers(min_value=1, max_value=2))
    order = draw(st.integers(min_value=1, max_value=3))
    M = Module(ring, dim)
    el = elements(ring)
    periodic = st.lists(el, min_size=1, max_size=3)
    vec = st.lists(el, min_size=dim, max_size=dim).map(M.el)
    # expressions are the only maps that can break down, so they come most often
    shape = draw(st.sampled_from(SHAPES + ("expression", "expression")))
    if shape == "zero":
        g = GMap.zero(M)
    elif shape == "constant-sequence":
        g = GMap.constant_sequence(M, draw(st.lists(vec, min_size=1, max_size=3)))
    elif shape == "linear-scale":
        g = GMap.linear_scale(M, draw(periodic))
    else:
        tanh = kind == "float-complex"
        exprs = []
        for _ in range(dim):
            ast = draw(asts(dim, tanh))
            if tanh and draw(st.booleans()):
                ast = ("tanh", ast)
            exprs.append(format_expr(ast))
        g = GMap.expression(M, exprs, {name: draw(periodic) for name in SEQ_NAMES})
    rows = st.lists(periodic, min_size=order, max_size=order)
    rec = Recurrence(M, draw(rows), draw(rows), g)
    window = draw(st.lists(vec, min_size=order, max_size=order))
    n = draw(st.integers(min_value=0, max_value=6))
    return rec, window, n


def bits(v: Vec):
    return [repr(c.v) for c in v.parts]


def outcome(fn, *args):
    """Bit pattern of the value, or the breakdown's type, message and step."""
    try:
        out = fn(*args)
    except (DivisionByNonUnit, TanhUnsupported) as exc:
        return type(exc).__name__, str(exc), exc.n
    return [repr(out.v)] if isinstance(out, El) else bits(out)


# ---------------------------------------------------------------------------
# the differential checks


@settings(max_examples=150, deadline=None)
@given(cases())
def test_kernel_matches_element_reference(case):
    rec, window, n = case
    want, want_breakdown = ref_simulate(rec, window, 6)
    traj = simulate(rec, window, 6)
    assert [bits(v) for v in traj.values] == [bits(v) for v in want]
    assert traj.breakdown == want_breakdown

    # the public wrappers run the same compiled code
    newest_first = window[::-1]
    assert outcome(rec.step, n, newest_first) == outcome(ref_step, rec, n, newest_first)
    assert outcome(rec.g.apply, n, window[0]) == outcome(ref_apply, rec.g, n, window[0])
    ring = rec.ring
    for ast in rec.g.exprs or ():
        assert outcome(eval_expr, ast, ring, window[0].parts, rec.g.seqs, n) == \
            outcome(ref_eval, ast, ring, window[0].parts, rec.g.seqs, n)
