"""The compiled payload kernel against the element-level step it replaced.

The reference is the step as it was written on El and Vec values
(elements.py): step summing its rows, apply dispatching on the map's
shape, eval_expr walking the AST node by node, and below the simulate loop
that checked every new value for finiteness and size. Hypothesis draws small
recurrences over all six ring kinds and all four map shapes, with periodic
coefficients; the kernel must give bit-identical values, the same
breakdown index and the same breakdown reason.

The generated chain rebuild is held the same way against the per-value
loops of simulate_chain and simulate_substitution that it replaced, whose
deepest level steps through that reference simulate loop, and
the initial windows of a chain's levels and of the substitution's s level,
peeled on payloads, against the subtraction on Vec values they replaced.
"""

import builtins
import functools
import gc
import math
import tracemalloc
from fractions import Fraction

import pytest
from elements import El, apply, eval_expr, step, wrap
from hypothesis import example, given, settings, strategies as st

from scfactor import (Breakdown, ConfigError, DivisionByNonUnit, GMap, Module, Recurrence,
                      TanhUnsupported, make_ring, simulate, simulate_chain)
from scfactor.engine import Trajectory, _propagated, simulate_substitution, transport
from scfactor.factorize import (FactorizationChain, FactorStep, SubstitutionFactorization,
                                level_name)
from scfactor.gmap import (INVERSE_MEMO_SIZE, MAX_LAZY_FACTORS, _KERNELS, expr_form,
                           format_expr, generated, map_values, parse_expr)
from scfactor.recurrence import CoeffSeq
from scfactor.rings import MAX_MODULUS, MAX_PAYLOAD_BITS, _ratio_bits

# ---------------------------------------------------------------------------
# reference: the element-level step, on payload arguments


def ref_eval(ast, ring, u, seqs, n):
    return eval_expr(ast, ring, [El(ring, x) for x in u],
                     {name: tuple(El(ring, v) for v in vals) for name, vals in seqs.items()}, n)


def ref_apply(g, n, w):
    return apply(g, n, wrap(g.module.ring, w))


def ref_step(rec, n, window):
    return step(rec, n, [wrap(rec.ring, x) for x in window])


def emitted_eval(ast, ring, u, seqs, n):
    """One expression through gmap.Emitter, as GMap.kernel emits a map: the
    argument u, the sequences and the value are payloads."""
    literals, form = expr_form((ast,), tuple(seqs))

    def emit(e):
        e.unpack([f"w{i}" for i in range(len(u))], "w")
        [out] = e.exprs(form, "G")
        return "n, w", e.reduced(out)
    values = {}
    map_values(values, "G", literals, seqs, ring)
    return generated(ring, ("eval", len(u), form), values, emit, n, u)


def ref_is_finite(v):
    for payload in v:
        if isinstance(payload, complex):
            if not (math.isfinite(payload.real) and math.isfinite(payload.imag)):
                return False
        elif isinstance(payload, tuple) and payload and isinstance(payload[0], float):
            if not all(math.isfinite(x) for x in payload):
                return False
    return True


def ref_simulate(rec, init, steps, start=0):
    """The values (payload lists) and breakdown of a run from ``init``, the
    values at start .. start+k. A value with a numerator or denominator
    longer than MAX_PAYLOAD_BITS, on the rings whose values can grow without
    bound, raises the library's ConfigError."""
    values = list(init)
    for n in range(start + rec.k, start + rec.k + steps):
        window = [values[-1 - i] for i in range(rec.order)]
        try:
            nxt = ref_step(rec, n, window).v
        except (DivisionByNonUnit, TanhUnsupported) as exc:
            return values, Breakdown(n + 1, str(exc))
        if not ref_is_finite(nxt):
            return values, Breakdown(n + 1, "value is not finite")
        if rec.ring.kind in EXACT_SIZES and any(_ratio_bits(c) > MAX_PAYLOAD_BITS for c in nxt):
            raise ConfigError(f"value at index {n + 1} exceeds the size limit of "
                              f"{MAX_PAYLOAD_BITS} bits per numerator or denominator")
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
    """Small payloads of ``ring``."""
    small = st.integers(min_value=-2, max_value=2)
    # zero itself often, so that zero coefficients and divisions by zero occur
    quads = st.one_of(st.just((0, 0, 0, 0)), st.tuples(small, small, small, small))
    return quads.map(lambda t: ring.payload(_payload(ring, t)))


# Part denominators with common factors and unequal lcms, so that lazy sums
# meet every path: equal denominators, coprime ones and partly shared ones.
UNEVEN_DENOMINATORS = (1, 2, 6, 10, 15)
EXACT_SIZES = {"exact-rational": 1, "gaussian-rational": 2, "rational-quaternion": 4}


def uneven_elements(ring):
    """Exact values whose parts have uneven, non-coprime denominators."""
    part = st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                     st.sampled_from(UNEVEN_DENOMINATORS))
    parts = st.tuples(*[part] * EXACT_SIZES[ring.kind])
    return st.one_of(st.just(0), parts).map(ring.payload)


def asts(dim, tanh, max_leaves=4, factors=1):
    """Expression trees; with ``factors`` > 1, the product of that many."""
    leaves = st.one_of(
        st.integers(min_value=0, max_value=3).map(lambda k: ("int", k)),
        st.integers(min_value=1, max_value=dim).map(lambda i: ("u", i)),
        st.sampled_from(SEQ_NAMES).map(lambda name: ("seq", name)))
    unary = ("neg", "inv", "tanh") if tanh else ("neg", "inv")

    def extend(child):
        return st.one_of(
            st.tuples(st.sampled_from(("add", "sub", "mul", "div")), child, child),
            st.tuples(st.sampled_from(unary), child))
    tree = st.recursive(leaves, extend, max_leaves=max_leaves)
    if factors == 1:
        return tree
    return st.lists(tree, min_size=factors, max_size=factors).map(
        lambda trees: functools.reduce(lambda a, b: ("mul", a, b), trees))


@st.composite
def cases(draw, kinds=st.sampled_from(KINDS), moduli=st.sampled_from([5, 6, 7, 12]),
          dims=st.integers(min_value=1, max_value=2),
          orders=st.integers(min_value=1, max_value=3), values=elements, max_leaves=4,
          factors=1):
    kind = draw(kinds)
    ring = make_ring(kind, modulus=draw(moduli)) \
        if kind == "integers-mod-m" else make_ring(kind)
    dim = draw(dims)
    order = draw(orders)
    M = Module(ring, dim)
    el = values(ring)
    periodic = st.lists(el, min_size=1, max_size=3)
    vec = st.lists(el, min_size=dim, max_size=dim)
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
            ast = draw(asts(dim, tanh, max_leaves, factors))
            if tanh and draw(st.booleans()):
                ast = ("tanh", ast)
            exprs.append(format_expr(ast))
        g = GMap.expression(M, exprs, {name: draw(periodic) for name in SEQ_NAMES})
    rows = st.lists(periodic, min_size=order, max_size=order)
    rec = Recurrence(M, draw(rows), draw(rows), g)
    window = draw(st.lists(vec, min_size=order, max_size=order))
    n = draw(st.integers(min_value=0, max_value=6))
    return rec, window, n


def bits(v):
    """The reprs of the payloads of a vector (a payload list)."""
    return [repr(c) for c in v]


def outcome(fn, *args):
    """Bit pattern of the value (a payload, a payload list, an El or a Vec),
    or the breakdown's type, message and step."""
    try:
        out = fn(*args)
    except (DivisionByNonUnit, TanhUnsupported) as exc:
        return type(exc).__name__, str(exc), exc.n
    out = getattr(out, "v", out)
    return bits(out) if isinstance(out, list) else [repr(out)]


# ---------------------------------------------------------------------------
# the differential checks


def overflowing(kind):
    """x_{n+1} = x_n^2 from 1e100 over a float ring, which the draws above
    do not reach: the value at index 3 is not finite."""
    M = Module(make_ring(kind), 1)
    return Recurrence(M, ["0"], ["1"], GMap.expression(M, ["u1*u1"])), [M.payloads("1e100")], 0


@settings(max_examples=150, deadline=None)
@given(cases())
@example(overflowing("float-complex"))
@example(overflowing("float-quaternion"))
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
        assert outcome(emitted_eval, ast, ring, window[0], rec.g.seqs, n) == \
            outcome(ref_eval, ast, ring, window[0], rec.g.seqs, n)


@settings(max_examples=100, deadline=None)
@given(cases(kinds=st.just("integers-mod-m"), moduli=st.integers(min_value=2, max_value=MAX_MODULUS)))
def test_lazy_reduction_matches_reference_for_any_modulus(case):
    # residues near m (drawn as -1, -2) make every unreduced product and sum
    # a multi-digit int, so each missing or misplaced reduction shows
    rec, window, n = case
    want, want_breakdown = ref_simulate(rec, window, 6)
    traj = simulate(rec, window, 6)
    assert [bits(v) for v in traj.values] == [bits(v) for v in want]
    assert traj.breakdown == want_breakdown
    assert outcome(rec.g.apply, n, window[0]) == outcome(ref_apply, rec.g, n, window[0])


def canonical(payload) -> bool:
    return math.gcd(*payload) == 1 and payload[-1] > 0


@settings(max_examples=150, deadline=None)
@given(cases(kinds=st.sampled_from(tuple(EXACT_SIZES)),
             orders=st.integers(min_value=1, max_value=5), values=uneven_elements,
             max_leaves=2, factors=MAX_LAZY_FACTORS + 1))
def test_lazy_exact_kernels_match_reference(case):
    # lazy sums over uneven denominators, and maps that are products of more
    # than MAX_LAZY_FACTORS factors: the values are the reference's, and
    # every stored value and map output is a canonical payload
    rec, window, n = case
    try:
        want, want_breakdown = ref_simulate(rec, window, 6)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            simulate(rec, window, 6)
        assert str(got.value) == str(exc)
        return
    traj = simulate(rec, window, 6)
    assert [bits(v) for v in traj.values] == [bits(v) for v in want]
    assert traj.breakdown == want_breakdown
    assert all(canonical(p) for v in traj.values for p in v)
    got = outcome(rec.g.apply, n, window[0])
    assert got == outcome(ref_apply, rec.g, n, window[0])
    if isinstance(got, list):
        assert all(canonical(c) for c in rec.g.apply(n, window[0]))


# ---------------------------------------------------------------------------
# named cases of the generated code


@pytest.mark.parametrize("u1", [1, 3])
@pytest.mark.parametrize("text, message", [("inv(u1 + u1)", "inv of non-unit 2"),
                                           ("1/(u1 + u1)", "division by non-unit 2")])
def test_breakdown_prints_reduced_residue(u1, text, message):
    # mod 4, u1 + u1 is 2 unreduced for u1 = 1 and 6 for u1 = 3; both print 2
    R = make_ring("integers-mod-m", modulus=4)
    M = Module(R, 1)
    g = GMap.expression(M, [text])
    assert outcome(emitted_eval, parse_expr(text), R, [u1], {}, 5) == \
        ("DivisionByNonUnit", message, 5)
    assert outcome(g.apply, 5, [u1]) == ("DivisionByNonUnit", message, 5)
    rec = Recurrence(M, ["0"], ["1"], g)
    assert simulate(rec, [u1], 3).breakdown == Breakdown(1, message)


@pytest.mark.parametrize("kind, modulus", [("integers-mod-m", 47), ("integers-mod-m", 48),
                                           ("exact-rational", None)])
@pytest.mark.parametrize("swap", [False, True])
def test_repeated_subexpressions_computed_once(monkeypatch, kind, modulus, swap):
    # d[n] + e[n] and its inverse appear in both components: each is computed
    # once per step, and a breakdown keeps the reason of the first
    # occurrence evaluated (d + e vanishes at odd n)
    _KERNELS.clear()
    R = make_ring(kind, modulus=modulus)
    M = Module(R, 2)
    exprs = ["c[n]*u1*u2/(d[n]+e[n]) + u1", "inv(d[n]+e[n])*u1 - c[n]*u2*u2"]
    exprs = exprs[::-1] if swap else exprs
    seqs = {"c": ["3"], "d": ["1", "2", "5"], "e": ["1", "45" if modulus else "-2", "1"]}
    rec = Recurrence(M, ["1"], ["1"], GMap.expression(M, exprs, seqs))
    sources = []
    real_compile = builtins.compile
    monkeypatch.setattr(builtins, "compile",
                        lambda src, *a, **k: sources.append(src) or real_compile(src, *a, **k))
    rec.g.kernel
    [source] = sources
    # one sum d + e, one sum in the output, one inverse, one raiser call; a
    # residue's inverse is one memo lookup, with the raiser run on a miss;
    # values are reduced at the two outputs and the inverse's operand only
    assert source.count(" + ") + source.count("_ladd(") - source.count("_neg(") == 2
    assert source.count("DIV(") + source.count("INV(") == 1
    assert source.count("INVS.get(") == (1 if modulus else 0) and "pow(" not in source
    assert source.count("% m") + source.count("_reduced(") == 3
    reason = "inv of non-unit" if swap else "division by non-unit"
    want = Breakdown(1, f"{reason} 2") if modulus == 48 else Breakdown(2, f"{reason} 0")
    assert simulate(rec, [["1", "2"]], 6).breakdown == want


def test_inverse_memo_is_per_ring():
    # two jobs with different moduli in one process run the same generated
    # code for inv(u1), each with its own ring's memo; the second pass reads
    # every inverse from the memo
    gs = []
    for p in (7, 11):
        R = make_ring("integers-mod-m", modulus=p)
        g = GMap.expression(Module(R, 1), ["inv(u1)"])
        units = range(1, p)
        for _ in range(2):
            assert [g.kernel(0, [v])[0] for v in units] == [pow(v, -1, p) for v in units]
        assert R.inverses == {v: pow(v, -1, p) for v in units}
        gs.append(g)
    assert gs[0].kernel.__code__ is gs[1].kernel.__code__


def test_inverse_memo_stays_within_its_bound():
    # more distinct operands than the memo holds, over Z/10007: every
    # inverse is right, and the memo stops growing at its bound
    p = 10007
    R = make_ring("integers-mod-m", modulus=p)
    g = GMap.expression(Module(R, 1), ["1/u1"])
    operands = range(1, 2 * INVERSE_MEMO_SIZE + 1)
    assert INVERSE_MEMO_SIZE < len(operands) < p
    for _ in range(2):
        assert [g.kernel(0, [v])[0] for v in operands] == [pow(v, -1, p) for v in operands]
        assert len(R.inverses) == INVERSE_MEMO_SIZE
    assert all(pow(v, -1, p) == w for v, w in R.inverses.items())


@pytest.mark.parametrize("text, reason", [("1/u1", "division by non-unit"),
                                          ("inv(u1)", "inv of non-unit")])
def test_inverse_memo_never_stores_a_non_unit(text, reason):
    # x_{n+1} = x_n + 1/x_n mod 12: from 1 the run reaches 2, from 5 it
    # reaches 10, and both break down there; run again, with the units in
    # the memo, they break down at the same index with the same reason, and
    # the non-units are never stored
    R = make_ring("integers-mod-m", modulus=12)
    M = Module(R, 1)
    rec = Recurrence(M, ["1"], ["1"], GMap.expression(M, [text]))
    for x0, bad in ((1, 2), (5, 10)):
        init = [M.payloads([str(x0)])]
        want = ref_simulate(rec, init, 6)[1]
        assert want == Breakdown(2, f"{reason} {bad}")
        for _ in range(2):
            assert simulate(rec, init, 6).breakdown == want
    assert R.inverses == {1: 1, 5: 5}


def test_long_product_stays_exact_and_small(monkeypatch):
    # 2^7 distinct factors u1 + i in a balanced tree, mod the largest accepted
    # modulus: products of up to MAX_LAZY_FACTORS residues stay unreduced, so
    # the products of 8 factors (16 of them) are reduced, then the products
    # of 8 reduced values (2), then the output. The factors differ so that
    # no subtree is shared.
    R = make_ring("integers-mod-m", modulus=MAX_MODULUS)
    terms = [f"(u1 + {i})" for i in range(1, 2 ** 7 + 1)]
    while len(terms) > 1:
        terms = [f"({a})*({b})" for a, b in zip(terms[::2], terms[1::2])]
    sources = []
    real_compile = builtins.compile
    monkeypatch.setattr(builtins, "compile",
                        lambda src, *a, **k: sources.append(src) or real_compile(src, *a, **k))
    x = MAX_MODULUS - 2
    want = math.prod(x + i for i in range(1, 2 ** 7 + 1)) % MAX_MODULUS
    assert emitted_eval(parse_expr(terms[0]), R, [x], {}, 0) == want
    assert MAX_LAZY_FACTORS == 4 and sources[0].count("% m") == 16 + 2 + 1


def test_long_exact_product_reduced_every_few_factors(monkeypatch):
    # the same balanced tree of 2^7 factors u1 + i over the rationals: the
    # lazy products are brought to lowest terms where the residues are
    # reduced mod m, and the value is the exact product
    R = make_ring("exact-rational")
    terms = [f"(u1 + {i})" for i in range(1, 2 ** 7 + 1)]
    while len(terms) > 1:
        terms = [f"({a})*({b})" for a, b in zip(terms[::2], terms[1::2])]
    sources = []
    real_compile = builtins.compile
    monkeypatch.setattr(builtins, "compile",
                        lambda src, *a, **k: sources.append(src) or real_compile(src, *a, **k))
    x = Fraction(-2, 3)
    want = math.prod(x + i for i in range(1, 2 ** 7 + 1))
    got = emitted_eval(parse_expr(terms[0]), R, [R.payload(x)], {}, 0)
    assert got == (want.numerator, want.denominator)
    assert sources[0].count("_reduced(") == 16 + 2 + 1


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_consts"):
            yield from _code_objects(const)


@pytest.mark.parametrize("kind", ["integers-mod-m", "exact-rational", "rational-quaternion"])
def test_no_config_text_in_generated_code(kind):
    ring = make_ring(kind, modulus=10 ** 12 + 39) if kind == "integers-mod-m" \
        else make_ring(kind)
    M = Module(ring, 2)
    g = GMap.expression(M, ["zz_marker[n]*u1 + 987654321", "u2/(987654321 - zz_marker[n])"],
                        {"zz_marker": ["987654321", "5"]})
    rec = Recurrence(M, ["987654321", "1"], ["1", "987654321"], g)
    for fn in (rec.kernel, g.kernel):
        for code in _code_objects(fn.__code__):
            text = [repr(x) for x in (*code.co_names, *code.co_consts, *code.co_varnames)]
            assert not any("zz_marker" in t or "987654321" in t for t in text), text
    # the generated step still computes the recurrence
    window = [M.payloads(["1", "2"]), M.payloads(["3", "4"])]
    assert outcome(rec.step, 0, window) == outcome(ref_step, rec, 0, window)


def _coprime_period_recurrence():
    """Order 3 over Z/101 with coefficient periods 16, 9, 25, 7, 11 and 13:
    every step of a run of fewer than lcm = 3603600 steps is its own phase."""
    R = make_ring("integers-mod-m", modulus=101)
    M = Module(R, 1)
    rows = [[str((i * i + p) % 5) for i in range(p)] for p in (16, 9, 25, 7, 11, 13)]
    rec = Recurrence(M, rows[:3], rows[3:], GMap.expression(M, ["u1*u1 + 1"]))
    assert rec.coeff_period == 3603600
    return rec, [[1], [2], [3]]


def test_compiles_bounded_by_zero_patterns(monkeypatch):
    # 2000 phases, with several zero patterns among them, take one compile:
    # the step reads every coefficient at n from its period; emptied first,
    # the compile cache cannot hold it from an earlier test
    _KERNELS.clear()
    rec, init = _coprime_period_recurrence()
    compiles = []
    real_compile = builtins.compile

    def counting(*args, **kwargs):
        compiles.append(args[0])
        return real_compile(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    traj = simulate(rec, init, 2000)
    monkeypatch.undo()
    assert len(compiles) == 1
    want, want_breakdown = ref_simulate(rec, init, 2000)
    assert traj.breakdown is None and want_breakdown is None
    assert [bits(v) for v in traj.values] == [bits(v) for v in want]


def test_no_state_per_phase():
    # the memory a Recurrence keeps after a run must not grow with the number
    # of phases it stepped through: 18000 more phases, kept one function
    # each, would hold megabytes
    rec, init = _coprime_period_recurrence()
    held = []
    tracemalloc.start()
    try:
        for steps in (2000, 20000):
            traj = simulate(rec, init, steps)
            del traj
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[1] - held[0] < 10_000


def test_values_share_compiled_code():
    # the same zero pattern and map shape, with other coefficients and literals
    R = make_ring("integers-mod-m", modulus=101)
    M = Module(R, 2)
    recs = [Recurrence(M, [a0, "0", "5"], ["1", b1, "0"],
                       GMap.expression(M, [f"u1*u2 + {lit}", "inv(u2)"]))
            for a0, b1, lit in (("2", "7", "3"), ("9", "40", "8"))]
    assert recs[0].kernel.__code__ is recs[1].kernel.__code__
    window = [M.payloads(["1", "2"]), M.payloads(["3", "4"]), M.payloads(["5", "6"])]
    for rec in recs:
        want, want_breakdown = ref_simulate(rec, window, 20)
        traj = simulate(rec, window, 20)
        assert [bits(v) for v in traj.values] == [bits(v) for v in want]
        assert traj.breakdown == want_breakdown


@pytest.mark.parametrize("kind", ["integers-mod-m", "exact-rational", "float-complex"])
def test_order_300_rows(kind):
    # rows of 300 terms, summed in one expression per MAX_SUM_TERMS terms,
    # compile and step as the element-level step does; so does a
    # substitution level of 299 coefficients
    ring = make_ring(kind, modulus=10007) if kind == "integers-mod-m" else make_ring(kind)
    M = Module(ring, 1)
    order = 300
    rec = Recurrence(M, [str(i % 7 - 3) for i in range(order)],
                     [str(i % 5 - 2) for i in range(order)], GMap.expression(M, ["u1*u1 + 1"]))
    init = [[ring.payload(i % 3 - 1)] for i in range(order)]
    want, want_breakdown = ref_simulate(rec, init, 4)
    traj = simulate(rec, init, 4)
    assert [bits(v) for v in traj.values] == [bits(v) for v in want]
    assert traj.breakdown == want_breakdown is None
    factor = Recurrence(M, ["1"], ["0"], GMap.zero(M))
    sub = SubstitutionFactorization(rec, tuple(ring.payload(i % 4 - 1) for i in range(order - 1)),
                                    ring.one, factor)
    run = simulate_substitution(sub, init, 4)
    assert levels(run.trajectories) == levels(ref_simulate_substitution(sub, init, 4))


# ---------------------------------------------------------------------------
# the generated chain rebuild against the per-value loops it replaced, and
# the payload windows of the splits against the element-level windows


def ref_transport(chain, initial):
    """The windows of every chain level on Vec values: level l drops the
    first entry, w_i = prev_i - alpha_l(i-1) * prev_{i-1}; returned as
    payload lists."""
    ring = chain.base.ring
    windows = [[wrap(ring, v) for v in initial]]
    for l, st_ in enumerate(chain.steps, start=1):
        prev = windows[-1]  # indices l-1 .. k
        windows.append([prev[i - l + 1] - El(ring, st_.alpha.at(i - 1)) * prev[i - l]
                        for i in range(l, chain.base.k + 1)])
    return [[v.v for v in w] for w in windows]


def ref_substitution_window(sub, initial):
    """s_k = x_k - c_1 x_{k-1} - ... - c_k x_0 on Vec values, as a payload list."""
    ring = sub.base.ring
    init = [wrap(ring, v) for v in initial]
    s_k = init[sub.k]
    for j, c in enumerate(sub.sub_coeffs, start=1):
        s_k = s_k - El(ring, c) * init[sub.k - j]
    return s_k.v


def ref_simulate_chain(chain, initial, steps):
    windows = ref_transport(chain, initial)
    depth = len(chain.steps)
    k = chain.base.k
    module = chain.base.module
    add, mul = module.ring._add, module.ring._mul
    below = Trajectory(level_name(depth), depth, module,
                       *ref_simulate(chain.final_factor, windows[depth], steps, start=depth))
    end = below.end
    trajs = [below]
    deeper = below.values
    for l in range(depth - 1, -1, -1):
        alpha = chain.steps[l].alpha.values
        period = len(alpha)
        vals = list(windows[l])
        for n in range(k, end - 1):
            a = alpha[n % period]
            vals.append([add(mul(a, w), d) for w, d in zip(vals[-1], deeper[n - l])])
        below = Trajectory(level_name(l), l, module, vals, _propagated(below.breakdown))
        trajs.append(below)
        deeper = vals
    trajs.reverse()
    return trajs


def ref_simulate_substitution(sub, initial, steps):
    module = sub.base.module
    add, mul = module.ring._add, module.ring._mul
    k = sub.k
    s_traj = Trajectory("s", k, module, *ref_simulate(
        sub.factor, [ref_substitution_window(sub, initial)], steps, start=k))
    s_vals = s_traj.values
    coeffs = list(enumerate(sub.sub_coeffs, start=1))
    xs = list(initial)
    for n in range(k, s_traj.end - 1):
        acc = s_vals[n + 1 - k]
        for j, c in coeffs:
            acc = [add(s, mul(c, x)) for s, x in zip(acc, xs[n + 1 - j])]
        xs.append(acc)
    return [Trajectory("x", 0, module, xs, _propagated(s_traj.breakdown)), s_traj]


def levels(trajs):
    return [(t.level, t.start, [[repr(c) for c in p] for p in t.values], t.breakdown)
            for t in trajs]


def run_outcome(run, *args):
    """The levels of run(*args), a ChainRun or a list of trajectories, or
    the message of the ConfigError it raises when a value passes
    MAX_PAYLOAD_BITS."""
    try:
        out = run(*args)
    except ConfigError as exc:
        return "ConfigError", str(exc)
    return levels(getattr(out, "trajectories", out))


@settings(max_examples=100, deadline=None)
@given(st.data(), cases(dims=st.integers(min_value=1, max_value=3)),
       st.integers(min_value=1, max_value=3))
def test_chain_rebuild_matches_per_value_loop(data, case, depth):
    # the drawn recurrence is the final factor, which can break down; the
    # alphas are drawn freely, since the rebuild does not depend on them
    # making a true factorization, so they can drive the factor's values
    # past MAX_PAYLOAD_BITS, where both sides raise the same ConfigError
    factor = case[0]
    ring, M = factor.ring, factor.module
    k = depth + factor.k
    base = Recurrence(M, ["0"] * (k + 1), ["0"] * (k + 1), GMap.zero(M))
    alphas = st.lists(elements(ring), min_size=1, max_size=3).map(
        functools.partial(CoeffSeq, ring))
    steps = [FactorStep("certificate", data.draw(alphas), factor) for _ in range(depth)]
    chain = FactorizationChain(base, steps)
    vec = st.lists(elements(ring), min_size=M.dim, max_size=M.dim)
    initial = data.draw(st.lists(vec, min_size=k + 1, max_size=k + 1))
    assert run_outcome(simulate_chain, chain, initial, 8) == \
        run_outcome(ref_simulate_chain, chain, initial, 8)


@settings(max_examples=75, deadline=None)
@given(st.data(), cases(dims=st.integers(min_value=1, max_value=3), orders=st.just(1)),
       st.integers(min_value=1, max_value=3))
def test_substitution_rebuild_matches_per_value_loop(data, case, k):
    factor = case[0]
    ring, M = factor.ring, factor.module
    base = Recurrence(M, ["0"] * (k + 1), ["0"] * (k + 1), GMap.zero(M))
    coeffs = tuple(data.draw(st.lists(elements(ring), min_size=k, max_size=k)))
    sub = SubstitutionFactorization(base, coeffs, ring.one, factor)
    vec = st.lists(elements(ring), min_size=M.dim, max_size=M.dim)
    initial = data.draw(st.lists(vec, min_size=k + 1, max_size=k + 1))
    assert run_outcome(simulate_substitution, sub, initial, 8) == \
        run_outcome(ref_simulate_substitution, sub, initial, 8)


def test_oversize_final_factor_gives_one_outcome():
    # x[n+1] = x[n]^2 from 10^1000 - 1 (3322 bits) passes MAX_PAYLOAD_BITS at
    # its second step; the chain and the substitution split over it both
    # stop with the ConfigError of their reference
    M = Module(make_ring("exact-rational"), 1)
    one = M.ring.one
    factor = Recurrence(M, ["0"], ["1"], GMap.expression(M, ["u1*u1"]))
    base = Recurrence(M, ["0", "0"], ["0", "0"], GMap.zero(M))
    initial = [M.payloads("1"), M.payloads("1e1000")]
    chain = FactorizationChain(base, [FactorStep("certificate", CoeffSeq(M.ring, [one]), factor)])
    sub = SubstitutionFactorization(base, (one,), one, factor)
    for split, ref in ((chain, ref_simulate_chain), (sub, ref_simulate_substitution)):
        got = run_outcome(simulate_chain, split, initial, 8)
        assert got[0] == "ConfigError" and "index 3 " in got[1]
        assert got == run_outcome(ref, split, initial, 8)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(KINDS), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_split_windows_match_element_reference(data, kind, dim, k):
    # the chain windows (periodic alphas, every depth up to k) and the
    # substitution's s window are peeled on payloads; the values must be
    # those of the element-level subtraction, bit for bit
    ring = make_ring(kind, modulus=data.draw(st.sampled_from([5, 6, 7, 12]))) \
        if kind == "integers-mod-m" else make_ring(kind)
    M = Module(ring, dim)
    base = Recurrence(M, ["0"] * (k + 1), ["0"] * (k + 1), GMap.zero(M))
    vec = st.lists(elements(ring), min_size=dim, max_size=dim)
    initial = data.draw(st.lists(vec, min_size=k + 1, max_size=k + 1))
    alphas = st.lists(elements(ring), min_size=1, max_size=3).map(
        functools.partial(CoeffSeq, ring))
    depth = data.draw(st.integers(min_value=1, max_value=k))
    chain = FactorizationChain(base, [FactorStep("certificate", data.draw(alphas), base)
                                      for _ in range(depth)])
    assert [list(map(bits, w)) for w in transport(chain, initial)] == \
        [list(map(bits, w)) for w in ref_transport(chain, initial)]
    coeffs = tuple(data.draw(st.lists(elements(ring), min_size=k, max_size=k)))
    factor = Recurrence(M, ["0"], ["0"], GMap.zero(M))
    sub = SubstitutionFactorization(base, coeffs, ring.one, factor)
    x, s = simulate_substitution(sub, initial, 0).trajectories
    assert (s.start, list(map(bits, s.values))) == \
        (k, [bits(ref_substitution_window(sub, initial))])
    assert list(map(bits, x.values)) == list(map(bits, initial))
