"""Payload code against the element oracle where equality and operation
order decide the answer.

On the float rings two payloads that differ below the ring's tolerance are
equal values: CoeffSeq.is_constant, CoeffSeq.reduced, RootReport.deflated
and verified_roots must judge them by the ring's equality, as the oracle's
El does, where a plain == of payloads would see two values. The root
functions need a commutative ring, so they are checked over float-complex
only. The family rows (fsc, alsp, o2b) are computed on payloads in the
order the oracle's operators use, so their payloads must have the oracle's
repr on every ring, float bits included.
"""

import cmath
import math

from elements import El, pmul
from hypothesis import given, settings, strategies as st
from test_kernel import KINDS, elements

from scfactor import CoeffSeq, GMap, Module, Poly, RootReport, build_family, make_ring
from scfactor.poly import verified_roots

FLOAT_KINDS = ("float-complex", "float-quaternion")

# a relative perturbation far below the default tolerance 1e-9, far above
# the float resolution of values of size up to 4
NUDGE = 1e-12


def _ring(kind):
    return make_ring(kind, modulus=12) if kind == "integers-mod-m" else make_ring(kind)


def _floats():
    return st.floats(min_value=-4, max_value=4, allow_nan=False).map(lambda x: round(x, 3))


def _value(ring):
    """A float-ring payload with parts in [-4, 4]."""
    if ring.kind == "float-complex":
        return st.builds(complex, _floats(), _floats())
    return st.tuples(_floats(), _floats(), _floats(), _floats())


def _twin(ring, v, angle):
    """v moved by NUDGE * max(|v|, 1) in a direction set by ``angle``: a
    different payload, the same value."""
    if ring.kind == "float-complex":
        w = v + NUDGE * max(abs(v), 1.0) * cmath.exp(1j * angle)
    else:
        size = NUDGE * max(math.sqrt(sum(c * c for c in v)), 1.0)
        w = (v[0] + size * math.cos(angle), v[1] + size * math.sin(angle), v[2], v[3])
    assert w != v and ring._eq(w, v)
    return w


def _oracle_period(els):
    n = len(els)
    return next(p for p in range(1, n + 1)
                if n % p == 0 and all(els[i] == els[i % p] for i in range(n)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FLOAT_KINDS), st.data())
def test_coeff_seq_within_tolerance(kind, data):
    # a period of one to three values repeated one to three times, each copy
    # after the first nudged below the tolerance
    ring = make_ring(kind)
    base = data.draw(st.lists(_value(ring), min_size=1, max_size=3))
    copies = data.draw(st.integers(min_value=1, max_value=3))
    angles = st.floats(min_value=0, max_value=2 * math.pi)
    vals = list(base) + [_twin(ring, v, data.draw(angles)) for v in base * (copies - 1)]
    seq, els = CoeffSeq(ring, vals), [El(ring, v) for v in vals]
    assert seq.is_constant == all(x == els[0] for x in els)
    assert seq.reduced().period == _oracle_period(els) <= len(base)
    assert seq == CoeffSeq(ring, base)
    if len(set(base)) == 1:
        assert seq.is_constant


def _distinct_units(n):
    """n complex units at least 0.5 apart, of size at most 2."""
    point = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4)).map(lambda z: z / 2)
    return st.lists(point.filter(lambda z: z != 0), min_size=n, max_size=n,
                    unique_by=lambda z: (z.real, z.imag))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(_distinct_units), st.data())
def test_deflated_report_within_tolerance(roots, data):
    # the report of a search over gcd g = prod (x - r), deflated at a root
    # nudged below the tolerance: that root loses its multiplicity
    ring = make_ring("float-complex")
    g = pmul(*[Poly(ring, [-r, 1]) for r in roots])
    report = RootReport(ring, [(r, 1) for r in roots], "numeric", False, [], g)
    rho = _twin(ring, data.draw(st.sampled_from(roots)),
                data.draw(st.floats(min_value=0, max_value=2 * math.pi)))
    got = report.deflated(rho)
    want = [(r, m - 1 if El(ring, r) == El(ring, rho) else m) for r, m in report.roots]
    assert got.roots == [(r, m) for r, m in want if m]
    assert len(got.roots) == len(roots) - 1


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(_distinct_units),
       st.lists(st.floats(min_value=0, max_value=2 * math.pi), min_size=1, max_size=3))
def test_verified_roots_count_within_tolerance(roots, angles):
    # claims of a root and of its nudged twins count as one root, repeated
    ring = make_ring("float-complex")
    P = pmul(*[Poly(ring, [-r, 1]) for r in roots])
    claimed = [roots[0]] + [_twin(ring, roots[0], a) for a in angles]
    got = verified_roots(P, Poly(ring, []), claimed)
    counts = []
    for rho in claimed:
        for i, (r, m) in enumerate(counts):
            if El(ring, r) == El(ring, rho):
                counts[i] = (r, m + 1)
                break
        else:
            counts.append((rho, 1))
    assert got.roots == counts == [(roots[0], len(claimed))]


def _units(ring):
    return elements(ring).filter(lambda v: ring._inv(v) is not None)


def _reprs(payloads):
    return [repr(v) for v in payloads]


def _rows(rec):
    return _reprs(c.values[0] for c in rec.a), _reprs(c.values[0] for c in rec.b)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS), st.data())
def test_family_rows_match_oracle(kind, data):
    ring = _ring(kind)
    M = Module(ring, 1)
    g = GMap.expression(M, ["u1*u1"])
    one, zero = El(ring, ring.one), El(ring, ring.zero)

    # fsc: a_j = r*b_j - b_{j+1} with b_0 = 1, b_{k+1} = 0
    r = data.draw(_units(ring))
    btail = data.draw(st.lists(elements(ring), min_size=1, max_size=3))
    fam = build_family(M, "fsc", {"r": r, "b": btail}, g)
    bfull = [one] + [El(ring, v) for v in btail] + [zero]
    want_a = [El(ring, r) * bfull[j] - bfull[j + 1] for j in range(len(bfull) - 1)]
    assert _rows(fam.recurrence) == (_reprs(x.v for x in want_a),
                                     _reprs(x.v for x in bfull[:-1]))

    # alsp: a-row (a_0..a_{k-1}, 0), b-row (b, -a_0*b, .., -a_{k-1}*b)
    a_list = data.draw(st.lists(elements(ring), min_size=1, max_size=3))
    last = data.draw(_units(ring))
    a_list[-1] = last
    b = data.draw(_units(ring))
    fam = build_family(M, "alsp", {"a": a_list, "b": b}, g)
    a_els = [El(ring, v) for v in a_list]
    want_b = [El(ring, b)] + [-(a * El(ring, b)) for a in a_els]
    assert _rows(fam.recurrence) == (_reprs([*a_list, ring.zero]),
                                     _reprs(x.v for x in want_b))

    # o2b: b-row x_{n-j} - b*x_{n-j-1}
    a_row = data.draw(st.lists(elements(ring), min_size=2, max_size=4))
    j = data.draw(st.integers(min_value=0, max_value=len(a_row) - 2))
    b = data.draw(elements(ring))
    fam = build_family(M, "o2b", {"a": a_row, "j": j, "b": b}, g)
    want_b = [zero] * len(a_row)
    want_b[j], want_b[j + 1] = one, -El(ring, b)
    assert _rows(fam.recurrence) == (_reprs(a_row), _reprs(x.v for x in want_b))
