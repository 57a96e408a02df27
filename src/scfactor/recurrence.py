"""Higher-order recurrences over a module, with periodic coefficients.

The central object is

    x_{n+1} = sum_{i=0..k} a_i(n) x_{n-i} + g_n( sum_{i=0..k} b_i(n) x_{n-i} )

where a_i(n), b_i(n) are ring scalars (periodic in n, period 1 meaning
constant), x_n lives in R^d, and g_n maps R^d to R^d. The order is k+1.

GMap wraps the four supported shapes of g_n:

* zero                  g_n = 0 (the recurrence is linear homogeneous-form)
* constant-sequence     g_n(w) = d_n, a periodic vector sequence (forcing)
* linear-scale          g_n(w) = c_n * w, a periodic scalar sequence
* expression            componentwise expressions over u1..ud plus named
                        periodic scalar sequences

Families (build_family) construct specific coefficient patterns that are
known to reduce; fold_system merges d scalar recurrences sharing the same
coefficient rows into one module recurrence.

Recurrence.kernel and GMap.kernel are the step and the map as generated
Python functions on raw ring payloads (gmap.Emitter), built on first use;
the step inlines g and is compiled once per zero pattern of the
coefficient rows, not once per phase. The simulation engine runs the
kernel directly. Recurrence.step and GMap.apply are thin wrappers that
unwrap their Vec arguments, call the kernel and wrap the result.
"""

from __future__ import annotations

import functools
import math
import re as _re
import types
from dataclasses import dataclass

from . import gmap as gm
from .errors import GMapSyntaxError, NotFoldable, ParseError
from .poly import Poly
from .rings import El, Module, Ring, Vec


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


class CoeffSeq:
    """A periodic sequence of ring elements; period = number of stored values.

    at(n) is well defined for negative n too (periodic extension), which the
    factor construction relies on once periodicity is proved.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(values)
        if not vals:
            raise ParseError("coefficient sequence needs at least one value")
        self.values = vals

    @classmethod
    def constant(cls, value: El) -> "CoeffSeq":
        return cls((value,))

    @property
    def period(self) -> int:
        return len(self.values)

    @property
    def is_constant(self) -> bool:
        return len(self.values) == 1 or all(v == self.values[0] for v in self.values)

    def at(self, n: int) -> El:
        return self.values[n % len(self.values)]

    def reduced(self) -> "CoeffSeq":
        """Collapse to the least divisor period that reproduces the values."""
        n = len(self.values)
        for p in range(1, n):
            if n % p == 0 and all(self.values[i] == self.values[i % p] for i in range(n)):
                return CoeffSeq(self.values[:p])
        return self

    def __eq__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        n = _lcm([self.period, other.period])
        return all(self.at(i) == other.at(i) for i in range(n))

    def __str__(self):
        if len(self.values) == 1:
            return str(self.values[0])
        return "{" + ", ".join(str(v) for v in self.values) + "}@n"

    __repr__ = __str__


class GMap:
    """One of the four supported shapes of the nonlinear map g_n."""

    def __init__(self, kind: str, module: Module, *, vec_values=None,
                 scalar_values=None, exprs=None, seqs=None, sources=None):
        self.kind = kind
        self.module = module
        self.vec_values = tuple(vec_values) if vec_values is not None else None
        self.scalar_values = tuple(scalar_values) if scalar_values is not None else None
        self.exprs = tuple(exprs) if exprs is not None else None
        self.seqs = dict(seqs) if seqs is not None else {}
        self.sources = tuple(sources) if sources is not None else None

    @classmethod
    def zero(cls, module: Module) -> "GMap":
        return cls("zero", module)

    @classmethod
    def constant_sequence(cls, module: Module, values) -> "GMap":
        vals = tuple(module.el(v) for v in values)
        if not vals:
            raise ParseError("constant-sequence map needs at least one value")
        return cls("constant-sequence", module, vec_values=vals)

    @classmethod
    def linear_scale(cls, module: Module, values) -> "GMap":
        vals = tuple(module.ring.el(v) for v in values)
        if not vals:
            raise ParseError("linear-scale map needs at least one value")
        return cls("linear-scale", module, scalar_values=vals)

    @classmethod
    def expression(cls, module: Module, exprs: list[str], seqs: dict | None = None) -> "GMap":
        if len(exprs) != module.dim:
            raise GMapSyntaxError(
                f"expected {module.dim} component expression(s), got {len(exprs)}")
        seqs = seqs or {}
        parsed_seqs = {}
        for name, vals in seqs.items():
            if not _re.fullmatch(r"[a-z][a-z0-9_]*", name or ""):
                raise GMapSyntaxError(f"bad sequence name {name!r}")
            if _re.fullmatch(r"u\d+", name) or name in ("inv", "tanh", "n"):
                raise GMapSyntaxError(f"sequence name {name!r} is reserved")
            if not isinstance(vals, (list, tuple)) or not vals:
                raise ParseError(f"sequence {name!r} must be a non-empty list")
            parsed_seqs[name] = tuple(module.ring.el(v) for v in vals)
        asts = []
        for text in exprs:
            ast = gm.parse_expr(text)
            gm.validate_expr(ast, module.dim, set(parsed_seqs), module.ring)
            asts.append(ast)
        return cls("expression", module, exprs=asts, seqs=parsed_seqs, sources=tuple(exprs))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def uses_argument(self) -> bool:
        """Whether g_n actually reads its argument (false for zero/forcing)."""
        return self.kind in ("linear-scale", "expression")

    @property
    def period(self) -> int:
        if self.kind == "constant-sequence":
            return len(self.vec_values)
        if self.kind == "linear-scale":
            return len(self.scalar_values)
        if self.kind == "expression":
            return _lcm([len(v) for v in self.seqs.values()] or [1])
        return 1

    def emit(self, e: gm.Emitter) -> list[str] | None:
        """Emit g_n into ``e``, reading its argument from the locals w0 ..
        w<d-1>; returns the source of each output component, unreduced, or
        None for the zero map."""
        ring, dim = self.module.ring, self.module.dim
        if self.kind == "zero":
            return None
        if self.kind == "constant-sequence":
            return [e.seq(j, tuple(v.parts[j].v for v in self.vec_values)) for j in range(dim)]
        if self.kind == "linear-scale":
            c = e.seq(0, tuple(c.v for c in self.scalar_values))
            return [ring.src_mul.format(c, f"w{j}") for j in range(dim)]
        seqs = {name: tuple(x.v for x in vals) for name, vals in self.seqs.items()}
        return [e.expr(ast, seqs) for ast in self.exprs]

    @functools.cached_property
    def kernel(self):
        """g_n on payloads, generated once: kernel(n, w) maps the argument's
        payload list w to a payload list. None for the zero map."""
        if self.kind == "zero":
            return None
        e = gm.Emitter(self.module.ring)
        e.unpack([f"w{j}" for j in range(self.module.dim)], "w")
        return e.function("n, w", f"[{', '.join(map(e.reduced, self.emit(e)))}]")

    def apply(self, n: int, w: Vec) -> Vec:
        if self.kernel is None:
            return self.module.zero
        return self.module.wrap(self.kernel(n, self.module.payloads(w)))

    def describe(self) -> str:
        if self.kind == "zero":
            return "g = 0"
        if self.kind == "constant-sequence":
            vals = ", ".join(str(v) for v in self.vec_values)
            return f"g_n = forcing sequence [{vals}]"
        if self.kind == "linear-scale":
            vals = ", ".join(str(v) for v in self.scalar_values)
            return f"g_n(w) = c_n * w with c = [{vals}]"
        body = "; ".join(gm.format_expr(a) for a in self.exprs)
        if self.seqs:
            legend = ", ".join(
                f"{name} = [{', '.join(str(v) for v in vals)}]"
                for name, vals in sorted(self.seqs.items()))
            return f"g_n(u) = ({body}) with {legend}"
        return f"g_n(u) = ({body})"


class Recurrence:
    """One recurrence of order k+1 over module R^d."""

    def __init__(self, module: Module, a, b, g: GMap):
        self.module = module
        self.ring = module.ring
        self.a = tuple(x if isinstance(x, CoeffSeq) else make_coeff(module.ring, x)
                       for x in a)
        self.b = tuple(x if isinstance(x, CoeffSeq) else make_coeff(module.ring, x)
                       for x in b)
        if len(self.a) != len(self.b):
            raise ParseError(
                f"a and b must have equal length, got {len(self.a)} and {len(self.b)}")
        if not self.a:
            raise ParseError("a recurrence needs at least one coefficient")
        if g.module != module:
            raise ParseError("map module does not match recurrence module")
        self.g = g

    @property
    def k(self) -> int:
        return len(self.a) - 1

    @property
    def order(self) -> int:
        return len(self.a)

    @property
    def constant_coeffs(self) -> bool:
        return all(s.is_constant for s in self.a) and all(s.is_constant for s in self.b)

    @property
    def coeff_period(self) -> int:
        return _lcm([s.period for s in self.a] + [s.period for s in self.b])

    @property
    def b_is_zero(self) -> bool:
        return all(s.is_constant and s.at(0).is_zero for s in self.b)

    @functools.cached_property
    def kernel(self):
        """The step on payloads: kernel(n, hist) is x_{n+1}, where hist is a
        list of payload lists whose last k+1 entries are x_{n-k} .. x_n
        (oldest first).

        The step of phase n mod coeff_period is a generated function whose
        parameters after (n, hist) are that phase's nonzero coefficients.
        Its code depends only on which coefficients are nonzero, so it is
        compiled once per zero pattern; each phase, built on first use,
        shares that code with its own coefficient values as defaults.
        """
        eq, zero, period = self.ring._eq, self.ring.zero.v, self.coeff_period
        rows = self.a + self.b if self.g.uses_argument else self.a
        names = [f"{row}{i}" for row in "ab" for i in range(self.order)]
        templates: dict[tuple, types.FunctionType] = {}
        phases: dict[int, types.FunctionType] = {}

        def build(phase):
            used = [(name, seq.at(phase).v) for name, seq in zip(names, rows)]
            used = [(name, c) for name, c in used if not eq(c, zero)]
            params = tuple(name for name, _ in used)
            fn = templates.get(params) or templates.setdefault(params, self._generate(params))
            return types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                                      tuple(c for _, c in used))

        if period == 1:
            return build(0)

        def step(n, hist):
            phase = n % period
            return (phases.get(phase) or phases.setdefault(phase, build(phase)))(n, hist)
        return step

    def _generate(self, params):
        """The step function whose nonzero coefficients are ``params``: a<i>
        and b<i> stand for a_i(n) and b_i(n), and multiply x_{n-i} from the
        left."""
        ring, dim = self.ring, self.module.dim
        e = gm.Emitter(ring)
        for lag in sorted({int(c[1:]) for c in params}):
            e.unpack([f"x{lag}_{j}" for j in range(dim)], f"hist[{-1 - lag}]")

        def row_source(row, j):
            # from the zero payload, as an accumulator would: on float rings
            # 0.0 + -0.0 is 0.0, so the sign of a zero depends on it
            acc = "ZERO"
            for c in params:
                if c[0] == row:
                    acc = e.let(ring.src_add.format(acc, ring.src_mul.format(c, f"x{c[1:]}_{j}")))
            return acc

        outs = [row_source("a", j) for j in range(dim)]
        if self.g.uses_argument:
            for j in range(dim):
                e.lines.append(f"w{j} = {e.reduced(row_source('b', j))}")
        comps = self.g.emit(e)
        if comps is not None:
            outs = [ring.src_add.format(r, c) for r, c in zip(outs, comps)]
        return e.function(", ".join(["n", "hist", *params]),
                          f"[{', '.join(map(e.reduced, outs))}]")

    def step(self, n: int, window) -> Vec:
        """Compute x_{n+1} from window[i] = x_{n-i} (i = 0..k)."""
        if len(window) != self.order:
            raise ValueError(f"window must hold {self.order} values, got {len(window)}")
        hist = [self.module.payloads(x) for x in reversed(window)]
        return self.module.wrap(self.kernel(n, hist))

    def char_pair(self) -> tuple[Poly, Poly]:
        """The pair (P, Q) for constant coefficients:

        P(x) = x^{k+1} - a_0 x^k - ... - a_k
        Q(x) = b_0 x^k + b_1 x^{k-1} + ... + b_k
        """
        if not self.constant_coeffs:
            raise ParseError("characteristic pair needs constant coefficients")
        ring = self.ring
        k = self.k
        pc = [ring.zero] * (k + 2)
        pc[k + 1] = ring.one
        for i in range(k + 1):
            pc[k - i] = -self.a[i].at(0)
        qc = [ring.zero] * (k + 1)
        for i in range(k + 1):
            qc[k - i] = self.b[i].at(0)
        return Poly(ring, pc), Poly(ring, qc)

    def describe(self, var: str = "x") -> str:
        terms = []
        for i in range(self.order):
            s = self.a[i]
            if s.is_constant and s.at(0).is_zero:
                continue
            xs = f"{var}[n]" if i == 0 else f"{var}[n-{i}]"
            terms.append(_coeff_term(s, xs))
        inner = []
        for i in range(self.order):
            s = self.b[i]
            if s.is_constant and s.at(0).is_zero:
                continue
            xs = f"{var}[n]" if i == 0 else f"{var}[n-{i}]"
            inner.append(_coeff_term(s, xs))
        rhs = " + ".join(terms) if terms else ""
        if not self.g.is_zero:
            garg = " + ".join(inner) if inner else "0"
            gbit = f"g[n]({garg})" if self.g.uses_argument else "g[n]"
            rhs = f"{rhs} + {gbit}" if rhs else gbit
        if not rhs:
            rhs = "0"
        return f"{var}[n+1] = {rhs}".replace("+ -", "- ")

    def __repr__(self):
        return f"Recurrence({self.describe()} over {self.module})"


def _coeff_term(s: CoeffSeq, xs: str) -> str:
    if s.is_constant:
        c = s.at(0)
        if c == c.ring.one:
            return xs
        if c == -c.ring.one:
            return f"-{xs}"
        cs = str(c)
        if "+" in cs[1:] or "-" in cs[1:]:
            cs = f"({cs})"
        return f"{cs}*{xs}"
    return f"{s}*{xs}"


def make_coeff(ring: Ring, entry) -> CoeffSeq:
    """Config coefficient: a literal, or a list of literals (periodic)."""
    if isinstance(entry, list):
        if not entry:
            raise ParseError("a periodic coefficient needs at least one value")
        return CoeffSeq(ring.el(v) for v in entry)
    return CoeffSeq.constant(ring.el(entry))


# ---------------------------------------------------------------------------
# families


@dataclass
class FamilyInfo:
    """What a family constructor produced, kept for reporting and for the
    family-specific reduction routes."""

    kind: str
    params: dict
    recurrence: Recurrence


def build_family(module: Module, kind: str, params: dict, g: GMap) -> FamilyInfo:
    """Construct a recurrence from a named coefficient pattern.

    Supported kinds:

    * ``fsc``: params r (unit literal), b (list [b_1..b_k]); coefficient rows
      a_j = r*b_j - b_{j+1} with b_0 = 1, b_{k+1} = 0. The pair then satisfies
      P = (x - r) Q, so every root of Q is shared with P and the common-root
      search reduces to Q alone.
    * ``alsp``: params a (list [a_0..a_{k-1}], last entry nonzero), b (unit
      literal). Rows: a-row (a_0..a_{k-1}, 0), b-row (b, -a_0*b, ..,
      -a_{k-1}*b). Admits the one-step substitution factorization.
    * ``o2b``: params a (list [a_0..a_k]), j (gap position), b (literal).
      b-row is x_{n-j} - b*x_{n-j-1} (all other entries zero).
    * ``linear``: params a (list [a_0..a_k]), c (list of vector literals,
      periodic forcing). b-row is zero and g is the forcing sequence; the
      ``g`` argument passed in is ignored and must be zero/absent upstream.
    * ``second-order``: params a ([a_0, a_1]), b ([b_0, b_1]); entries may be
      periodic lists. Plain order-2 recurrence, kept as a family so configs
      can say what they mean.
    """
    ring = module.ring
    if kind == "fsc":
        r = ring.el(params["r"])
        if not r.is_unit:
            raise ParseError(f"fsc parameter r must be a unit, got {r}")
        btail = [ring.el(v) for v in params["b"]]
        if not btail:
            raise ParseError("fsc needs at least one b value")
        bfull = [ring.one] + btail + [ring.zero]
        a_row = [r * bfull[j] - bfull[j + 1] for j in range(len(bfull) - 1)]
        b_row = bfull[:-1]
        rec = Recurrence(module, a_row, b_row, g)
        return FamilyInfo(kind, {"r": r, "b": btail}, rec)
    if kind == "alsp":
        a_list = [ring.el(v) for v in params["a"]]
        if not a_list:
            raise ParseError("alsp needs at least one a value")
        if a_list[-1].is_zero:
            raise ParseError("alsp requires a nonzero last coefficient")
        b = ring.el(params["b"])
        if not b.is_unit:
            raise ParseError(f"alsp parameter b must be a unit, got {b}")
        a_row = a_list + [ring.zero]
        b_row = [b] + [-(a * b) for a in a_list]
        rec = Recurrence(module, a_row, b_row, g)
        return FamilyInfo(kind, {"a": a_list, "b": b}, rec)
    if kind == "o2b":
        a_row = [ring.el(v) for v in params["a"]]
        j = params["j"]
        b = ring.el(params["b"])
        if not isinstance(j, int) or j < 0 or j + 1 >= len(a_row):
            raise ParseError(f"o2b gap j={j!r} must satisfy 0 <= j <= k-1")
        b_row = [ring.zero] * len(a_row)
        b_row[j] = ring.one
        b_row[j + 1] = -b
        rec = Recurrence(module, a_row, b_row, g)
        return FamilyInfo(kind, {"a": a_row, "j": j, "b": b}, rec)
    if kind == "linear":
        a_row = [ring.el(v) for v in params["a"]]
        forcing = GMap.constant_sequence(module, [module.parse(v) for v in params["c"]])
        b_row = [ring.zero] * len(a_row)
        rec = Recurrence(module, a_row, b_row, forcing)
        return FamilyInfo(kind, {"a": a_row, "c": forcing.vec_values}, rec)
    if kind == "second-order":
        a_row = [make_coeff(ring, v) for v in params["a"]]
        b_row = [make_coeff(ring, v) for v in params["b"]]
        if len(a_row) != 2 or len(b_row) != 2:
            raise ParseError("second-order family needs exactly two a and two b entries")
        rec = Recurrence(module, a_row, b_row, g)
        return FamilyInfo(kind, {"a": a_row, "b": b_row}, rec)
    raise ParseError(f"unknown family kind {kind!r}")


def fold_system(module: Module, components: list[dict]) -> Recurrence:
    """Fold d scalar recurrences sharing coefficient rows into one recurrence.

    Each component dict has "a" (list), "b" (list), and "expr" (the g
    expression for that component). All components must agree on a and b
    (element-wise as periodic sequences); expressions may reference every
    component u1..ud. Sequences live under a shared "sequences" key per
    component and must agree where names repeat.
    """
    if len(components) != module.dim:
        raise NotFoldable(
            f"system has {len(components)} component(s) but the module dimension is {module.dim}")
    ring = module.ring
    rows = []
    for comp in components:
        a_row = [make_coeff(ring, v) for v in comp["a"]]
        b_row = [make_coeff(ring, v) for v in comp["b"]]
        rows.append((a_row, b_row))
    a0, b0 = rows[0]
    for idx, (a_row, b_row) in enumerate(rows[1:], start=2):
        if len(a_row) != len(a0) or len(b_row) != len(b0):
            raise NotFoldable(f"component {idx} has a different order")
        if any(x != y for x, y in zip(a_row, a0)) or any(x != y for x, y in zip(b_row, b0)):
            raise NotFoldable(f"component {idx} coefficients differ from component 1")
    seqs: dict = {}
    for idx, comp in enumerate(components, start=1):
        for name, vals in (comp.get("sequences") or {}).items():
            if name in seqs and list(seqs[name]) != list(vals):
                raise NotFoldable(f"sequence {name!r} differs between components")
            seqs[name] = vals
    g = GMap.expression(module, [comp["expr"] for comp in components], seqs)
    return Recurrence(module, a0, b0, g)
