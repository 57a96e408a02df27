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

The step inlines g and reads each coefficient at n from its period, so the
same code serves every n: Recurrence.emit_periodic_step writes it into the
engine's one step loop. Each object names the values its code reads
(values) and what else its code depends on (shape), so the code is written
once per shape. Recurrence.kernel and GMap.kernel are the step and the map
alone as generated Python functions on raw ring payloads (gmap.generated),
built on first use; they serve only Recurrence.step and GMap.apply, which
call them on payload lists, one per vector.
"""

from __future__ import annotations

import functools
import math
import re as _re

from . import gmap as gm
from .errors import GMapSyntaxError, NotFoldable, ParseError
from .poly import Poly
from .rings import Module, Ring


class CoeffSeq:
    """A periodic sequence of payloads of ``ring``; period = number of
    stored values.

    at(n) is well defined for negative n too (periodic extension), which the
    factor construction relies on once periodicity is proved. Values are
    compared by the ring's equality, so float tolerance holds.
    """

    __slots__ = ("ring", "values")

    def __init__(self, ring: Ring, values):
        vals = tuple(values)
        if not vals:
            raise ParseError("coefficient sequence needs at least one value")
        self.ring = ring
        self.values = vals

    @classmethod
    def constant(cls, ring: Ring, value) -> "CoeffSeq":
        return cls(ring, (value,))

    @property
    def period(self) -> int:
        return len(self.values)

    @property
    def is_constant(self) -> bool:
        vals = self.values
        return len(vals) == 1 or all(self.ring._eq(v, vals[0]) for v in vals[1:])

    def at(self, n: int):
        return self.values[n % len(self.values)]

    def reduced(self) -> "CoeffSeq":
        """Collapse to the least divisor period that reproduces the values."""
        eq, vals = self.ring._eq, self.values
        n = len(vals)
        for p in range(1, n):
            if n % p == 0 and all(eq(vals[i], vals[i % p]) for i in range(n)):
                return CoeffSeq(self.ring, vals[:p])
        return self

    def __eq__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        n = math.lcm(self.period, other.period)
        return all(self.ring._eq(self.at(i), other.at(i)) for i in range(n))

    def __str__(self):
        fmt = self.ring.fmt
        if len(self.values) == 1:
            return fmt(self.values[0])
        return "{" + ", ".join(map(fmt, self.values)) + "}@n"

    __repr__ = __str__


class GMap:
    """One of the four supported shapes of the nonlinear map g_n."""

    def __init__(self, kind: str, module: Module, seqs=None, exprs=None, sources=None):
        self.kind = kind
        self.module = module
        # the periodic sequences as payload tuples: the forcing per
        # component j under key j, the scale under key 0, and an
        # expression's sequences under their names
        self.seqs = dict(seqs) if seqs is not None else {}
        self.exprs = tuple(exprs) if exprs is not None else None
        self.sources = tuple(sources) if sources is not None else None

    @classmethod
    def zero(cls, module: Module) -> "GMap":
        return cls("zero", module)

    @classmethod
    def constant_sequence(cls, module: Module, values) -> "GMap":
        """The forcing d_n = values[n % len(values)], each value what
        Module.payloads accepts."""
        vals = [module.payloads(v) for v in values]
        if not vals:
            raise ParseError("constant-sequence map needs at least one value")
        return cls("constant-sequence", module, dict(enumerate(zip(*vals))))

    @classmethod
    def linear_scale(cls, module: Module, values) -> "GMap":
        vals = tuple(module.ring.payload(v) for v in values)
        if not vals:
            raise ParseError("linear-scale map needs at least one value")
        return cls("linear-scale", module, {0: vals})

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
            parsed_seqs[name] = tuple(module.ring.payload(v) for v in vals)
        asts = []
        for text in exprs:
            ast = gm.parse_expr(text)
            gm.validate_expr(ast, module.dim, set(parsed_seqs), module.ring)
            asts.append(ast)
        return cls("expression", module, parsed_seqs, asts, exprs)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def uses_argument(self) -> bool:
        """Whether g_n actually reads its argument (false for zero/forcing)."""
        return self.kind in ("linear-scale", "expression")

    @property
    def period(self) -> int:
        return math.lcm(*(len(v) for v in self.seqs.values()))

    @functools.cached_property
    def _form(self) -> tuple:
        """(literals, form) of an expression map (gmap.expr_form), else
        no literal and no form."""
        return ((), None) if self.exprs is None else gm.expr_form(self.exprs, tuple(self.seqs))

    @property
    def shape(self) -> tuple:
        """What of the map's code the roles of its values do not tell: the
        kind and the form of its ASTs."""
        return self.kind, self._form[1]

    def values(self, tag: str) -> dict:
        """The values emit(e, tag) reads, by role (gmap.map_values)."""
        out: dict = {}
        gm.map_values(out, tag, self._form[0], self.seqs, self.module.ring)
        return out

    def emit(self, e: gm.Emitter, tag: str) -> list[str] | None:
        """Emit g_n into ``e``, reading its values under ``tag`` and its
        argument from the locals w0 .. w<d-1>; returns the source of each
        output component, unreduced, or None for the zero map."""
        ring, dim = self.module.ring, self.module.dim
        if self.kind == "zero":
            return None
        if self.kind == "constant-sequence":
            return [e.seq(tag, j) for j in range(dim)]
        if self.kind == "linear-scale":
            c = e.seq(tag, 0)
            return [ring.src_mul.format(c, f"w{j}") for j in range(dim)]
        return e.exprs(self._form[1], tag)

    @functools.cached_property
    def kernel(self):
        """g_n on payloads: kernel(n, w) maps the argument's payload list w
        to a payload list. None for the zero map. The code is generated once
        per process for each shape (gmap.generated)."""
        if self.kind == "zero":
            return None

        def emit(e):
            e.block("def kernel(n, w):")
            e.unpack([f"w{j}" for j in range(self.module.dim)], "w")
            e.line(f"return [{', '.join(map(e.reduced, self.emit(e, 'G')))}]")
            e.end()
            return "", "kernel"
        return gm.generated(self.module.ring, ("map", self.module.dim, self.shape),
                            self.values("G"), emit)

    def apply(self, n: int, w: list) -> list:
        """g_n at the argument's payload list w, as a payload list."""
        if self.kernel is None:
            return [self.module.ring.zero] * self.module.dim
        return self.kernel(n, w)


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

    @functools.cached_property
    def constant_coeffs(self) -> bool:
        return all(s.is_constant for s in self.a) and all(s.is_constant for s in self.b)

    @functools.cached_property
    def coeff_period(self) -> int:
        return math.lcm(*(s.period for s in self.a), *(s.period for s in self.b))

    @property
    def shape(self) -> tuple:
        """What of the step's code its values' roles do not tell: the order
        and the map's shape."""
        return self.order, self.g.shape

    @functools.cached_property
    def _rows(self) -> dict:
        """The coefficient rows the step reads, by name (a0 .., then b0 ..
        when g reads its argument): each row that is not zero (by the ring's
        equality) in every phase, with its zeros stored as the zero
        payload, so that they add an exact zero."""
        eq, zero = self.ring._eq, self.ring.zero
        names = [f"{row}{i}" for row in "ab" for i in range(self.order)]
        rows = {}
        for name, seq in zip(names, self.a + self.b if self.g.uses_argument else self.a):
            nonzero = [not eq(c, zero) for c in seq.values]
            if any(nonzero):
                rows[name] = tuple(c if nz else zero for c, nz in zip(seq.values, nonzero))
        return rows

    def values(self, tag: str, gtag: str) -> dict:
        """The values emit_periodic_step(e, x, tag, gtag) reads, by role."""
        out = self.g.values(gtag)
        for name, row in self._rows.items():
            gm.seq_values(out, tag, name, row)
        return out

    @functools.cached_property
    def kernel(self):
        """The step on payloads: kernel(n, hist) is x_{n+1}, where hist is a
        list of payload lists whose last k+1 entries are x_{n-k} .. x_n
        (oldest first). It runs the code of emit_periodic_step, generated
        once per process for each shape of recurrence (gmap.generated)."""
        def emit(e):
            e.block("def kernel(n, hist):")
            for i in range(self.order):
                e.unpack([f"x{i}_{j}" for j in range(self.module.dim)], f"hist[{-1 - i}]")
            outs = self.emit_periodic_step(e, "x{}_{}", "X", "G")
            e.line(f"return [{', '.join(map(e.reduced, outs))}]")
            e.end()
            return "", "kernel"
        return gm.generated(self.ring, ("step", self.module.dim, self.shape),
                            self.values("X", "G"), emit)

    def emit_periodic_step(self, e: gm.Emitter, x: str, tag: str, gtag: str) -> list[str]:
        """Emit x_{n+1} into ``e`` and return each component's source,
        unreduced; x.format(i, j) is the local holding component j of
        x_{n-i}, and the values are read under ``tag`` (the rows) and
        ``gtag`` (the map), as values(tag, gtag) stores them. Each
        coefficient a_i(n), b_i(n) is read at n from its period and
        multiplies x_{n-i} from the left, and each row sum is one
        expression (Emitter.fold)."""
        ring, dim = self.ring, self.module.dim
        coeffs = {name: e.seq(tag, name) for name in self._rows}

        def row_source(row, j):
            # on float rings from the zero payload, as an accumulator would:
            # 0.0 + -0.0 is 0.0, so the sign of a zero depends on it
            terms = [ring.src_mul.format(c, x.format(name[1:], j))
                     for name, c in coeffs.items() if name[0] == row]
            return e.fold(None if ring.exact else "ZERO", terms) or "ZERO"

        outs = [row_source("a", j) for j in range(dim)]
        if self.g.uses_argument:
            for j in range(dim):
                e.line(f"w{j} = {e.reduced(row_source('b', j))}")
        comps = self.g.emit(e, gtag)
        if comps is not None:
            outs = [ring.src_add.format(r, c) for r, c in zip(outs, comps)]
        return outs

    def step(self, n: int, window) -> list:
        """The payload list of x_{n+1}, from the payload lists
        window[i] = x_{n-i} (i = 0..k)."""
        if len(window) != self.order:
            raise ValueError(f"window must hold {self.order} values, got {len(window)}")
        return self.kernel(n, window[::-1])

    def char_pair(self) -> tuple[Poly, Poly]:
        """The pair (P, Q) for constant coefficients:

        P(x) = x^{k+1} - a_0 x^k - ... - a_k
        Q(x) = b_0 x^k + b_1 x^{k-1} + ... + b_k
        """
        if not self.constant_coeffs:
            raise ParseError("characteristic pair needs constant coefficients")
        ring = self.ring
        pc = [ring._neg(s.values[0]) for s in reversed(self.a)] + [ring.one]
        return Poly.of(ring, pc), Poly.of(ring, [s.values[0] for s in reversed(self.b)])

    def describe(self, var: str = "x") -> str:
        ring = self.ring
        zero = ring.zero

        def row_terms(row):
            out = []
            for i, s in enumerate(row):
                xs = f"{var}[n]" if i == 0 else f"{var}[n-{i}]"
                if not s.is_constant:
                    out.append(f"{s}*{xs}")
                elif not ring._eq(s.values[0], zero):
                    out.append(ring.fmt_term(s.values[0], xs))
            return out
        terms, inner = row_terms(self.a), row_terms(self.b)
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


def make_coeff(ring: Ring, entry) -> CoeffSeq:
    """A coefficient: what ring.payload accepts, or a list of such values
    (periodic)."""
    if isinstance(entry, list):
        if not entry:
            raise ParseError("a periodic coefficient needs at least one value")
        return CoeffSeq(ring, [ring.payload(v) for v in entry])
    return CoeffSeq.constant(ring, ring.payload(entry))


# ---------------------------------------------------------------------------
# families


class FamilyInfo:
    """What a family constructor produced, kept for reporting and for the
    family-specific reduction routes."""

    __slots__ = ("kind", "params", "recurrence")

    def __init__(self, kind: str, params: dict, recurrence: Recurrence):
        self.kind = kind
        self.params = params
        self.recurrence = recurrence


def build_family(module: Module, kind: str, params: dict, g: GMap) -> FamilyInfo:
    """Construct a recurrence from a named coefficient pattern; params are
    literals or payloads, and the rows are computed on payloads.

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
    add, neg, mul, fmt = ring._add, ring._neg, ring._mul, ring.fmt

    def constant_rows(a_row, b_row, gmap):
        # the rows are canonical payloads already, so Recurrence keeps them
        return Recurrence(module, [CoeffSeq.constant(ring, v) for v in a_row],
                          [CoeffSeq.constant(ring, v) for v in b_row], gmap)

    if kind == "fsc":
        r = ring.payload(params["r"])
        if ring._inv(r) is None:
            raise ParseError(f"fsc parameter r must be a unit, got {fmt(r)}")
        btail = [ring.payload(v) for v in params["b"]]
        if not btail:
            raise ParseError("fsc needs at least one b value")
        bfull = [ring.one] + btail + [ring.zero]
        a_row = [add(mul(r, bfull[j]), neg(bfull[j + 1])) for j in range(len(bfull) - 1)]
        b_row = bfull[:-1]
        rec = constant_rows(a_row, b_row, g)
        return FamilyInfo(kind, {"r": r, "b": btail}, rec)
    if kind == "alsp":
        a_list = [ring.payload(v) for v in params["a"]]
        if not a_list:
            raise ParseError("alsp needs at least one a value")
        if ring._eq(a_list[-1], ring.zero):
            raise ParseError("alsp requires a nonzero last coefficient")
        b = ring.payload(params["b"])
        if ring._inv(b) is None:
            raise ParseError(f"alsp parameter b must be a unit, got {fmt(b)}")
        a_row = a_list + [ring.zero]
        b_row = [b] + [neg(mul(a, b)) for a in a_list]
        rec = constant_rows(a_row, b_row, g)
        return FamilyInfo(kind, {"a": a_list, "b": b}, rec)
    if kind == "o2b":
        a_row = [ring.payload(v) for v in params["a"]]
        j = params["j"]
        b = ring.payload(params["b"])
        if not isinstance(j, int) or j < 0 or j + 1 >= len(a_row):
            raise ParseError(f"o2b gap j={j!r} must satisfy 0 <= j <= k-1")
        b_row = [ring.zero] * len(a_row)
        b_row[j] = ring.one
        b_row[j + 1] = neg(b)
        rec = constant_rows(a_row, b_row, g)
        return FamilyInfo(kind, {"a": a_row, "j": j, "b": b}, rec)
    if kind == "linear":
        a_row = [ring.payload(v) for v in params["a"]]
        forcing = GMap.constant_sequence(module, params["c"])
        b_row = [ring.zero] * len(a_row)
        rec = constant_rows(a_row, b_row, forcing)
        return FamilyInfo(kind, {"a": a_row, "c": list(zip(*forcing.seqs.values()))}, rec)
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
