"""The element oracle: ring values with operator arithmetic, for the tests.

The library computes on payloads only. Here an El wraps one payload with
its ring and gives it operators (+, -, *, right division a / b = a * b^-1,
** and unary -, with ints coerced into the ring), and a Vec is a tuple of
them, an element of the module R^d, with the left action r * v. Every
operator calls one of the ring's canonical payload operations (_add, _neg,
_mul, _inv, _eq), never generated code. _add and _mul are the ring's lazy
sum and product brought to the canonical payload at once, so the oracle
reduces after every operation, where generated code reduces lazily across
an expression; that difference is what the oracle checks.

On that arithmetic, step, apply and eval_expr evaluate a recurrence, its
map and an expression the way the recurrence is written, and
criterion_check tests a reduction from its defining property; none of them
runs a kernel, so they stay independent of the code they check. The
helpers el, vec and wrap build elements from literals or payloads, and
padd, psub and pmul add, subtract and multiply polynomials (scfactor.Poly,
which has no operators) coefficient by coefficient.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from scfactor import DivisionByNonUnit, ParseError, Poly, TanhUnsupported


class El:
    """One ring element: a payload tagged with its ring.

    Arithmetic delegates to the ring's payload operations. Mixing elements
    of different rings raises ValueError. Plain ints coerce into the ring.
    """

    __slots__ = ("ring", "v")

    def __init__(self, ring, v):
        self.ring = ring
        self.v = v

    def _other(self, x):
        if isinstance(x, El):
            if x.ring is not self.ring and x.ring != self.ring:
                raise ValueError(f"mixed rings: {self.ring} and {x.ring}")
            return x.v
        if isinstance(x, int):
            return self.ring.payload(x)
        return NotImplemented

    def __add__(self, x):
        w = self._other(x)
        return NotImplemented if w is NotImplemented else El(self.ring, self.ring._add(self.v, w))

    __radd__ = __add__

    def __sub__(self, x):
        w = self._other(x)
        return NotImplemented if w is NotImplemented else \
            El(self.ring, self.ring._add(self.v, self.ring._neg(w)))

    def __rsub__(self, x):
        w = self._other(x)
        return NotImplemented if w is NotImplemented else \
            El(self.ring, self.ring._add(w, self.ring._neg(self.v)))

    def __neg__(self):
        return El(self.ring, self.ring._neg(self.v))

    def __mul__(self, x):
        if isinstance(x, Vec):
            return NotImplemented  # handled by Vec.__rmul__
        w = self._other(x)
        return NotImplemented if w is NotImplemented else El(self.ring, self.ring._mul(self.v, w))

    def __rmul__(self, x):
        w = self._other(x)
        return NotImplemented if w is NotImplemented else El(self.ring, self.ring._mul(w, self.v))

    def __truediv__(self, x):
        """Right division: a / b = a * b**-1."""
        if isinstance(x, (El, int)):
            return self * el(self.ring, x).inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (self ** (-n)).inverse()
        out = el(self.ring, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "El":
        w = self.ring._inv(self.v)
        if w is None:
            raise DivisionByNonUnit(f"{self.ring.fmt(self.v)} is not a unit in {self.ring}")
        return El(self.ring, w)

    @property
    def is_unit(self) -> bool:
        return self.ring._inv(self.v) is not None

    @property
    def is_zero(self) -> bool:
        return self.ring._eq(self.v, self.ring.zero)

    def __eq__(self, x):
        if isinstance(x, int):
            x = el(self.ring, x)
        if not isinstance(x, El) or x.ring is not self.ring and x.ring != self.ring:
            return NotImplemented
        return self.ring._eq(self.v, x.v)

    def __hash__(self):
        if not self.ring.exact:
            raise TypeError(f"elements of {self.ring} are not hashable (inexact equality)")
        return hash((self.ring.kind, self.v))

    def sort_key(self):
        return self.ring._key(self.v)

    def __str__(self):
        return self.ring.fmt(self.v)

    def __repr__(self):
        return f"<{self.ring.fmt(self.v)} in {self.ring}>"


class Vec:
    """An element of the left module R^d: a tuple of ring elements."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("empty vector")

    @property
    def ring(self):
        return self.parts[0].ring

    @property
    def dim(self) -> int:
        return len(self.parts)

    @property
    def v(self) -> list:
        """The component payloads, as the library's functions take them."""
        return [c.v for c in self.parts]

    def _check(self, other: "Vec"):
        if not isinstance(other, Vec) or other.dim != self.dim:
            raise ValueError("vector dimension mismatch")

    def __add__(self, other):
        self._check(other)
        return Vec(a + b for a, b in zip(self.parts, other.parts))

    def __sub__(self, other):
        self._check(other)
        return Vec(a - b for a, b in zip(self.parts, other.parts))

    def __neg__(self):
        return Vec(-a for a in self.parts)

    def __rmul__(self, scalar):
        """Left action r * v, applied componentwise."""
        if isinstance(scalar, int):
            scalar = el(self.ring, scalar)
        if not isinstance(scalar, El):
            return NotImplemented
        return Vec(scalar * a for a in self.parts)

    def __eq__(self, other):
        if not isinstance(other, Vec) or other.dim != self.dim:
            return NotImplemented
        return all(a == b for a, b in zip(self.parts, other.parts))

    def __hash__(self):
        return hash(tuple(self.parts))

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.parts)

    def __str__(self):
        if self.dim == 1:
            return str(self.parts[0])
        return "(" + ", ".join(str(a) for a in self.parts) + ")"

    __repr__ = __str__


def el(ring, x) -> El:
    """An element of ``ring`` from anything ring.payload accepts, or an El
    of the same ring."""
    if isinstance(x, El):
        if x.ring is not ring and x.ring != ring:
            raise ValueError(f"element of {x.ring} used in {ring}")
        return x
    return El(ring, ring.payload(x))


def vec(module, xs) -> Vec:
    """A vector of ``module`` from a list of component values (what el
    accepts), or from one value when d = 1."""
    if isinstance(xs, Vec):
        if xs.dim != module.dim or xs.ring != module.ring:
            raise ValueError(f"vector does not belong to {module}")
        return xs
    if not isinstance(xs, (list, tuple)):
        xs = [xs]
    if len(xs) != module.dim:
        raise ParseError(f"expected {module.dim} components, got {len(xs)}")
    return Vec(el(module.ring, x) for x in xs)


def wrap(ring, payloads) -> Vec:
    """The vector with these component payloads."""
    return Vec([El(ring, p) for p in payloads])


def zero_vec(module) -> Vec:
    return wrap(module.ring, [module.ring.zero] * module.dim)


def seq_els(seq) -> list[El]:
    """The values of a CoeffSeq as elements."""
    return [El(seq.ring, v) for v in seq.values]


# ---------------------------------------------------------------------------
# polynomial arithmetic


def padd(a: Poly, b: Poly) -> Poly:
    ring = a.ring
    return Poly.of(ring, [ring._add(x, y)
                          for x, y in zip_longest(a.cs, b.cs, fillvalue=ring.zero)])


def psub(a: Poly, b: Poly) -> Poly:
    ring = a.ring
    return Poly.of(ring, [ring._add(x, ring._neg(y))
                          for x, y in zip_longest(a.cs, b.cs, fillvalue=ring.zero)])


def pmul(first: Poly, *rest: Poly) -> Poly:
    """The product of the polynomials, left to right, schoolbook."""
    ring, out = first.ring, first
    for b in rest:
        if not out.cs or not b.cs:
            out = Poly.of(ring, [])
            continue
        cs = [ring.zero] * (len(out.cs) + len(b.cs) - 1)
        for i, x in enumerate(out.cs):
            for j, y in enumerate(b.cs):
                cs[i + j] = ring._add(cs[i + j], ring._mul(x, y))
        out = Poly.of(ring, cs)
    return out


# ---------------------------------------------------------------------------
# the recurrence and its map on elements


def eval_expr(ast, ring, u, seqs, n: int) -> El:
    """One map expression at step n, node by node: u lists the argument's
    components and seqs maps names to tuples of elements. A breakdown
    raises as the generated code does, with the same reason and step."""
    op = ast[0]
    if op == "int":
        return el(ring, ast[1])
    if op == "u":
        return u[ast[1] - 1]
    if op == "seq":
        vals = seqs[ast[1]]
        return vals[n % len(vals)]
    if op == "neg":
        return -eval_expr(ast[1], ring, u, seqs, n)
    if op == "inv":
        val = eval_expr(ast[1], ring, u, seqs, n)
        if not val.is_unit:
            raise DivisionByNonUnit(f"inv of non-unit {val}", n=n)
        return val.inverse()
    if op == "tanh":
        val = eval_expr(ast[1], ring, u, seqs, n)
        z = val.v
        if abs(z.imag) > ring.tol * max(1.0, abs(z.real)):
            raise TanhUnsupported(f"tanh argument {val} has a non-negligible imaginary part", n=n)
        return El(ring, complex(math.tanh(z.real), 0.0))
    left = eval_expr(ast[1], ring, u, seqs, n)
    right = eval_expr(ast[2], ring, u, seqs, n)
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    if not right.is_unit:
        raise DivisionByNonUnit(f"division by non-unit {right}", n=n)
    return left * right.inverse()


def apply(g, n: int, w: Vec) -> Vec:
    """g_n(w), dispatching on the map's shape."""
    ring = g.module.ring
    if g.kind == "zero":
        return zero_vec(g.module)
    if g.kind == "constant-sequence":
        return Vec(El(ring, s[n % len(s)]) for s in g.seqs.values())
    if g.kind == "linear-scale":
        c = g.seqs[0]
        return El(ring, c[n % len(c)]) * w
    seqs = {name: tuple(El(ring, v) for v in vals) for name, vals in g.seqs.items()}
    return Vec(eval_expr(ast, ring, w.parts, seqs, n) for ast in g.exprs)


def _row(rec, row, n: int, window) -> list:
    """sum_i row_i(n) x_{n-i} from the zero payload, with every coefficient
    that is zero at n left out."""
    ring = rec.ring
    acc = [ring.zero] * rec.module.dim
    for seq, x in zip(row, window):
        c = seq.at(n)
        if ring._eq(c, ring.zero):
            continue
        for j, p in enumerate(x.parts):
            acc[j] = ring._add(acc[j], ring._mul(c, p.v))
    return acc


def step(rec, n: int, window) -> Vec:
    """x_{n+1} from window[i] = x_{n-i} (i = 0..k), Vec values."""
    ring = rec.ring
    acc = _row(rec, rec.a, n, window)
    if not rec.g.is_zero:
        arg = wrap(ring, _row(rec, rec.b, n, window)) if rec.g.uses_argument else \
            zero_vec(rec.module)
        acc = [ring._add(s, t.v) for s, t in zip(acc, apply(rec.g, n, arg).parts)]
    return wrap(ring, acc)


# ---------------------------------------------------------------------------
# the reduction criterion


def _zeta_chain(rec, alpha, n: int, u0: Vec, probes) -> list[Vec]:
    """Backward substitution values zeta_0..zeta_k given the probes v_1..v_k.

    zeta_j = (alpha_{n-1}..alpha_{n-j})^(-1) u0
             - sum_{i=1..j} (alpha_{n-i}..alpha_{n-j})^(-1) v_i
    """
    ring = rec.ring

    def inverse(i, j):
        acc = El(ring, alpha.at(n - i))
        for m in range(i + 1, j + 1):
            acc = acc * El(ring, alpha.at(n - m))
        return acc.inverse()
    zetas = [u0]
    for j in range(1, rec.order):
        acc = inverse(1, j) * u0
        for i in range(1, j + 1):
            acc = acc - inverse(i, j) * probes[i - 1]
        zetas.append(acc)
    return zetas


def criterion_check(rec, alpha, n: int, u0_a: Vec, u0_b: Vec, probes) -> bool:
    """Does f_n(zeta chain) - alpha_n zeta_0 agree for two leading values?

    The expression f_n(zeta_0, .., zeta_k) - alpha_n zeta_0 must not depend
    on the free leading value zeta_0 once the remaining zeta_j are pinned by
    probes; testing two leading values against one probe tuple gives a
    refutable instance of that independence. ``alpha`` is a CoeffSeq.
    """
    if len(probes) != rec.k:
        raise ValueError(f"need {rec.k} probe value(s), got {len(probes)}")
    outs = []
    for u0 in (u0_a, u0_b):
        zetas = _zeta_chain(rec, alpha, n, u0, probes)
        outs.append(step(rec, n, zetas) - El(rec.ring, alpha.at(n)) * u0)
    return outs[0] == outs[1]
