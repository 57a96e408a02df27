"""The small expression language for nonlinear maps g_n.

Grammar (whitespace ignored between tokens):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := INT | 'u'DIGITS | IDENT '[n]' | '(' expr ')'
            | '-' factor | ('inv' | 'tanh') '(' expr ')'
    IDENT  := [a-z][a-z0-9_]*

``uK`` is the K-th component (1-based) of the map argument vector. ``c[n]``
is the current value of a named periodic ring-element sequence. ``/`` is
right division (a * b**-1), which is the meaningful order for quaternions.
``inv`` is the two-sided inverse. ``tanh`` is only available over the
float-complex ring and only for values with negligible imaginary part.

ASTs are plain tuples:

    ('int', k) ('u', i) ('seq', name)
    ('add'|'sub'|'mul'|'div', left, right)
    ('neg', child) ('inv', child) ('tanh', child)

format_expr renders a canonical string whose parse returns the identical
tuple tree (binary nodes fully parenthesized, unary children parenthesized).

Emitter writes trees as generated Python functions on ring payloads, with
each ring's operations as source text (Ring.src_add and the other
templates): operators on residues, rationals and complex floats, calls to
payload functions on the other rings. Residues are reduced mod m lazily: at
the outputs, before every inverse (so a breakdown names the reduced
residue), and in products of more than MAX_LAZY_FACTORS factors.
GMap.kernel and Recurrence.kernel are built on it; eval_expr is a wrapper
for one evaluation on El values.
"""

from __future__ import annotations

import itertools
import math
import re

from .errors import DivisionByNonUnit, GMapSyntaxError, TanhUnsupported
from .rings import El, FloatComplex, Ring

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[a-z][a-z0-9_]*)|(?P<punct>[-+*/()\[\]]))"
)

_FUNCS = ("inv", "tanh")

# Deepest expression accepted, counting both the parser's nesting (parentheses,
# unary minus, inv, tanh) and the depth of the AST, which long chains of binary
# operators also grow. Evaluation and formatting recurse once per level.
MAX_EXPR_DEPTH = 200


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise GMapSyntaxError(f"unexpected character {rest[0]!r}", pos)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("punct", m.group("punct"), m.start("punct")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_punct(self, ch: str):
        kind, val, pos = self.take()
        if kind is None:
            raise GMapSyntaxError(f"expected {ch!r}, found end of expression", pos)
        if kind != "punct" or val != ch:
            raise GMapSyntaxError(f"expected {ch!r}, found {val!r}", pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise GMapSyntaxError(f"unexpected trailing {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "punct" and val in "+-":
                self.take()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "punct" and val in "*/":
                self.take()
                rhs = self.factor()
                node = ("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def factor(self):
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise GMapSyntaxError(
                f"expression nests deeper than {MAX_EXPR_DEPTH} levels", self.peek()[2])
        node = self._factor()
        self.depth -= 1
        return node

    def _factor(self):
        kind, val, pos = self.take()
        if kind == "int":
            return ("int", int(val))
        if kind == "punct" and val == "-":
            return ("neg", self.factor())
        if kind == "punct" and val == "(":
            node = self.expr()
            self.expect_punct(")")
            return node
        if kind == "ident":
            if val in _FUNCS:
                self.expect_punct("(")
                node = self.expr()
                self.expect_punct(")")
                return (val, node)
            m = re.fullmatch(r"u(\d+)", val)
            if m:
                return ("u", int(m.group(1)))
            self.expect_punct("[")
            k2, v2, p2 = self.take()
            if k2 != "ident" or v2 != "n":
                raise GMapSyntaxError(f"sequence {val!r} must be indexed as {val}[n]", p2)
            self.expect_punct("]")
            return ("seq", val)
        if kind is None:
            raise GMapSyntaxError("unexpected end of expression", pos)
        raise GMapSyntaxError(f"unexpected token {val!r}", pos)


def parse_expr(text: str):
    """Parse one expression into its AST tuple tree."""
    if not isinstance(text, str) or not text.strip():
        raise GMapSyntaxError("empty expression")
    ast = _Parser(text).parse()
    depth, stack = 0, [(ast, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in node[1:] if isinstance(c, tuple))
    if depth > MAX_EXPR_DEPTH:
        raise GMapSyntaxError(f"expression nests deeper than {MAX_EXPR_DEPTH} levels")
    return ast


def validate_expr(ast, dim: int, seq_names, ring: Ring):
    """Reject unknown sequence names, out-of-range components, and tanh
    outside the float-complex ring. Raises GMapSyntaxError/TanhUnsupported."""
    op = ast[0]
    if op == "int":
        return
    if op == "u":
        if not (1 <= ast[1] <= dim):
            raise GMapSyntaxError(
                f"u{ast[1]} is out of range for a {dim}-component argument")
        return
    if op == "seq":
        if ast[1] not in seq_names:
            raise GMapSyntaxError(f"unknown identifier {ast[1]!r}")
        return
    if op == "tanh" and not isinstance(ring, FloatComplex):
        raise TanhUnsupported(f"tanh is only available over float-complex, not {ring}")
    for child in ast[1:]:
        validate_expr(child, dim, seq_names, ring)


def expr_identifiers(ast) -> set[str]:
    out = set()
    if ast[0] == "seq":
        out.add(ast[1])
    for child in ast[1:]:
        if isinstance(child, tuple):
            out |= expr_identifiers(child)
    return out


# A product of more than this many residues is reduced mod m on the spot, so
# lazy reduction keeps every intermediate int within a few times the size of m
# however long the expression is.
MAX_LAZY_FACTORS = 4


def _checked_inverse(ring: Ring, what: str):
    inv, fmt = ring._inv, ring.fmt

    def checked(v, n):
        w = inv(v)
        if w is None:
            raise DivisionByNonUnit(f"{what} {fmt(v)}", n=n)
        return w
    return checked


def _tanh(ring: Ring):
    def tanh(z, n):
        if not isinstance(ring, FloatComplex):
            raise TanhUnsupported(f"tanh is only available over float-complex, not {ring}", n=n)
        if abs(z.imag) > ring.tol * max(1.0, abs(z.real)):
            raise TanhUnsupported(
                f"tanh argument {ring.fmt(z)} has a non-negligible imaginary part", n=n)
        return complex(math.tanh(z.real), 0.0)
    return tanh


class Emitter:
    """Python source for one function on a ring's payloads, built line by line.

    Values are bound in the namespace ``ns`` (K<i> literals, S<i> and P<i>
    sequences and their periods, the ring's operations, ZERO, m, and DIV,
    INV and TANH, which raise breakdowns carrying the step n), so the source
    holds no config text. Each line is one operation into a fresh local t<i>,
    in evaluation order, so no expression meets the parser's nesting limit.
    Operands keep their order (left * right); ``/`` is left * right^-1.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.ns = {"_add": ring._add, "_neg": ring._neg, "_mul": ring._mul,
                   "ZERO": ring.zero.v, "m": ring.char(),
                   "DIV": _checked_inverse(ring, "division by non-unit"),
                   "INV": _checked_inverse(ring, "inv of non-unit"), "TANH": _tanh(ring)}
        self.lines: list[str] = []
        self._ids = itertools.count()
        self._seqs: dict = {}

    def bind(self, value, prefix: str = "K") -> str:
        name = f"{prefix}{next(self._ids)}"
        self.ns[name] = value
        return name

    def let(self, text: str) -> str:
        name = f"t{next(self._ids)}"
        self.lines.append(f"{name} = {text}")
        return name

    def unpack(self, names, source: str) -> None:
        self.lines.append(f"[{', '.join(names)}] = {source}")

    def reduced(self, text: str) -> str:
        fmt = self.ring.src_reduce
        return text if fmt is None else fmt.format(text)

    def seq(self, key, values) -> str:
        """The value at step n of a periodic payload sequence, read once."""
        if key not in self._seqs:
            self._seqs[key] = self.bind(values[0]) if len(values) == 1 else \
                self.let(f"{self.bind(tuple(values), 'S')}[n % {self.bind(len(values), 'P')}]")
        return self._seqs[key]

    def expr(self, ast, seqs) -> str:
        """Emit one AST; returns the source of its value. u<i> reads the
        local w<i-1>; seqs maps sequence names to payload tuples."""
        return self._expr(ast, seqs)[0]

    def _expr(self, ast, seqs):
        """(source, factors): the value is at most a product of ``factors``
        reduced values, up to sums, when the ring reduces lazily."""
        ring, op = self.ring, ast[0]
        if op == "int":
            return self.bind(ring.from_int(ast[1]).v), 1
        if op == "u":
            return f"w{ast[1] - 1}", 1
        if op == "seq":
            return self.seq(ast[1], seqs[ast[1]]), 1
        if op not in ("add", "sub", "mul", "div", "neg", "inv", "tanh"):
            raise GMapSyntaxError(f"unknown AST node {op!r}")
        left, lf = self._expr(ast[1], seqs)
        if op == "neg":
            return self.let(ring.src_neg.format(left)), lf
        if op in ("inv", "tanh"):
            return self.let(f"{op.upper()}({self.reduced(left)}, n)"), 1
        right, rf = self._expr(ast[2], seqs)
        if op in ("add", "sub"):
            fmt = ring.src_add if op == "add" else ring.src_sub
            return self.let(fmt.format(left, right)), max(lf, rf)
        if op == "div":
            right, rf = self.let(f"DIV({self.reduced(right)}, n)"), 1
        product = ring.src_mul.format(left, right)
        if lf + rf > MAX_LAZY_FACTORS and ring.src_reduce is not None:
            return self.let(self.reduced(product)), 1
        return self.let(product), lf + rf

    def function(self, params: str, result: str):
        """Compile the lines as ``def kernel(params)`` returning ``result``."""
        body = "".join(f"    {line}\n" for line in [*self.lines, f"return {result}"])
        exec(compile(f"def kernel({params}):\n{body}", "<scfactor kernel>", "exec"), self.ns)
        return self.ns["kernel"]


def eval_expr(ast, ring: Ring, u, seqs, n: int) -> El:
    """Evaluate one AST over ``ring`` at step n.

    u: the argument vector components (El); seqs: name -> tuple of El.
    A wrapper that generates the expression's function for one evaluation.
    """
    e = Emitter(ring)
    e.unpack([f"w{i}" for i in range(len(u))], "w")
    out = e.expr(ast, {name: tuple(x.v for x in vals) for name, vals in seqs.items()})
    return El(ring, e.function("n, w", e.reduced(out))(n, [x.v for x in u]))


def format_expr(ast) -> str:
    """Canonical rendering; parse(format_expr(t)) == t for every valid tree."""
    op = ast[0]
    if op == "int":
        return str(ast[1])
    if op == "u":
        return f"u{ast[1]}"
    if op == "seq":
        return f"{ast[1]}[n]"
    if op == "neg":
        return f"-({format_expr(ast[1])})"
    if op in ("inv", "tanh"):
        return f"{op}({format_expr(ast[1])})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    return f"({format_expr(ast[1])} {sym} {format_expr(ast[2])})"
