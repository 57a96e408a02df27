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

compile_expr turns a tree into nested closures over the ring's payload
operations (_add, _mul, _neg, _inv), so evaluation walks no tuples;
GMap.kernel compiles each expression once. eval_expr is a wrapper for one
evaluation on El values.
"""

from __future__ import annotations

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


def compile_expr(ast, ring: Ring, seqs):
    """Compile one AST into a closure f(u, n) over ring payloads.

    u: sequence of payloads (the argument vector components); seqs: name ->
    tuple of payloads (periodic, indexed by n mod period); n: the current step
    index, attached to division/tanh errors so the engine can record
    breakdown points. Products keep the operand order (left * right), and
    ``/`` is right division left * right^-1.
    """
    add, mul, neg, inv, fmt = ring._add, ring._mul, ring._neg, ring._inv, ring.fmt
    op = ast[0]
    if op == "int":
        c = ring.from_int(ast[1]).v
        return lambda u, n: c
    if op == "u":
        i = ast[1] - 1
        return lambda u, n: u[i]
    if op == "seq":
        vals = seqs[ast[1]]
        period = len(vals)
        return lambda u, n: vals[n % period]
    if op not in ("add", "sub", "mul", "div", "neg", "inv", "tanh"):
        raise GMapSyntaxError(f"unknown AST node {op!r}")
    f = compile_expr(ast[1], ring, seqs)
    if op == "neg":
        return lambda u, n: neg(f(u, n))
    if op == "inv":
        def inverse(u, n):
            val = f(u, n)
            w = inv(val)
            if w is None:
                raise DivisionByNonUnit(f"inv of non-unit {fmt(val)}", n=n)
            return w
        return inverse
    if op == "tanh":
        def tanh(u, n):
            z = f(u, n)
            if not isinstance(ring, FloatComplex):
                raise TanhUnsupported(
                    f"tanh is only available over float-complex, not {ring}", n=n)
            if abs(z.imag) > ring.tol * max(1.0, abs(z.real)):
                raise TanhUnsupported(
                    f"tanh argument {fmt(z)} has a non-negligible imaginary part", n=n)
            return complex(math.tanh(z.real), 0.0)
        return tanh
    g = compile_expr(ast[2], ring, seqs)
    if op == "add":
        return lambda u, n: add(f(u, n), g(u, n))
    if op == "sub":
        return lambda u, n: add(f(u, n), neg(g(u, n)))
    if op == "mul":
        return lambda u, n: mul(f(u, n), g(u, n))

    def divide(u, n):
        left, right = f(u, n), g(u, n)
        w = inv(right)
        if w is None:
            raise DivisionByNonUnit(f"division by non-unit {fmt(right)}", n=n)
        return mul(left, w)
    return divide


def eval_expr(ast, ring: Ring, u, seqs, n: int) -> El:
    """Evaluate one AST over ``ring`` at step n.

    u: the argument vector components (El); seqs: name -> tuple of El.
    A wrapper over compile_expr for single evaluations.
    """
    payload_seqs = {name: tuple(e.v for e in vals) for name, vals in seqs.items()}
    f = compile_expr(ast, ring, payload_seqs)
    return El(ring, f([x.v for x in u], n))


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
