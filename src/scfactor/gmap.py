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
templates): operators on residues and complex floats, calls to payload
functions on the other rings. Every exact ring reduces lazily: residues mod
m, and rationals, Gaussian rationals and rational quaternions to lowest
terms (their sums and products skip the gcd, see rings), at the outputs,
before every inverse (so a breakdown names the reduced value), and in
products of more than MAX_LAZY_FACTORS factors. A residue inverse is read
from the ring's memo (Ring.inverses); on a miss the checked raiser tests
the unit, raises for a non-unit, and stores the inverse while the memo
holds fewer than INVERSE_MEMO_SIZE entries. Within one map, a repeated
subtree and a repeated inverse are computed once per step.
GMap.kernel, Recurrence.kernel, the engine's chain rebuild and its one-pass
verify are built on it; eval_expr is a wrapper for one evaluation on El
values. A source holds no config values, so it is compiled once per process
(up to COMPILE_CACHE_SIZE sources) and shared by every function with that
shape.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

from .errors import DivisionByNonUnit, GMapSyntaxError, TanhUnsupported
from .rings import El, FloatComplex, Ring, _reduced

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


# A product of more than this many lazy values is reduced on the spot, so
# lazy reduction keeps every intermediate int within a few times the size of
# a stored value however long the expression is.
MAX_LAZY_FACTORS = 4

# Inverses kept in one residue ring's memo. A ring belongs to one job, so the
# memo holds every unit of the small moduli that simulations use, and stays
# small for large ones.
INVERSE_MEMO_SIZE = 1 << 10


# Code objects kept per process. A generated source holds no config values,
# so recurrences that differ only in their values share one entry.
COMPILE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _compile(source: str):
    return compile(source, "<scfactor kernel>", "exec")


def _checked_inverse(ring: Ring, what: str):
    """The raiser: the inverse of the reduced value v, or DivisionByNonUnit
    naming v. On a residue ring it stores the inverse of a unit in the
    ring's memo while that holds fewer than INVERSE_MEMO_SIZE entries."""
    inv, fmt, memo = ring._inv, ring.fmt, ring.inverses

    def checked(v, n):
        w = inv(v)
        if w is None:
            raise DivisionByNonUnit(f"{what} {fmt(v)}", n=n)
        if memo is not None and len(memo) < INVERSE_MEMO_SIZE:
            memo[v] = w
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
    sequences and their periods, the ring's operations and lazy operations,
    _reduced, ZERO, m, the inverse memo INVS, and DIV, INV and TANH, which
    raise breakdowns carrying the step n), so the source holds no config
    text. Each line is one operation into a fresh
    local t<i>, in evaluation order, so no expression meets the parser's
    nesting limit. Operands keep their order (left * right); ``/`` is
    left * right^-1.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.ns = {"_add": ring._add, "_neg": ring._neg, "_mul": ring._mul,
                   "_ladd": ring._lazy_add, "_lmul": ring._lazy_mul, "_reduced": _reduced,
                   "ZERO": ring.zero.v, "m": ring.char(), "INVS": ring.inverses,
                   "DIV": _checked_inverse(ring, "division by non-unit"),
                   "INV": _checked_inverse(ring, "inv of non-unit"), "TANH": _tanh(ring)}
        self.lines: list[str] = []
        self.indent = ""
        self._ids = itertools.count()
        self._seqs: dict = {}
        self._memo: dict = {}
        self._scope = None

    def bind(self, value, prefix: str = "K") -> str:
        name = f"{prefix}{next(self._ids)}"
        self.ns[name] = value
        return name

    def line(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def block(self, header: str) -> None:
        """Open a block such as a loop; the lines after it form its body."""
        self.line(header)
        self.indent += "    "

    def end(self) -> None:
        """Close the innermost open block."""
        self.indent = self.indent[:-4]

    def let(self, text: str) -> str:
        name = f"t{next(self._ids)}"
        self.line(f"{name} = {text}")
        return name

    def unpack(self, names, source: str) -> None:
        self.line(f"[{', '.join(names)}] = {source}")

    def reduced(self, text: str) -> str:
        fmt = self.ring.src_reduce
        return text if fmt is None else fmt.format(text)

    def seq(self, key, values) -> str:
        """The value at step n of a periodic payload sequence, read once.
        ``key`` names the sequence among all emitted into this function."""
        if key not in self._seqs:
            self._seqs[key] = self.bind(values[0]) if len(values) == 1 else \
                self.let(f"{self.bind(tuple(values), 'S')}[n % {self.bind(len(values), 'P')}]")
        return self._seqs[key]

    def exprs(self, asts, seqs, scope=None) -> list[str]:
        """Emit the ASTs of one map in order; returns the source of each
        value. u<i> reads the local w<i-1>; seqs maps sequence names to
        payload tuples, keyed in this function as (scope, name). Repeated
        subtrees and inverses of the same operand are computed once; those
        that do not read the argument are shared with every later map of
        the same scope in this function, which runs them first."""
        self._memo = {key: v for key, v in self._memo.items() if not v[2]}
        self._scope = scope
        return [self._expr(ast, seqs)[0] for ast in asts]

    def _expr(self, ast, seqs):
        """(source, factors, reads): the value is at most a product of
        ``factors`` reduced values, up to sums, when the ring reduces lazily,
        and ``reads`` tells whether it reads the argument."""
        key = (self._scope, ast)
        if key not in self._memo:
            self._memo[key] = self._node(ast, seqs)
        return self._memo[key]

    def _node(self, ast, seqs):
        ring, op = self.ring, ast[0]
        if op == "int":
            return self.bind(ring.from_int(ast[1]).v), 1, False
        if op == "u":
            return f"w{ast[1] - 1}", 1, True
        if op == "seq":
            return self.seq((self._scope, ast[1]), seqs[ast[1]]), 1, False
        if op not in ("add", "sub", "mul", "div", "neg", "inv", "tanh"):
            raise GMapSyntaxError(f"unknown AST node {op!r}")
        left, lf, reads = self._expr(ast[1], seqs)
        if op == "neg":
            return self.let(ring.src_neg.format(left)), lf, reads
        if op == "inv":
            return self._inverse(left, "INV", reads), 1, reads
        if op == "tanh":
            return self.let(f"TANH({self.reduced(left)}, n)"), 1, reads
        right, rf, right_reads = self._expr(ast[2], seqs)
        reads = reads or right_reads
        if op in ("add", "sub"):
            fmt = ring.src_add if op == "add" else ring.src_sub
            return self.let(fmt.format(left, right)), max(lf, rf), reads
        if op == "div":
            right, rf = self._inverse(right, "DIV", right_reads), 1
        product = ring.src_mul.format(left, right)
        if lf + rf > MAX_LAZY_FACTORS and ring.src_reduce is not None:
            return self.let(self.reduced(product)), 1, reads
        return self.let(product), lf + rf, reads

    def _inverse(self, source: str, raiser: str, reads: bool) -> str:
        """The inverse of the reduced value of ``source``, once per operand:
        a breakdown keeps the reason of the first occurrence. A residue's
        inverse is read from the memo, and the raiser runs on a miss."""
        operand = self.reduced(source)
        key = ("inverse", operand)
        if key not in self._memo:
            if self.ring.inverses is None:
                name = self.let(f"{raiser}({operand}, n)")
            else:
                v = self.let(operand)
                name = self.let(f"INVS.get({v}) or {raiser}({v}, n)")
            self._memo[key] = (name, 1, reads)
        return self._memo[key][0]

    def function(self, params: str, result: str):
        """Compile the lines as ``def kernel(params)`` returning ``result``,
        at most once per process for each source."""
        body = "".join(f"    {line}\n" for line in [*self.lines, f"return {result}"])
        exec(_compile(f"def kernel({params}):\n{body}"), self.ns)
        return self.ns["kernel"]


def eval_expr(ast, ring: Ring, u, seqs, n: int) -> El:
    """Evaluate one AST over ``ring`` at step n.

    u: the argument vector components (El); seqs: name -> tuple of El.
    A wrapper that generates the expression's function for one evaluation.
    """
    e = Emitter(ring)
    e.unpack([f"w{i}" for i in range(len(u))], "w")
    [out] = e.exprs([ast], {name: tuple(x.v for x in vals) for name, vals in seqs.items()})
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
