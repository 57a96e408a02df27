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
templates): operators on residues and complex floats, calls to the lazy
operations (_ladd, _lmul) and _neg on the other rings; generated code calls
no canonical _add or _mul. Every exact ring reduces lazily: residues mod
m, and rationals, Gaussian rationals and rational quaternions to lowest
terms (their sums and products skip the gcd, see rings), at the outputs,
before every inverse (so a breakdown names the reduced value), and in
products of more than MAX_LAZY_FACTORS factors. A residue inverse is read
from the ring's memo (Ring.inverses); on a miss the checked raiser tests
the unit, raises for a non-unit, and stores the inverse while the memo
holds fewer than INVERSE_MEMO_SIZE entries. Within one map, a repeated
subtree and a repeated inverse are computed once per step, and a sum of
coefficient terms is one expression.

GMap.kernel, Recurrence.kernel and the engine's one step loop are built on
it through generated, which writes and compiles a function once per process
for each shape of job (keeping the COMPILE_CACHE_SIZE shapes used last). The
shape is what the source depends on: the ring class, the dimension and
orders, the zero pattern of each coefficient row and whether its period is
1, each map's kind and the form of its ASTs (expr_form: literals and
sequence names by position), which maps share one scope, whether the values
are kept, and the number of levels and whether each level's period is 1. A
job's values never enter the source. A walk over the job's objects collects
them into one tuple, each named by its role (seq_values, map_values):
coefficients, sequences, level alphas, literal payloads, and the ring's
operations, m, ZERO, INVS, DIV, INV and TANH. The function unpacks the tuple
into locals first, so a job of a seen shape emits nothing, and the cache
keeps no job's value or ring. parse_expr keeps each text's AST the same way.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import re

from .errors import DivisionByNonUnit, GMapSyntaxError, TanhUnsupported
from .rings import FloatComplex, Ring, _reduced

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[a-z][a-z0-9_]*)|(?P<punct>[-+*/()\[\]]))"
)

_FUNCS = ("inv", "tanh")

# Deepest expression accepted, counting both the parser's nesting (parentheses,
# unary minus, inv, tanh) and the depth of the AST, which long chains of binary
# operators also grow. Evaluation and formatting recurse once per level.
MAX_EXPR_DEPTH = 200

# Generated functions kept per process, one per shape (see generated), and
# parsed expressions, one per text.
COMPILE_CACHE_SIZE = 256


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
    """Parse one expression into its AST tuple tree. An AST is immutable, so
    each text is parsed once per process (up to COMPILE_CACHE_SIZE texts);
    a text that fails is parsed, and fails the same way, every time."""
    if not isinstance(text, str) or not text.strip():
        raise GMapSyntaxError("empty expression")
    return _parse(text)


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _parse(text: str):
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


# A product of more than this many lazy values is reduced on the spot, so
# lazy reduction keeps every intermediate int within a few times the size of
# a stored value however long the expression is.
MAX_LAZY_FACTORS = 4

# Inverses kept in one residue ring's memo. A ring belongs to one job, so the
# memo holds every unit of the small moduli that simulations use, and stays
# small for large ones.
INVERSE_MEMO_SIZE = 1 << 10


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


# A sum of coefficient terms is one expression of at most this many terms;
# a longer sum goes on from a local, so that no expression nests deeper than
# the parser accepts, however long the row.
MAX_SUM_TERMS = 16


def _ring_values(ring: Ring) -> dict:
    """What generated code reads of the ring: its lazy operations _ladd and
    _lmul, _neg, _reduced, ZERO, m, the inverse memo INVS, and DIV, INV and
    TANH, which raise breakdowns carrying the step n."""
    return {"_neg": ring._neg, "_ladd": ring._lazy_add, "_lmul": ring._lazy_mul,
            "_reduced": _reduced, "ZERO": ring.zero, "m": ring.char(), "INVS": ring.inverses,
            "DIV": _checked_inverse(ring, "division by non-unit"),
            "INV": _checked_inverse(ring, "inv of non-unit"), "TANH": _tanh(ring)}


def _role(tag: str, key) -> str:
    """The name of a value in generated code, and of its local there."""
    return f"{tag}_{key}"


def seq_values(values: dict, tag: str, key, seq: tuple) -> None:
    """Store a periodic payload tuple as Emitter.seq(tag, key) reads it: the
    value itself for period 1, else the tuple and its period."""
    role = _role(tag, key)
    if len(seq) == 1:
        values[role] = seq[0]
    else:
        values[role], values[role + "P"] = seq, len(seq)


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def expr_form(asts: tuple, seq_names: tuple) -> tuple[tuple, tuple]:
    """(literals, form) of the ASTs of one map: its distinct int literals in
    ascending order, and the ASTs with each literal replaced by its position
    there and each sequence name by its position in ``seq_names``. The
    code of a map depends on its form, not on its literals or names."""
    literals, stack = set(), list(asts)
    while stack:
        node = stack.pop()
        if node[0] == "int":
            literals.add(node[1])
        else:
            stack.extend(c for c in node[1:] if isinstance(c, tuple))
    literals = tuple(sorted(literals))
    index = {("int", k): i for i, k in enumerate(literals)}
    index.update((("seq", name), i) for i, name in enumerate(seq_names))

    def form(node):
        if node[0] in ("int", "seq"):
            return node[0], index[node]
        return (node[0], *[form(c) if isinstance(c, tuple) else c for c in node[1:]])
    return literals, tuple(map(form, asts))


def map_values(values: dict, tag: str, literals, seqs: dict, ring: Ring) -> None:
    """Store what the code of one map reads under ``tag`` (Emitter.seq and
    Emitter.exprs): its sequences by their position in ``seqs``, and its
    int literals (expr_form) as payloads, by their position."""
    for i, seq in enumerate(seqs.values()):
        seq_values(values, tag, i, seq)
    for i, k in enumerate(literals):
        values[_role(tag, f"K{i}")] = ring.payload(k)


class Emitter:
    """Python source for one generated function on a ring's payloads, built
    line by line (see generated).

    The source reads each of the job's values as a local named by its role:
    a sequence or coefficient row by its tag and key (seq_values), a
    literal by its map's tag and position (map_values), and the ring's
    values (_ring_values), whose operations are its lazy ones, brought to
    the canonical payload by Ring.src_reduce (reduced). It holds no config
    text. Each line is one operation into a fresh local t<i>, in evaluation
    order, so no expression meets the parser's nesting limit; a sum of
    coefficient terms is one expression (fold). Operands keep their order (left * right); ``/`` is
    left * right^-1.
    """

    def __init__(self, ring: Ring, values: dict):
        self.ring = ring
        self.values = values
        self.lines: list[str] = []
        self.indent = ""
        self._ids = itertools.count()
        self._seqs: dict = {}
        self._memo: dict = {}
        self._scope = None

    def name(self, role: str) -> str:
        """The local holding the value of ``role``. A role that the job's
        values do not hold fails here, as the source is written."""
        if role not in self.values:
            raise KeyError(f"generated code reads {role!r}, which its values do not hold")
        return role

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

    def seq(self, tag: str, key) -> str:
        """The value at step n of the periodic sequence that seq_values
        stored under (tag, key), read once per function."""
        role = _role(tag, key)
        if role not in self._seqs:
            self._seqs[role] = self.name(role) if role + "P" not in self.values else \
                self.let(f"{self.name(role)}[n % {self.name(role + 'P')}]")
        return self._seqs[role]

    def fold(self, acc: str | None, terms) -> str | None:
        """The source of acc + terms[0] + terms[1] + ..., summed left to
        right (from terms[0] when acc is None), as one expression per
        MAX_SUM_TERMS terms; acc itself when there is no term."""
        for i, term in enumerate(terms):
            if i and i % MAX_SUM_TERMS == 0:
                acc = self.let(acc)
            acc = term if acc is None else self.ring.src_add.format(acc, term)
        return acc

    def exprs(self, form, tag: str) -> list[str]:
        """Emit one map's ASTs, in their form (expr_form), in order, reading
        the values that map_values stored under ``tag``; returns the source
        of each value. u<i> reads the local w<i-1>. Repeated subtrees and
        inverses of the same operand are computed once; those that do not
        read the argument are shared with every later map of the same tag in
        this function, which runs them first."""
        self._memo = {key: v for key, v in self._memo.items() if not v[2]}
        self._scope = tag
        return [self._expr(ast)[0] for ast in form]

    def _expr(self, ast):
        """(source, factors, reads): the value is at most a product of
        ``factors`` reduced values, up to sums, when the ring reduces lazily,
        and ``reads`` tells whether it reads the argument."""
        key = (self._scope, ast)
        if key not in self._memo:
            self._memo[key] = self._node(ast)
        return self._memo[key]

    def _node(self, ast):
        ring, op = self.ring, ast[0]
        if op == "int":
            return self.name(_role(self._scope, f"K{ast[1]}")), 1, False
        if op == "u":
            return f"w{ast[1] - 1}", 1, True
        if op == "seq":
            return self.seq(self._scope, ast[1]), 1, False
        if op not in ("add", "sub", "mul", "div", "neg", "inv", "tanh"):
            raise GMapSyntaxError(f"unknown AST node {op!r}")
        left, lf, reads = self._expr(ast[1])
        if op == "neg":
            return self.let(ring.src_neg.format(left)), lf, reads
        if op == "inv":
            return self._inverse(left, "INV", reads), 1, reads
        if op == "tanh":
            return self.let(f"TANH({self.reduced(left)}, n)"), 1, reads
        right, rf, right_reads = self._expr(ast[2])
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

    def source(self, params: str, result: str) -> str:
        """``def make(V, params)``: its first line unpacks V, the values in
        the order of self.values, into locals named by their roles; then the
        lines run, and it returns ``result``."""
        lines = [f"[{', '.join(self.values)}] = V", *self.lines, f"return {result}"]
        body = "".join(f"    {line}\n" for line in lines)
        return f"def make({', '.join(['V', *filter(None, [params])])}):\n{body}"


# The generated functions of the process by shape key, least recently used
# first: each is the function ``make`` of a compiled source, whose globals
# hold nothing else.
_KERNELS: collections.OrderedDict = collections.OrderedDict()


def generated(ring: Ring, key, values: dict, emit, *args):
    """make(V, *args), where make is the generated function of this job's
    shape and V holds the job's values.

    ``values`` maps the role of each value the source reads to this job's
    value, as the caller's walk over its objects collects them (seq_values,
    map_values); the ring's (_ring_values) are added here. The shape is the
    ring class, ``key`` (what else the source depends on) and the roles in
    their order. The first job of a shape calls emit(e), which writes the
    lines into an Emitter e and returns (params, result) for Emitter.source;
    the source is compiled once, and kept while it is among the
    COMPILE_CACHE_SIZE shapes used last. A later job of the shape emits
    nothing, and the cache keeps no job's value, ring or namespace.
    """
    values = {**_ring_values(ring), **values}
    key = (type(ring), key, tuple(values))
    make = _KERNELS.get(key)
    if make is None:
        e = Emitter(ring, values)
        params, result = emit(e)
        ns: dict = {}
        exec(compile(e.source(params, result), "<scfactor kernel>", "exec"), ns)
        make = _KERNELS[key] = ns.pop("make")
        if len(_KERNELS) > COMPILE_CACHE_SIZE:
            _KERNELS.popitem(last=False)
    else:
        _KERNELS.move_to_end(key)
    return make(tuple(values.values()), *args)


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
