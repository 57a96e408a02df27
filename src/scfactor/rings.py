"""Coefficient rings, their elements, and module vectors.

Six ring kinds are supported:

* ``integers-mod-m``     residues mod m (m >= 2), finite, commutative
* ``exact-rational``     Fraction arithmetic, exact field
* ``gaussian-rational``  a + bi with rational a, b, exact field
* ``float-complex``      machine complex numbers with a comparison tolerance
* ``rational-quaternion`` Hamilton quaternions with Fraction components
* ``float-quaternion``   Hamilton quaternions with float components

Elements are lightweight wrappers (ring, payload) with operator sugar so the
rest of the package can write ``t = x - alpha * x_prev``. Division is always
right division: ``a / b`` means ``a * b**-1``, which matters for quaternions.

The left module M = R^d is represented by Vec (a tuple of elements) with a
left scalar action ``r * v``.

Rational-quaternion payloads are 4-tuples of normalised Fractions. Their
product brings each operand over the lcm of its four denominators, runs the
16 component products on ints and normalises each result once, instead of
normalising through a gcd after every Fraction product and sum.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DivisionByNonUnit, ParseError

_NUM_RE = re.compile(r"[+-]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")


def _split_terms(text: str) -> list[str]:
    """Split an element literal into signed terms.

    A '+' or '-' starts a new term unless it sits at the front of the current
    term or follows an exponent marker, so "1.5e-3+2i" splits into
    ["1.5e-3", "+2i"].
    """
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty element literal")
    terms: list[str] = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "eE":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    return terms


def _parse_terms(text: str, allowed_units: str, numparse) -> dict[str, object]:
    """Parse "a+bi+cj+dk"-style literals into {unit: coefficient}.

    ``allowed_units`` is "" (plain numbers), "i", or "ijk". The real part is
    keyed by "". Repeated units accumulate.
    """
    out: dict[str, object] = {}
    for term in _split_terms(text):
        m = re.fullmatch(r"([+-]?[^ijk]*)([ijk]?)", term)
        if m is None:
            raise ParseError(f"bad element literal term {term!r}")
        coef_text, unit = m.group(1), m.group(2)
        if unit and unit not in allowed_units:
            raise ParseError(f"unit {unit!r} not allowed in literal {text!r}")
        if coef_text in ("", "+"):
            if not unit:
                raise ParseError(f"bad element literal term {term!r}")
            coef = numparse("1")
        elif coef_text == "-":
            if not unit:
                raise ParseError(f"bad element literal term {term!r}")
            coef = numparse("-1")
        else:
            try:
                coef = numparse(coef_text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad number {coef_text!r} in {text!r}: {exc}") from exc
        out[unit] = out.get(unit, numparse("0")) + coef
    return out


def _fmt_signed(parts: list[tuple[object, str]]) -> str:
    """Render [(coef, unit_char_or_empty), ...] canonically, e.g. "1/2-2/3i"."""
    chunks: list[str] = []
    for coef, unit in parts:
        if coef == 0:
            continue
        if unit and coef == 1:
            txt = unit
        elif unit and coef == -1:
            txt = "-" + unit
        else:
            txt = (str(coef) if not isinstance(coef, float) else repr(coef)) + unit
        if chunks and not txt.startswith("-"):
            chunks.append("+" + txt)
        else:
            chunks.append(txt)
    return "".join(chunks) or "0"


class El:
    """One ring element: a payload tagged with its ring.

    Arithmetic delegates to the ring. Mixing elements of different rings is a
    bug and raises ValueError. Plain ints coerce via ring.from_int.
    """

    __slots__ = ("ring", "v")

    def __init__(self, ring: "Ring", v):
        self.ring = ring
        self.v = v

    def _other(self, x):
        if isinstance(x, El):
            if x.ring != self.ring:
                raise ValueError(f"mixed rings: {self.ring} and {x.ring}")
            return x.v
        if isinstance(x, int):
            return self.ring.from_int(x).v
        return NotImplemented

    def __add__(self, x):
        w = self._other(x)
        return NotImplemented if w is NotImplemented else El(self.ring, self.ring._add(self.v, w))

    __radd__ = __add__

    def __sub__(self, x):
        w = self._other(x)
        return NotImplemented if w is NotImplemented else El(self.ring, self.ring._add(self.v, self.ring._neg(w)))

    def __rsub__(self, x):
        w = self._other(x)
        return NotImplemented if w is NotImplemented else El(self.ring, self.ring._add(w, self.ring._neg(self.v)))

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
        if isinstance(x, El) or isinstance(x, int):
            other = x if isinstance(x, El) else self.ring.from_int(x)
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (self ** (-n)).inverse()
        out = self.ring.one
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
        return self.ring._eq(self.v, self.ring.zero.v)

    def __eq__(self, x):
        if isinstance(x, int):
            x = self.ring.from_int(x)
        if not isinstance(x, El) or x.ring != self.ring:
            return NotImplemented
        return self.ring._eq(self.v, x.v)

    def __hash__(self):
        if not self.ring.exact:
            raise TypeError(f"elements of {self.ring} are not hashable (inexact equality)")
        return hash((self.ring.kind, self.ring._key(self.v)))

    def sort_key(self):
        return self.ring._key(self.v)

    def __str__(self):
        return self.ring.fmt(self.v)

    def __repr__(self):
        return f"<{self.ring.fmt(self.v)} in {self.ring}>"


# Largest bit length of a numerator or denominator accepted in a simulated
# value or a certificate's alpha: 2466 decimal digits, within Python's default
# limit of 4300 digits for int-to-str conversion, so every accepted value can
# be written out.
MAX_PAYLOAD_BITS = 1 << 13


class Ring:
    """Base class: subclasses fill in payload-level operations."""

    kind: str = "?"
    commutative: bool = True
    finite: bool = False
    exact: bool = True

    # payload ops, implemented by subclasses:
    #   _add, _neg, _mul, _inv (None when not a unit), _eq, _key, fmt, parse payload
    # _finite: payload predicate that float rings set; None on exact rings
    # _bits: payload size in bits, set on the exact rings whose values can
    # grow without bound; None on residue and float rings
    _finite = None
    _bits = None

    # Source templates for generated step functions (gmap.Emitter). The base
    # class calls the payload operations, which the generated code looks up
    # as _add, _neg and _mul. src_reduce, when set, brings a value back to its
    # canonical payload; it is applied to step outputs, map arguments and
    # the operands of inverses.
    src_add = "_add({}, {})"
    src_sub = "_add({}, _neg({}))"
    src_mul = "_mul({}, {})"
    src_neg = "_neg({})"
    src_reduce = None

    def _descriptor(self) -> tuple:
        return (self.kind,)

    def __eq__(self, other):
        return isinstance(other, Ring) and self._descriptor() == other._descriptor()

    def __hash__(self):
        return hash(self._descriptor())

    def __str__(self):
        return self.kind

    def __repr__(self):
        return f"Ring({self})"

    @property
    def zero(self) -> El:
        return self.from_int(0)

    @property
    def one(self) -> El:
        return self.from_int(1)

    def from_int(self, n: int) -> El:
        raise NotImplementedError

    def char(self) -> int:
        """Characteristic: m for residues mod m, 0 otherwise."""
        return 0

    def el(self, x) -> El:
        """Coerce an int, literal string, payload, or element into this ring."""
        if isinstance(x, El):
            if x.ring != self:
                raise ValueError(f"element of {x.ring} used in {self}")
            return x
        if isinstance(x, bool):
            raise ParseError("booleans are not ring elements")
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, str):
            return El(self, self._parse(x))
        return El(self, self._normalize(x))

    def parse(self, text: str) -> El:
        if not isinstance(text, str):
            raise ParseError(f"element literal must be a string, got {type(text).__name__}")
        return El(self, self._parse(text))

    def _normalize(self, payload):
        raise ParseError(f"cannot interpret {payload!r} as an element of {self}")

    def fmt(self, v) -> str:
        raise NotImplementedError


# Miller-Rabin with the first 13 primes as bases is exact below
# 3317044064679887385961981, the least strong pseudoprime to all of them
# (OEIS A014233); moduli are refused from there on.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961980


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n <= MAX_MODULUS."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _PlainOps:
    """Source templates for rings whose payloads take Python's operators."""

    src_add = "({} + {})"
    src_sub = "({} - {})"
    src_mul = "({} * {})"
    src_neg = "(-{})"


class IntegersMod(_PlainOps, Ring):
    """Residue ring Z_m. Units are the residues coprime to m."""

    finite = True
    src_reduce = "({} % m)"

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 2:
            raise ParseError(f"modulus must be an integer >= 2, got {m!r}")
        if m > MAX_MODULUS:
            raise ParseError(
                f"modulus {m} exceeds the limit {MAX_MODULUS}, "
                "above which primality is not decided exactly")
        self.m = m
        self.kind = "integers-mod-m"
        self.is_prime = is_prime(m)

    def _descriptor(self):
        return (self.kind, self.m)

    def __str__(self):
        return f"Z_{self.m}"

    def char(self):
        return self.m

    def from_int(self, n):
        return El(self, n % self.m)

    def _normalize(self, payload):
        if isinstance(payload, int):
            return payload % self.m
        return super()._normalize(payload)

    def _parse(self, text):
        t = text.strip()
        if not re.fullmatch(r"[+-]?\d+", t):
            raise ParseError(f"bad residue literal {t!r} for {self}")
        return int(t) % self.m

    def _add(self, a, b):
        return (a + b) % self.m

    def _neg(self, a):
        return (-a) % self.m

    def _mul(self, a, b):
        return (a * b) % self.m

    def _inv(self, a):
        try:
            return pow(a, -1, self.m)
        except ValueError:
            return None

    def _eq(self, a, b):
        return a == b

    def _key(self, a):
        return a

    def fmt(self, v):
        return str(v)


def _fraction_bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _fractions_bits(qs) -> int:
    return max(map(_fraction_bits, qs))


class Rationals(_PlainOps, Ring):
    """The field of rationals, exact Fraction arithmetic."""

    kind = "exact-rational"
    _bits = staticmethod(_fraction_bits)

    def from_int(self, n):
        return El(self, Fraction(n))

    def _normalize(self, payload):
        if isinstance(payload, (int, Fraction)):
            return Fraction(payload)
        return super()._normalize(payload)

    def _parse(self, text):
        t = text.strip().replace(" ", "")
        try:
            return Fraction(t)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}: {exc}") from exc

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return None if a == 0 else 1 / a

    def _eq(self, a, b):
        return a == b

    def _key(self, a):
        return (a.numerator, a.denominator)

    def fmt(self, v):
        return str(v)


class GaussianRationals(Ring):
    """Q(i): pairs (re, im) of Fractions with complex multiplication."""

    kind = "gaussian-rational"
    _bits = staticmethod(_fractions_bits)

    def from_int(self, n):
        return El(self, (Fraction(n), Fraction(0)))

    def _normalize(self, payload):
        if isinstance(payload, tuple) and len(payload) == 2:
            return (Fraction(payload[0]), Fraction(payload[1]))
        if isinstance(payload, (int, Fraction)):
            return (Fraction(payload), Fraction(0))
        return super()._normalize(payload)

    def _parse(self, text):
        terms = _parse_terms(text, "i", Fraction)
        return (terms.get("", Fraction(0)), terms.get("i", Fraction(0)))

    def _add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _neg(self, a):
        return (-a[0], -a[1])

    def _mul(self, a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def _inv(self, a):
        n = a[0] * a[0] + a[1] * a[1]
        if n == 0:
            return None
        return (a[0] / n, -a[1] / n)

    def _eq(self, a, b):
        return a == b

    def _key(self, a):
        return (a[0], a[1])

    def fmt(self, v):
        return _fmt_signed([(v[0], ""), (v[1], "i")])


class FloatComplex(_PlainOps, Ring):
    """Machine complex numbers with relative-tolerance equality.

    eq(a, b) holds when |a - b| <= tol * max(|a|, |b|, 1). A value is a unit
    when it is not eq-equal to zero.
    """

    kind = "float-complex"
    exact = False

    def __init__(self, tolerance: float = 1e-9):
        if not (tolerance > 0):
            raise ParseError(f"tolerance must be positive, got {tolerance!r}")
        self.tol = float(tolerance)

    def _descriptor(self):
        return (self.kind, self.tol)

    def __str__(self):
        return f"C(float, tol={self.tol:g})"

    def from_int(self, n):
        return El(self, complex(n))

    def _normalize(self, payload):
        if isinstance(payload, (int, float, complex)):
            return complex(payload)
        return super()._normalize(payload)

    def _parse(self, text):
        terms = _parse_terms(text, "i", float)
        return complex(terms.get("", 0.0), terms.get("i", 0.0))

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _finite(self, a):
        return math.isfinite(a.real) and math.isfinite(a.imag)

    def _inv(self, a):
        if self._eq(a, 0j):
            return None
        return 1.0 / a

    def _eq(self, a, b):
        return abs(a - b) <= self.tol * max(abs(a), abs(b), 1.0)

    def _key(self, a):
        return (a.real, a.imag)

    def fmt(self, v):
        return _fmt_signed([(v.real, ""), (v.imag, "i")])


_QUNITS = ("", "i", "j", "k")


def _qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


class RationalQuaternions(Ring):
    """Hamilton quaternions over Q. Noncommutative; every nonzero element
    is a unit (inverse = conjugate / squared norm)."""

    kind = "rational-quaternion"
    commutative = False
    _bits = staticmethod(_fractions_bits)

    def from_int(self, n):
        return El(self, (Fraction(n), Fraction(0), Fraction(0), Fraction(0)))

    def _normalize(self, payload):
        if isinstance(payload, tuple) and len(payload) == 4:
            return tuple(Fraction(c) for c in payload)
        if isinstance(payload, (int, Fraction)):
            return (Fraction(payload), Fraction(0), Fraction(0), Fraction(0))
        return super()._normalize(payload)

    def _parse(self, text):
        terms = _parse_terms(text, "ijk", Fraction)
        return tuple(terms.get(u, Fraction(0)) for u in _QUNITS)

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        """_qmul on the numerators over da = lcm(a's denominators) and
        db = lcm(b's), each result normalised once as Fraction(n, da*db)."""
        da = math.lcm(*[c.denominator for c in a])
        db = math.lcm(*[c.denominator for c in b])
        d = da * db
        return tuple([Fraction(n, d) for n in _qmul(
            [c.numerator * (da // c.denominator) for c in a],
            [c.numerator * (db // c.denominator) for c in b])])

    def _inv(self, a):
        n = sum(c * c for c in a)
        if n == 0:
            return None
        return (a[0] / n, -a[1] / n, -a[2] / n, -a[3] / n)

    def _eq(self, a, b):
        return a == b

    def _key(self, a):
        return a

    def fmt(self, v):
        return _fmt_signed(list(zip(v, _QUNITS)))


class FloatQuaternions(Ring):
    """Hamilton quaternions with float components and tolerance equality."""

    kind = "float-quaternion"
    commutative = False
    exact = False

    def __init__(self, tolerance: float = 1e-9):
        if not (tolerance > 0):
            raise ParseError(f"tolerance must be positive, got {tolerance!r}")
        self.tol = float(tolerance)

    def _descriptor(self):
        return (self.kind, self.tol)

    def __str__(self):
        return f"H(float, tol={self.tol:g})"

    def from_int(self, n):
        return El(self, (float(n), 0.0, 0.0, 0.0))

    def _normalize(self, payload):
        if isinstance(payload, tuple) and len(payload) == 4:
            return tuple(float(c) for c in payload)
        if isinstance(payload, (int, float)):
            return (float(payload), 0.0, 0.0, 0.0)
        return super()._normalize(payload)

    def _parse(self, text):
        terms = _parse_terms(text, "ijk", float)
        return tuple(terms.get(u, 0.0) for u in _QUNITS)

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        return _qmul(a, b)

    def _abs(self, a):
        return math.sqrt(sum(c * c for c in a))

    def _finite(self, a):
        return all(map(math.isfinite, a))

    def _inv(self, a):
        if self._eq(a, (0.0, 0.0, 0.0, 0.0)):
            return None
        n = sum(c * c for c in a)
        return (a[0] / n, -a[1] / n, -a[2] / n, -a[3] / n)

    def _eq(self, a, b):
        d = self._abs(tuple(x - y for x, y in zip(a, b)))
        return d <= self.tol * max(self._abs(a), self._abs(b), 1.0)

    def _key(self, a):
        return a

    def fmt(self, v):
        return _fmt_signed(list(zip(v, _QUNITS)))


_RING_KINDS = {
    "integers-mod-m": IntegersMod,
    "exact-rational": Rationals,
    "gaussian-rational": GaussianRationals,
    "float-complex": FloatComplex,
    "rational-quaternion": RationalQuaternions,
    "float-quaternion": FloatQuaternions,
}


def make_ring(kind: str, modulus: int | None = None, tolerance: float | None = None) -> Ring:
    """Build a ring from its config description."""
    if kind not in _RING_KINDS:
        raise ParseError(f"unknown ring kind {kind!r}; expected one of {sorted(_RING_KINDS)}")
    if kind == "integers-mod-m":
        if modulus is None:
            raise ParseError("ring kind integers-mod-m requires a modulus")
        return IntegersMod(modulus)
    if modulus is not None:
        raise ParseError(f"ring kind {kind!r} does not take a modulus")
    if kind in ("float-complex", "float-quaternion"):
        return _RING_KINDS[kind]() if tolerance is None else _RING_KINDS[kind](tolerance)
    if tolerance is not None:
        raise ParseError(f"ring kind {kind!r} does not take a tolerance")
    return _RING_KINDS[kind]()


class Vec:
    """An element of the left module R^d: a tuple of ring elements."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("empty vector")

    @property
    def ring(self) -> Ring:
        return self.parts[0].ring

    @property
    def dim(self) -> int:
        return len(self.parts)

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
            scalar = self.ring.from_int(scalar)
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


class Module:
    """The free left module R^d used as the state space."""

    def __init__(self, ring: Ring, dim: int):
        if not isinstance(dim, int) or dim < 1:
            raise ParseError(f"module dimension must be a positive integer, got {dim!r}")
        self.ring = ring
        self.dim = dim

    def __eq__(self, other):
        return isinstance(other, Module) and (self.ring, self.dim) == (other.ring, other.dim)

    def __hash__(self):
        return hash((self.ring, self.dim))

    def __str__(self):
        return f"{self.ring}^{self.dim}"

    @property
    def zero(self) -> Vec:
        return Vec([self.ring.zero] * self.dim)

    def el(self, xs) -> Vec:
        """Coerce a list of component values (or a single value when d=1)."""
        if isinstance(xs, Vec):
            if xs.dim != self.dim or xs.ring != self.ring:
                raise ValueError(f"vector does not belong to {self}")
            return xs
        if not isinstance(xs, (list, tuple)):
            xs = [xs]
        if len(xs) != self.dim:
            raise ParseError(f"expected {self.dim} components, got {len(xs)}")
        return Vec(self.ring.el(x) for x in xs)

    def parse(self, entry) -> Vec:
        """Parse a config vector: a list of literals, or a bare literal (d=1)."""
        if isinstance(entry, str):
            entry = [entry]
        if not isinstance(entry, list) or len(entry) != self.dim:
            raise ParseError(f"vector literal must list {self.dim} component(s), got {entry!r}")
        return Vec(self.ring.parse(c) for c in entry)

    def payloads(self, v: Vec) -> list:
        """The component payloads of v, which must belong to this module."""
        if not isinstance(v, Vec) or v.dim != self.dim:
            raise ValueError("vector dimension mismatch")
        ring = self.ring
        for c in v.parts:
            if c.ring is not ring and c.ring != ring:
                raise ValueError(f"mixed rings: {ring} and {c.ring}")
        return [c.v for c in v.parts]

    def wrap(self, payloads) -> Vec:
        """The vector with these component payloads."""
        ring = self.ring
        return Vec([El(ring, p) for p in payloads])

    def fmt(self, v: Vec) -> list[str]:
        return [str(c) for c in v.parts]
