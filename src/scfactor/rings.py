"""Coefficient rings, their elements, and module vectors.

Six ring kinds are supported:

* ``integers-mod-m``     residues mod m (m >= 2), finite, commutative
* ``exact-rational``     exact field Q
* ``gaussian-rational``  a + bi with rational a, b, exact field
* ``float-complex``      machine complex numbers with a comparison tolerance
* ``rational-quaternion`` Hamilton quaternions with rational components
* ``float-quaternion``   Hamilton quaternions with float components

Elements are lightweight wrappers (ring, payload) with operator sugar so the
rest of the package can write ``t = x - alpha * x_prev``. Division is always
right division: ``a / b`` means ``a * b**-1``, which matters for quaternions.

The left module M = R^d is represented by Vec (a tuple of elements) with a
left scalar action ``r * v``.

Payloads: an int in [0, m) for residues, a complex for float-complex, and a
4-tuple of floats for float quaternions. The exact rings store ints over one
denominator: a rational n/d is (n, d), a Gaussian rational (x + yi)/d is
(x, y, d), and a rational quaternion (w + xi + yj + zk)/d is (w, x, y, z, d),
always with d > 0 and the gcd of all entries 1, so equal values have equal
payloads. A sum or product works on ints and reduces by one gcd, where a
tuple of fractions would reduce each part by its own.
Literals keep the grammar of fractions.Fraction (``1.5``, ``1e-3``,
``-3/4``) and the text of its errors; each part prints as the reduced n/d.
"""

from __future__ import annotations

import functools
import math
import operator
import re

from .errors import DivisionByNonUnit, ParseError

# A rational literal as Python 3.11's fractions.Fraction reads one, so that
# literals keep their meaning and errors their text on every Python version;
# the decimal group really is "d*", not "\d*".
_RATIONAL_RE = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:(?:/(?P<denom>\d+(_\d+)*))?
      |(?:\.(?P<decimal>d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*\Z""", re.VERBOSE | re.IGNORECASE)

# Largest bit length of a numerator or denominator accepted in a simulated
# value or a certificate's alpha: 2466 decimal digits, within Python's default
# limit of 4300 digits for int-to-str conversion, so every accepted value can
# be written out.
MAX_PAYLOAD_BITS = 1 << 13

# Largest |e| accepted in a literal's exponent: 10**e stays below
# 2**MAX_PAYLOAD_BITS, so the power is never computed past that size.
MAX_LITERAL_EXPONENT = int(MAX_PAYLOAD_BITS * math.log10(2))

_RESIDUE_RE = re.compile(r"[+-]?\d+")


def _reduced(*v):
    """The canonical payload (c_1, .., c_k, d) of (c_1, .., c_k)/d, d > 0."""
    g = math.gcd(*v)
    return v if g == 1 else tuple([c // g for c in v])


def _parse_rational(text: str) -> tuple[int, int]:
    """The payload (n, d) of a rational literal; raises ValueError or
    ZeroDivisionError with the text fractions.Fraction gives, and ValueError
    for an exponent past MAX_LITERAL_EXPONENT."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    n, d = int(m["num"] or "0"), 1
    if m["denom"]:
        d = int(m["denom"])
    else:
        if m["decimal"]:
            dec = m["decimal"].replace("_", "")
            d = 10 ** len(dec)
            n = n * d + int(dec)
        if m["exp"]:
            e = int(m["exp"])
            if abs(e) > MAX_LITERAL_EXPONENT:
                raise ValueError(f"exponent larger than {MAX_LITERAL_EXPONENT} in absolute value: "
                                 f"10**e would pass the limit of {MAX_PAYLOAD_BITS} bits")
            n, d = (n * 10 ** e, d) if e >= 0 else (n, d * 10 ** -e)
    if m["sign"] == "-":
        n = -n
    if d == 0:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return _reduced(n, d)


def _exact_add(a, b):
    """The sum of two payloads (c_1, .., c_k, d) of an exact ring, canonical
    (Henrici): a common factor of the summed parts and the denominator
    divides gcd(d1, d2)."""
    d1, d2 = a[-1], b[-1]
    g = math.gcd(d1, d2)
    if g == 1:
        return (*[x * d2 + y * d1 for x, y in zip(a[:-1], b[:-1])], d1 * d2)
    s, t = d1 // g, d2 // g
    parts = [x * t + y * s for x, y in zip(a[:-1], b[:-1])]
    h = math.gcd(*parts, g)
    return (*parts, s * d2) if h == 1 else (*[c // h for c in parts], s * (d2 // h))


def _exact_neg(a):
    return (*[-c for c in a[:-1]], a[-1])


def _over_lcm(pairs) -> tuple:
    """The payload (c_1, .., c_k, d) of the rationals (n_i, d_i), each in
    lowest terms: over the lcm d of the d_i the gcd is already 1."""
    d = math.lcm(*[e for _, e in pairs])
    return (*[n * (d // e) for n, e in pairs], d)


def _ratio_text(n: int, d: int):
    """The part n/d for _fmt_signed: an int when d divides n, else the text
    of n/d in lowest terms."""
    g = math.gcd(n, d)
    return n // g if d == g else f"{n // g}/{d // g}"


def _ratio_bits(v) -> int:
    """Largest bit length of a part's numerator or denominator in lowest
    terms, for a payload (c_1, .., c_k, d)."""
    d = v[-1]
    out = 0
    for n in v[:-1]:
        g = math.gcd(n, d)
        out = max(out, (n // g).bit_length(), (d // g).bit_length())
    return out


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


def _parse_terms(text: str, allowed_units: str, numparse,
                 add=operator.add) -> dict[str, object]:
    """Parse "a+bi+cj+dk"-style literals into {unit: coefficient}.

    ``allowed_units`` is "" (plain numbers), "i", or "ijk". The real part is
    keyed by "". Repeated units accumulate by ``add``, from numparse("0").
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
        out[unit] = add(out.get(unit, numparse("0")), coef)
    return out


def _finite_parts(parts, text: str):
    """The float parts of a literal, refused when one is nan or infinite
    (an overflowing literal such as 1e400 reads as inf)."""
    if not all(map(math.isfinite, parts)):
        raise ParseError(f"float literal {text!r} is not finite")
    return parts


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
            if x.ring is not self.ring and x.ring != self.ring:
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


class Ring:
    """Base class: subclasses fill in payload-level operations."""

    kind: str = "?"
    commutative: bool = True
    finite: bool = False
    exact: bool = True

    # payload ops, implemented by subclasses:
    #   _add, _neg, _mul, _inv (None when not a unit), fmt, _parse, _normalize;
    # _eq and _key (the canonical order) are the payload's own unless overridden
    # _finite: payload predicate that float rings set; None on exact rings
    # _bits: payload size in bits, set on the exact rings whose values can
    # grow without bound; None on residue and float rings
    _finite = None
    _bits = None

    # Source templates for generated step functions (gmap.Emitter). The base
    # class calls the payload operations, which the generated code looks up
    # as _add, _neg and _mul. src_reduce, when set, brings a value back to its
    # canonical payload; it is applied to step outputs, map arguments and
    # the operands of inverses. src_unit, when set, tests whether a reduced
    # value is a unit, and the inverse of one is then pow(v, -1, m).
    src_add = "_add({}, {})"
    src_sub = "_add({}, _neg({}))"
    src_mul = "_mul({}, {})"
    src_neg = "_neg({})"
    src_reduce = None
    src_unit = None

    def _descriptor(self) -> tuple:
        return (self.kind,)

    def _eq(self, a, b):
        return a == b

    def _key(self, a):
        return a

    def __eq__(self, other):
        return isinstance(other, Ring) and self._descriptor() == other._descriptor()

    def __hash__(self):
        return hash(self._descriptor())

    def __str__(self):
        return self.kind

    def __repr__(self):
        return f"Ring({self})"

    @functools.cached_property
    def zero(self) -> El:
        return self.from_int(0)

    @functools.cached_property
    def one(self) -> El:
        return self.from_int(1)

    def from_int(self, n: int) -> El:
        raise NotImplementedError

    def char(self) -> int:
        """Characteristic: m for residues mod m, 0 otherwise."""
        return 0

    def el(self, x) -> El:
        """Coerce an int, literal string, element, or a number or tuple of
        numbers that _normalize accepts into this ring."""
        if isinstance(x, El):
            if x.ring is not self and x.ring != self:
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

    def fmt_term(self, v, xs: str) -> str:
        """The product v*xs as text: xs for 1, -xs for -1, and v in
        parentheses when a sign sits inside it."""
        one = self.one.v
        if self._eq(v, one):
            return xs
        if self._eq(v, self._neg(one)):
            return f"-{xs}"
        text = self.fmt(v)
        if "+" in text[1:] or "-" in text[1:]:
            text = f"({text})"
        return f"{text}*{xs}"


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
        self.src_unit = "{}" if self.is_prime else "gcd({}, m) == 1"

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
        if not _RESIDUE_RE.fullmatch(t):
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

    def fmt(self, v):
        return str(v)


def _exact_parts(ring: "Ring", payload, size: int):
    """The payload of a number or a ``size``-tuple of numbers (ints, or
    rational numbers such as a fractions.Fraction) as parts over one
    denominator."""
    parts = payload if isinstance(payload, tuple) and len(payload) == size else \
        (payload,) + (0,) * (size - 1)
    try:
        return _over_lcm([_reduced(c.numerator, c.denominator) for c in parts])
    except (AttributeError, TypeError):
        return Ring._normalize(ring, payload)


class Rationals(Ring):
    """The field of rationals: a payload is (n, d) for n/d, in lowest terms
    with d > 0."""

    kind = "exact-rational"
    _add = staticmethod(_exact_add)
    _neg = staticmethod(_exact_neg)

    def from_int(self, n):
        return El(self, (n, 1))

    def _normalize(self, payload):
        """Accepts an int or Fraction."""
        return _exact_parts(self, payload, 1)

    def _parse(self, text):
        try:
            return _parse_rational(text.strip().replace(" ", ""))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}: {exc}") from exc

    def _mul(self, a, b):
        """The product in lowest terms (Henrici): each numerator is reduced
        against the other denominator."""
        (n1, d1), (n2, d2) = a, b
        g, h = math.gcd(n1, d2), math.gcd(n2, d1)
        return ((n1 // g) * (n2 // h), (d1 // h) * (d2 // g))

    def _bits(self, v):
        return max(v[0].bit_length(), v[1].bit_length())

    def _inv(self, a):
        n, d = a
        return None if n == 0 else (d, n) if n > 0 else (-d, -n)

    def fmt(self, v):
        return str(v[0]) if v[1] == 1 else f"{v[0]}/{v[1]}"


def _gaussian_cmp(a, b):
    """Compare (x1 + y1 i)/d1 and (x2 + y2 i)/d2 by real, then imaginary part."""
    (x1, y1, d1), (x2, y2, d2) = a, b
    return (x1 * d2 > x2 * d1) - (x1 * d2 < x2 * d1) or (y1 * d2 > y2 * d1) - (y1 * d2 < y2 * d1)


class GaussianRationals(Ring):
    """Q(i): a payload is (x, y, d) for (x + yi)/d, with d > 0 and
    gcd(x, y, d) = 1. Roots are ordered by real, then imaginary part."""

    kind = "gaussian-rational"
    _add = staticmethod(_exact_add)
    _neg = staticmethod(_exact_neg)
    _bits = staticmethod(_ratio_bits)
    _key = staticmethod(functools.cmp_to_key(_gaussian_cmp))

    def from_int(self, n):
        return El(self, (n, 0, 1))

    def _normalize(self, payload):
        """Accepts an int or Fraction, or a pair of them (re, im)."""
        return _exact_parts(self, payload, 2)

    def _parse(self, text):
        terms = _parse_terms(text, "i", _parse_rational, _exact_add)
        return _over_lcm([terms.get("", (0, 1)), terms.get("i", (0, 1))])

    def _mul(self, a, b):
        (x1, y1, d1), (x2, y2, d2) = a, b
        return _reduced(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d1 * d2)

    def _inv(self, a):
        x, y, d = a
        n = x * x + y * y
        return None if n == 0 else _reduced(x * d, -y * d, n)

    def fmt(self, v):
        x, y, d = v
        return _fmt_signed([(_ratio_text(x, d), ""), (_ratio_text(y, d), "i")])


class _Tolerant(Ring):
    """Float rings: equality within a relative tolerance, part of the ring's identity."""

    exact = False

    def __init__(self, tolerance: float = 1e-9):
        if not (tolerance > 0):
            raise ParseError(f"tolerance must be positive, got {tolerance!r}")
        self.tol = float(tolerance)

    def _descriptor(self):
        return (self.kind, self.tol)


class FloatComplex(_PlainOps, _Tolerant):
    """Machine complex numbers with relative-tolerance equality.

    eq(a, b) holds when |a - b| <= tol * max(|a|, |b|, 1). A value is a unit
    when it is not eq-equal to zero.
    """

    kind = "float-complex"

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
        return complex(*_finite_parts((terms.get("", 0.0), terms.get("i", 0.0)), text))

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
    is a unit (inverse = conjugate / squared norm).

    A payload is the canonical 5-tuple of ints (w, x, y, z, d) standing for
    (w + xi + yj + zk)/d, with d > 0 and gcd(w, x, y, z, d) = 1, so equal
    quaternions have equal payloads.
    """

    kind = "rational-quaternion"
    commutative = False
    _add = staticmethod(_exact_add)
    _neg = staticmethod(_exact_neg)
    _bits = staticmethod(_ratio_bits)

    def from_int(self, n):
        return El(self, (n, 0, 0, 0, 1))

    def _normalize(self, payload):
        """Accepts an int or Fraction, or a 4-tuple of them (w, x, y, z)."""
        return _exact_parts(self, payload, 4)

    def _parse(self, text):
        terms = _parse_terms(text, "ijk", _parse_rational, _exact_add)
        return _over_lcm([terms.get(u, (0, 1)) for u in _QUNITS])

    def _mul(self, a, b):
        return _reduced(*_qmul(a[:4], b[:4]), a[4] * b[4])

    def _inv(self, a):
        w, x, y, z, d = a
        n = w * w + x * x + y * y + z * z
        if n == 0:
            return None
        return _reduced(w * d, -x * d, -y * d, -z * d, n)

    def fmt(self, v):
        d = v[4]
        return _fmt_signed([(_ratio_text(n, d), u) for n, u in zip(v[:4], _QUNITS)])


class FloatQuaternions(_Tolerant):
    """Hamilton quaternions as 4-tuples (w, x, y, z) of floats, with
    tolerance equality."""

    kind = "float-quaternion"
    commutative = False

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
        return _finite_parts(tuple(terms.get(u, 0.0) for u in _QUNITS), text)

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
