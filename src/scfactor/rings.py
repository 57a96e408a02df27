"""Coefficient rings, their payload operations, and the free module R^d.

Six ring kinds are supported:

* ``integers-mod-m``     residues mod m (m >= 2), finite, commutative
* ``exact-rational``     exact field Q
* ``gaussian-rational``  a + bi with rational a, b, exact field
* ``float-complex``      machine complex numbers with a comparison tolerance
* ``rational-quaternion`` Hamilton quaternions with rational components
* ``float-quaternion``   Hamilton quaternions with float components

A value is a payload, and a Ring holds the operations on its payloads
(_add, _neg, _mul, _inv, _eq, fmt); no element class wraps them. Division is
always right division, a * b^-1, which matters for quaternions.
Ring.payload turns an int, a literal or a payload into the canonical
payload, and Module.payloads does so for a vector of the module R^d, a list
of component payloads.

Payloads: an int in [0, m) for residues, a complex for float-complex, and a
4-tuple of floats for float quaternions. The exact rings store ints over one
denominator: a rational n/d is (n, d), a Gaussian rational (x + yi)/d is
(x, y, d), and a rational quaternion (w + xi + yj + zk)/d is (w, x, y, z, d),
always with d > 0 and the gcd of all entries 1, so equal values have equal
payloads. A sum or product works on ints and reduces by one gcd, where a
tuple of fractions would reduce each part by its own.
Literals keep the grammar of fractions.Fraction (``1.5``, ``1e-3``,
``-3/4``) and the text of its errors; each part prints as the reduced n/d.

Lazy operations (Ring._lazy_add, _lazy_mul and _normal) serve generated code
and the certificate route: on residues a sum or product is not reduced mod
m, and on the exact rings it is exact but not in lowest terms (numerators
times numerators over d1*d2, sums over lcm(d1, d2)). _normal brings a value
to its canonical payload once, where it is stored. On the float rings the
lazy operations are the payload operations themselves.
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

# One term of an element literal: a signed coefficient and an optional unit.
_TERM_RE = re.compile(r"([+-]?[^ijk]*)([ijk]?)")


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


# Lazy sums and products of the exact rings, unrolled per payload length:
# exact, but left for _reduced to bring to lowest terms.

def _q_lazy_add(a, b):
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        return (n1 + n2, d1)
    g = math.gcd(d1, d2)
    s, t = d1 // g, d2 // g
    return (n1 * t + n2 * s, s * d2)


def _q_lazy_mul(a, b):
    return (a[0] * b[0], a[1] * b[1])


def _g_lazy_add(a, b):
    (x1, y1, d1), (x2, y2, d2) = a, b
    if d1 == d2:
        return (x1 + x2, y1 + y2, d1)
    g = math.gcd(d1, d2)
    s, t = d1 // g, d2 // g
    return (x1 * t + x2 * s, y1 * t + y2 * s, s * d2)


def _g_lazy_mul(a, b):
    (x1, y1, d1), (x2, y2, d2) = a, b
    return (x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d1 * d2)


def _h_lazy_add(a, b):
    w1, x1, y1, z1, d1 = a
    w2, x2, y2, z2, d2 = b
    if d1 == d2:
        return (w1 + w2, x1 + x2, y1 + y2, z1 + z2, d1)
    g = math.gcd(d1, d2)
    s, t = d1 // g, d2 // g
    return (w1 * t + w2 * s, x1 * t + x2 * s, y1 * t + y2 * s, z1 * t + z2 * s, s * d2)


def _h_lazy_mul(a, b):
    """The Hamilton product (left operand first) over d1*d2."""
    w1, x1, y1, z1, d1 = a
    w2, x2, y2, z2, d2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2, d1 * d2)


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


def _oversize(v) -> bool:
    """Whether _ratio_bits(v) passes MAX_PAYLOAD_BITS. A part in lowest terms
    is never longer than the raw ints, so the gcds run only when one of
    those passes the limit."""
    return max(map(int.bit_length, v)) > MAX_PAYLOAD_BITS and _ratio_bits(v) > MAX_PAYLOAD_BITS


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
        m = _TERM_RE.fullmatch(term)
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
        out[unit] = add(out[unit] if unit in out else numparse("0"), coef)
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


class Ring:
    """Base class: subclasses fill in payload-level operations."""

    kind: str = "?"
    commutative: bool = True
    finite: bool = False
    exact: bool = True

    # payload ops, implemented by subclasses:
    #   _add, _neg, _mul, _inv (None when not a unit), fmt, _parse, _normalize
    #   (an int, a payload, or numbers as the subclass documents);
    #   _lazy_add and _lazy_mul, with _normal (see the module docstring)
    # _eq and _key (the canonical order) are the payload's own unless overridden
    # _finite: payload predicate that float rings set; None on exact rings
    # _oversize: payload predicate, set on the exact rings whose values can
    # grow without bound (a part past MAX_PAYLOAD_BITS); None on the others
    # inverses: the memo of a residue ring's inverses that generated code
    # reads (gmap.Emitter); None on the others
    _finite = None
    _oversize = None
    inverses = None

    # Source templates for generated step functions (gmap.Emitter). The base
    # class calls the payload operations, which the generated code looks up
    # as _add, _neg and _mul. src_reduce, when set, brings a lazy value back
    # to its canonical payload; it is applied to step outputs, map arguments
    # and the operands of inverses.
    src_add = "_add({}, {})"
    src_sub = "_add({}, _neg({}))"
    src_mul = "_mul({}, {})"
    src_neg = "_neg({})"
    src_reduce = None

    def _descriptor(self) -> tuple:
        return (self.kind,)

    def _eq(self, a, b):
        return a == b

    def _key(self, a):
        return a

    def _normal(self, v):
        return v

    def __eq__(self, other):
        return isinstance(other, Ring) and self._descriptor() == other._descriptor()

    def __hash__(self):
        return hash(self._descriptor())

    def __str__(self):
        return self.kind

    def __repr__(self):
        return f"Ring({self})"

    @functools.cached_property
    def zero(self):
        return self._normalize(0)

    @functools.cached_property
    def one(self):
        return self._normalize(1)

    def char(self) -> int:
        """Characteristic: m for residues mod m, 0 otherwise."""
        return 0

    def payload(self, x):
        """The canonical payload of an int, a literal string, a payload, or
        a number or tuple of numbers that _normalize accepts."""
        if isinstance(x, bool):
            raise ParseError("booleans are not ring elements")
        return self._parse(x) if isinstance(x, str) else self._normalize(x)

    def inverse(self, v):
        """The inverse of the payload v; DivisionByNonUnit for a non-unit."""
        w = self._inv(v)
        if w is None:
            raise DivisionByNonUnit(f"{self.fmt(v)} is not a unit in {self}")
        return w

    def _normalize(self, payload):
        raise ParseError(f"cannot interpret {payload!r} as an element of {self}")

    def fmt(self, v) -> str:
        raise NotImplementedError

    def fmt_term(self, v, xs: str) -> str:
        """The product v*xs as text: xs for 1, -xs for -1, and v in
        parentheses when a sign sits inside it."""
        one = self.one
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
    _lazy_add = staticmethod(operator.add)
    _lazy_mul = staticmethod(operator.mul)

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
        self.inverses = {}

    def _descriptor(self):
        return (self.kind, self.m)

    def __str__(self):
        return f"Z_{self.m}"

    def char(self):
        return self.m

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

    def _normal(self, v):
        return v % self.m

    def _inv(self, a):
        try:
            return pow(a, -1, self.m)
        except ValueError:
            return None

    def fmt(self, v):
        return str(v)


def _exact_parts(ring: "Ring", payload, size: int):
    """The canonical payload of a payload, or of a number or a ``size``-tuple
    of numbers (ints, or rational numbers such as a fractions.Fraction) as
    parts over one denominator."""
    if isinstance(payload, tuple) and len(payload) == size + 1 and \
            all(type(c) is int for c in payload) and payload[-1] > 0:
        return _reduced(*payload)
    parts = payload if isinstance(payload, tuple) and len(payload) == size else \
        (payload,) + (0,) * (size - 1)
    try:
        return _over_lcm([_reduced(c.numerator, c.denominator) for c in parts])
    except (AttributeError, TypeError):
        return Ring._normalize(ring, payload)


class _Exact(Ring):
    """Source templates of the exact rings: lazy sums and products, brought
    to lowest terms by _reduced where a value is stored, as residues are
    reduced mod m."""

    src_add = "_ladd({}, {})"
    src_sub = "_ladd({}, _neg({}))"
    src_mul = "_lmul({}, {})"
    src_reduce = "_reduced(*{})"
    _add = staticmethod(_exact_add)
    _neg = staticmethod(_exact_neg)
    _oversize = staticmethod(_oversize)

    @staticmethod
    def _normal(v):
        return _reduced(*v)


class Rationals(_Exact):
    """The field of rationals: a payload is (n, d) for n/d, in lowest terms
    with d > 0."""

    kind = "exact-rational"
    _lazy_add = staticmethod(_q_lazy_add)
    _lazy_mul = staticmethod(_q_lazy_mul)

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

    def _inv(self, a):
        n, d = a
        return None if n == 0 else (d, n) if n > 0 else (-d, -n)

    def fmt(self, v):
        return str(v[0]) if v[1] == 1 else f"{v[0]}/{v[1]}"


def _gaussian_cmp(a, b):
    """Compare (x1 + y1 i)/d1 and (x2 + y2 i)/d2 by real, then imaginary part."""
    (x1, y1, d1), (x2, y2, d2) = a, b
    return (x1 * d2 > x2 * d1) - (x1 * d2 < x2 * d1) or (y1 * d2 > y2 * d1) - (y1 * d2 < y2 * d1)


class GaussianRationals(_Exact):
    """Q(i): a payload is (x, y, d) for (x + yi)/d, with d > 0 and
    gcd(x, y, d) = 1. Roots are ordered by real, then imaginary part."""

    kind = "gaussian-rational"
    _lazy_add = staticmethod(_g_lazy_add)
    _lazy_mul = staticmethod(_g_lazy_mul)
    _key = staticmethod(functools.cmp_to_key(_gaussian_cmp))

    def _normalize(self, payload):
        """Accepts an int or Fraction, or a pair of them (re, im)."""
        return _exact_parts(self, payload, 2)

    def _parse(self, text):
        terms = _parse_terms(text, "i", _parse_rational, _exact_add)
        return _over_lcm([terms.get("", (0, 1)), terms.get("i", (0, 1))])

    def _mul(self, a, b):
        return _reduced(*_g_lazy_mul(a, b))

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

    _lazy_add, _lazy_mul = _add, _mul

    def _finite(self, a):
        return math.isfinite(a.real) and math.isfinite(a.imag)

    def _inv(self, a):
        if self._eq(a, 0j):
            return None
        return 1.0 / a

    def _eq(self, a, b):
        return abs(a - b) <= self.tol * max(abs(a), abs(b), 1.0)

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


class RationalQuaternions(_Exact):
    """Hamilton quaternions over Q. Noncommutative; every nonzero element
    is a unit (inverse = conjugate / squared norm).

    A payload is the canonical 5-tuple of ints (w, x, y, z, d) standing for
    (w + xi + yj + zk)/d, with d > 0 and gcd(w, x, y, z, d) = 1, so equal
    quaternions have equal payloads.
    """

    kind = "rational-quaternion"
    commutative = False
    _lazy_add = staticmethod(_h_lazy_add)
    _lazy_mul = staticmethod(_h_lazy_mul)

    def _normalize(self, payload):
        """Accepts an int or Fraction, or a 4-tuple of them (w, x, y, z)."""
        return _exact_parts(self, payload, 4)

    def _parse(self, text):
        terms = _parse_terms(text, "ijk", _parse_rational, _exact_add)
        return _over_lcm([terms.get(u, (0, 1)) for u in _QUNITS])

    def _mul(self, a, b):
        return _reduced(*_h_lazy_mul(a, b))

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

    _lazy_add, _lazy_mul = _add, _mul

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
    if tolerance is not None and kind not in ("float-complex", "float-quaternion"):
        raise ParseError(f"ring kind {kind!r} does not take a tolerance")
    if kind == "integers-mod-m":
        if modulus is None:
            raise ParseError("ring kind integers-mod-m requires a modulus")
        return IntegersMod(modulus)
    if modulus is not None:
        raise ParseError(f"ring kind {kind!r} does not take a modulus")
    return _RING_KINDS[kind]() if tolerance is None else _RING_KINDS[kind](tolerance)


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

    def payloads(self, entry) -> list:
        """The component payloads of a vector: a list of what Ring.payload
        accepts, or one such value (a literal, or a payload) when d = 1."""
        if not isinstance(entry, list):
            entry = [entry]
        if len(entry) != self.dim:
            raise ParseError(f"expected {self.dim} components, got {len(entry)}")
        return [self.ring.payload(x) for x in entry]
