"""Polynomials over a coefficient ring, plus common-unit-root search.

A Poly stores the payloads of its coefficients ascending (cs[i] multiplies
x^i) with no trailing zeros; the zero polynomial has an empty tuple. Its
public face (coeffs, leading, coeff, evaluation, deflate) speaks elements.
Division, gcd, and deflation assume a commutative ring and raise
NoncommutativeRing otherwise.

unit_roots(P, Q) finds the common roots of P and Q that are units, reporting
the method used and whether the search was exhaustive:

* residues mod m ("exhaustive-units"), on raw ints: Z/m is the product of
  its Z/p^e, with m split by trial division (a prime m is one factor p^1).
  Mod each p, the common roots are those of g = gcd(P, Q) (monic P when
  Q = 0; every unit when both vanish mod p): h = gcd(g, x^p - x) with x^p
  taken modulo g, the factor x divided out, and h split by
  gcd(h, (x + c)^((p-1)/2) - 1) for c = 0, 1, 2, ... (Rabin;
  Cantor-Zassenhaus). Each root r mod p^j lifts one digit at a time (Hensel):
  r + t*p^j is a root mod p^(j+1) when f(r)/p^j + t*f'(r) = 0 (mod p) for P
  and for a nonzero Q, so a step gives 0, 1 or p lifts. The roots mod the
  p^e are combined by the CRT. Over a prime, multiplicities come from
  gcd(P, Q), since over a field (x - r)^e divides g exactly when it divides
  both P and Q; over a composite m, whose moduli above MAX_COMPOSITE_MODULUS
  are refused, they are reported as 1. Moduli above rings.MAX_MODULUS are
  refused when the ring is built, since primality is decided exactly only up
  to there.
* exact fields (rationals, Gaussian rationals): monic gcd on the payloads,
  ints over one denominator; a gcd whose unit part is linear reads off its
  root ("field-gcd"), any other is searched ("rational-root"): with the
  denominators of its squarefree part cleared, the roots are lifted modulo
  a small prime p-adically (over Q(i) p = 1 mod 4, under both embeddings
  i -> +-s with s^2 = -1 mod p) until lead(g) times a root is read off its
  symmetric residue, and the candidates that this integer polynomial
  annihilates are kept
* float complex: Durand-Kerner on P and on Q, then match the root sets
  ("numeric", not exhaustive)

Over a field (Z/p, Q, Q(i)) the report keeps the monic gcd(P, Q). The pair
one reduction further down is (P/(x - rho), Q/(x - rho)), whose gcd is
gcd(P, Q)/(x - rho), so RootReport.deflated derives its report without a
second search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

from .errors import NoncommutativeRing, NotAValidRoot, ParseError
from .rings import (El, FloatComplex, GaussianRationals, IntegersMod, Rationals, Ring,
                    _reduced, is_prime)


def _trimmed(ring: Ring, cs: list) -> tuple:
    eq, zero = ring._eq, ring.zero.v
    while cs and eq(cs[-1], zero):
        cs.pop()
    return tuple(cs)


class Poly:
    """A polynomial with coefficients in one ring, ascending order.

    ``cs`` holds the coefficient payloads; Poly.of builds a polynomial from
    payloads, the constructor from anything ring.el accepts.
    """

    __slots__ = ("ring", "cs")

    def __init__(self, ring: Ring, coeffs):
        self.ring = ring
        self.cs = _trimmed(ring, [ring.el(c).v for c in coeffs])

    @classmethod
    def of(cls, ring: Ring, cs) -> "Poly":
        p = cls.__new__(cls)
        p.ring, p.cs = ring, _trimmed(ring, list(cs))
        return p

    @property
    def coeffs(self) -> tuple[El, ...]:
        return tuple(El(self.ring, c) for c in self.cs)

    @property
    def degree(self) -> int:
        return len(self.cs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.cs

    @property
    def leading(self) -> El:
        if not self.cs:
            raise ValueError("zero polynomial has no leading coefficient")
        return El(self.ring, self.cs[-1])

    def coeff(self, i: int) -> El:
        return El(self.ring, self.cs[i] if 0 <= i < len(self.cs) else self.ring.zero.v)

    def __call__(self, x) -> El:
        """Horner evaluation (left-multiplying coefficients)."""
        return El(self.ring, _horner(self.ring, self.cs, self.ring.el(x).v))

    def __eq__(self, other):
        if not isinstance(other, Poly) or other.ring != self.ring:
            return NotImplemented
        return len(self.cs) == len(other.cs) and all(map(self.ring._eq, self.cs, other.cs))

    def __hash__(self):
        return hash((self.ring, self.cs))

    def _zip(self, other: "Poly", op) -> "Poly":
        pairs = zip_longest(self.cs, other.cs, fillvalue=self.ring.zero.v)
        return Poly.of(self.ring, [op(a, b) for a, b in pairs])

    def __add__(self, other):
        return self._zip(other, self.ring._add)

    def __sub__(self, other):
        add, neg = self.ring._add, self.ring._neg
        return self._zip(other, lambda a, b: add(a, neg(b)))

    def __mul__(self, other):
        ring = self.ring
        add, mul = ring._add, ring._mul
        if isinstance(other, El):
            return Poly.of(ring, [mul(c, other.v) for c in self.cs])
        if not self.cs or not other.cs:
            return Poly.of(ring, [])
        out = [ring.zero.v] * (len(self.cs) + len(other.cs) - 1)
        for i, a in enumerate(self.cs):
            for j, b in enumerate(other.cs):
                out[i + j] = add(out[i + j], mul(a, b))
        return Poly.of(ring, out)

    def monic(self) -> "Poly":
        if not self.cs or self.ring._eq(self.cs[-1], self.ring.one.v):
            return self
        inv = self.leading.inverse().v
        return Poly.of(self.ring, [self.ring._mul(inv, c) for c in self.cs])

    def derivative(self) -> "Poly":
        ring = self.ring
        return Poly.of(ring, [ring._mul(c, ring.from_int(i).v)
                              for i, c in enumerate(self.cs) if i])

    def low_zero_count(self) -> int:
        """Number of leading zero coefficients from x^0 up (x^s | P)."""
        eq, zero = self.ring._eq, self.ring.zero.v
        s = 0
        while s < len(self.cs) and eq(self.cs[s], zero):
            s += 1
        return s

    def fmt(self, var: str = "x") -> str:
        ring = self.ring
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.cs[i]
            if ring._eq(c, ring.zero.v):
                continue
            term = ring.fmt(c) if i == 0 else ring.fmt_term(c, var if i == 1 else f"{var}^{i}")
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts) or "0"

    def __repr__(self):
        return f"Poly({self.fmt()})"


def _require_commutative(ring: Ring, what: str):
    if not ring.commutative:
        raise NoncommutativeRing(f"{what} requires a commutative ring, got {ring}")


def _horner(ring: Ring, cs, x):
    """The payload p(x), with the accumulator multiplied by x from the right."""
    add, mul = ring._add, ring._mul
    acc = ring.zero.v
    for c in reversed(cs):
        acc = add(mul(acc, x), c)
    return acc


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division a = q*b + r with deg r < deg b. Needs unit leading coeff."""
    ring = a.ring
    _require_commutative(ring, "polynomial division")
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = ring._inv(b.cs[-1])
    if inv_lead is None:
        raise ValueError("divisor leading coefficient must be a unit")
    add, mul, neg, eq, zero = ring._add, ring._mul, ring._neg, ring._eq, ring.zero.v
    rem = list(a.cs)
    q = [zero] * max(0, len(rem) - len(b.cs) + 1)
    while len(rem) >= len(b.cs) and rem:
        k = len(rem) - len(b.cs)
        factor = mul(rem[-1], inv_lead)
        if not eq(factor, zero):
            q[k] = factor
            for i, bc in enumerate(b.cs):
                rem[k + i] = add(rem[k + i], neg(mul(factor, bc)))
        rem.pop()
    return Poly.of(ring, q), Poly.of(ring, rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via Euclid. Intended for fields; gcd(a, 0) is monic a."""
    _require_commutative(a.ring, "polynomial gcd")
    x, y = a, b
    while not y.is_zero:
        _, r = divmod_poly(x, y)
        x, y = y, r
    return x.monic()


def is_root(p: Poly, x, value=None) -> bool:
    """Whether p(x) = 0 for a payload x, given value = p(x) when the caller
    has it.

    Exact rings test value = 0. Over float-complex, whose equality is an
    absolute test (|v| <= tol) near zero, |p(x)| is judged against the
    size of the Horner terms instead: |p(x)| <= tol * sum |c_i| |x|^i.
    """
    ring = p.ring
    if value is None:
        value = _horner(ring, p.cs, x)
    if ring.exact:
        return ring._eq(value, ring.zero.v)
    r = abs(x)
    return abs(value) <= ring.tol * sum(abs(c) * r ** i for i, c in enumerate(p.cs))


def deflate(p: Poly, rho: El) -> Poly:
    """Divide p by (x - rho) via synthetic division.

    The remainder equals p(rho) and must vanish (by ``is_root``); otherwise
    NotAValidRoot is raised.
    """
    ring = p.ring
    if not p.cs:
        raise NotAValidRoot("cannot deflate the zero polynomial")
    x = ring.el(rho).v
    add, mul = ring._add, ring._mul
    out = []
    acc = ring.zero.v
    for c in reversed(p.cs[1:]):
        acc = add(mul(acc, x), c)
        out.append(acc)
    rem = add(mul(acc, x), p.cs[0])
    if not is_root(p, x, rem):
        raise NotAValidRoot(f"{ring.fmt(x)} is not a root (remainder {ring.fmt(rem)})")
    return Poly.of(ring, out[::-1])


def _root_multiplicity(p: Poly, rho: El) -> int:
    """How many times (x - rho) divides p, by repeated deflation."""
    count = 0
    try:
        while True:
            p = deflate(p, rho)
            count += 1
    except NotAValidRoot:
        return count


@dataclass
class RootReport:
    """Common unit roots of a (P, Q) pair, with provenance.

    roots holds (root, multiplicity) pairs in the ring's canonical order.
    ``exhaustive`` is True when absence from the list proves absence of a
    root; numeric (float) searches never claim that. ``gcd`` is the monic
    gcd(P, Q) of a search over a field (Z/p, Q, Q(i)), else None.
    """

    roots: list[tuple[El, int]]
    method: str
    exhaustive: bool
    notes: list[str] = field(default_factory=list)
    gcd: Poly | None = None

    def deflated(self, rho: El) -> "RootReport":
        """The report for (P/(x - rho), Q/(x - rho)), rho one of the roots.

        Needs the gcd: over a field the new gcd is gcd(P, Q)/(x - rho), so
        rho loses one multiplicity and every other root keeps its own.
        """
        g = deflate(self.gcd, rho)
        roots = [(r, m - 1 if r == rho else m) for r, m in self.roots]
        roots = [(r, m) for r, m in roots if m]
        if isinstance(g.ring, IntegersMod):
            return RootReport(roots, self.method, True, [], g)
        method, notes = _field_labels(g)
        return RootReport(roots, method, True, notes, g)

    @property
    def found(self) -> bool:
        return bool(self.roots)

    def describe(self) -> str:
        if not self.roots:
            body = "none"
        else:
            body = ", ".join(
                str(r) if m == 1 else f"{r} (multiplicity {m})" for r, m in self.roots
            )
        tail = "exhaustive" if self.exhaustive else "not exhaustive"
        return f"common unit roots: {body} [method {self.method}, {tail}]"


# Raw-int polynomials over F_p: ascending coefficient lists in [0, p) with
# no trailing zeros, so [] is the zero polynomial.

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b over F_p."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db] * inv % p
        q[k] = c
        if c:
            for i in range(db + 1):
                r[k + i] = (r[k + i] - c * b[i]) % p
    return _trim(q), _trim(r[:db])


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p; a and b are not both zero."""
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mulmod_p(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _divmod_p([c % p for c in out], f, p)[1]


def _powmod_p(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e modulo f over F_p, by square-and-multiply (deg f >= 1)."""
    out = [1]
    while e:
        if e & 1:
            out = _mulmod_p(out, base, f, p)
        e >>= 1
        if e:
            base = _mulmod_p(base, base, f, p)
    return out


def _minus_p(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _split_p(h: list[int], p: int, c: int, out: list[int]) -> None:
    """Append the roots of h, a monic product of distinct x - r with r != 0.

    gcd(h, (x + c)^((p-1)/2) - 1) collects the roots r with r + c a nonzero
    square; c runs 0, 1, 2, ... until h splits. A c that failed to split h
    cannot split a factor of h either, so both factors go on from c + 1.
    Over F_2 h is at most x - 1 and never reaches the loop.
    """
    while len(h) > 2:
        w = _minus_p(_powmod_p([c, 1], (p - 1) // 2, h, p), [1], p)
        a = _gcd_p(h, w, p)
        c += 1
        if 1 < len(a) < len(h):
            _split_p(a, p, c, out)
            h = _divmod_p(h, a, p)[0]
    if len(h) == 2:
        out.append(-h[0] % p)


def _roots_mod_p(f: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of a nonzero f, ascending (Rabin 1980).

    h = gcd(f, x^p - x) is the product of x - r over the roots r; x^p is
    taken modulo f. The root 0 is divided out before h is split.
    """
    if len(f) < 2:
        return []
    h = _gcd_p(f, _minus_p(_powmod_p([0, 1], p, f, p), [0, 1], p), p)
    roots = []
    if h[0] == 0:  # h is squarefree, so x divides it at most once
        roots.append(0)
        h = h[1:]
    _split_p(h, p, 0, roots)
    return sorted(roots)


def _eval_mod(cs: list[int], x: int, m: int) -> int:
    """Horner evaluation of ascending integer coefficients at x, mod m."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


# Composite moduli are factored by trial division; above this they are refused.
MAX_COMPOSITE_MODULUS = 10**6


def _prime_powers(m: int) -> list[tuple[int, int]]:
    """(p, e) for every prime power p^e exactly dividing m, by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def _residue_unit_roots(pc: list[int], qc: list[int], factors) -> list[int]:
    """The common unit roots mod m = prod p^e of pc and qc ([] is no constraint), ascending.

    The roots mod p lift one digit at a time: with f(r) = 0 (mod p^j),
    f(r + t*p^j) = f(r) + t*p^j*f'(r) (mod p^(j+1)), so t solves
    f(r)/p^j + t*f'(r) = 0 (mod p) for each nonzero f: one t when f'(r) is
    nonzero mod p, every t or none when it is zero.
    """
    polys = [(f, [i * c for i, c in enumerate(f)][1:]) for f in (pc, qc) if f]
    roots, mod = [0], 1
    for p, e in factors:
        fp, hp = _trim([c % p for c in pc]), _trim([c % p for c in qc])
        rs = [r for r in _roots_mod_p(_gcd_p(fp, hp, p), p) if r] if fp or hp else range(1, p)
        pj = p
        for _ in range(1, e):
            lifts = []
            for r in rs:
                ts = range(p)
                for f, df in polys:
                    v, d = _eval_mod(f, r, pj * p) // pj, _eval_mod(df, r, p)
                    if d:
                        t = -v * pow(d, -1, p) % p
                        ts = [t] if t in ts else []
                    elif v:
                        ts = []
                lifts.extend(r + t * pj for t in ts)
            rs, pj = lifts, pj * p
        inv = pow(mod, -1, pj)
        roots = [a + mod * ((b - a) * inv % pj) for a in roots for b in rs]
        mod *= pj
    return sorted(roots)


def _finite_unit_roots(P: Poly, Q: Poly, ring: IntegersMod) -> RootReport:
    m, pc, qc = ring.m, P.cs, Q.cs
    if ring.is_prime:
        G = Poly.of(ring, _gcd_p(pc, qc, m))
        units = [El(ring, r) for r in _residue_unit_roots(pc, qc, [(m, 1)])]
        return RootReport([(u, _root_multiplicity(G, u)) for u in units],
                          "exhaustive-units", True, [], G)
    if m > MAX_COMPOSITE_MODULUS:
        raise ParseError(
            f"root search over composite modulus {m} is refused: composite moduli "
            f"are factored by trial division, limited to moduli up to "
            f"{MAX_COMPOSITE_MODULUS}")
    roots = [(El(ring, u), 1) for u in _residue_unit_roots(pc, qc, _prime_powers(m))]
    notes = ["composite modulus: multiplicities reported as 1"] if roots else []
    return RootReport(roots, "exhaustive-units", True, notes)


# Integer polynomials over Q and Q(i): ascending lists of Gaussian integers
# (a, b) for a + bi, with b = 0 over Q.

def _gmul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _integral(cs) -> list:
    """The rational or Gaussian-rational payloads cs times the lcm of their
    denominators, as Gaussian integers."""
    d = math.lcm(*[c[-1] for c in cs])
    return [(c[0] * (d // c[-1]), (c[1] if len(c) == 3 else 0) * (d // c[-1])) for c in cs]


def _annihilates(f: list, root) -> bool:
    """Whether the integer polynomial f vanishes at the payload root, u/d
    with u = n or x + yi: sum f_i u^i d^(deg f - i) = 0."""
    u, d = (root[0], root[1] if len(root) == 3 else 0), root[-1]
    acc, dp = f[-1], 1
    for a, b in reversed(f[:-1]):
        dp *= d
        acc = _gmul(acc, u)
        acc = (acc[0] + a * dp, acc[1] + b * dp)
    return acc == (0, 0)


def _rational_root_candidates(f: list, gauss: bool) -> list:
    """Candidate roots over Q or Q(i) of a squarefree polynomial with f(0) != 0,
    by p-adic lifting (Loos 1983). f holds its coefficients times the lcm of
    their denominators, a + b*i as (a, b) (b = 0 over Q).

    Z and Z[i] are UFDs, so a root u/v in lowest terms has u | f(0) and
    v | lead f, and c = lead(f) * root is an integer of Z or Z[i] with
    |c| <= |f(0)| |lead f|. p is the least prime not dividing N(lead f) that
    keeps f squarefree mod p; over Q(i) also p = 1 (mod 4), and f must stay
    squarefree under both embeddings i -> s and i -> -s, where
    s^2 = -1 (mod p). The roots of each embedding mod p are Hensel-lifted,
    with s, until M = p^N exceeds the bound, and c is read off its symmetric
    residue mod M. Over Q(i) each pair of roots c1, c2 of the two embeddings
    gives Re c = (c1 + c2)/2 and Im c = (c1 - c2)/(2s). Returns payloads
    (n, d) over Q and (x, y, d) over Q(i); callers keep only exact roots.
    """
    re = [a for a, _ in f]
    im = [b for _, b in f]
    norm_lead = re[-1] ** 2 + im[-1] ** 2
    bound = 2 * math.isqrt((re[0] ** 2 + im[0] ** 2) * norm_lead) + 3

    def embed(t: int, m: int) -> list[int]:  # f under i -> t, mod m
        return [(a + b * t) % m for a, b in zip(re, im)]

    def squarefree_mod(f: list[int], p: int) -> bool:
        # p does not divide lead f, so p divides disc f exactly when f mod p
        # has a repeated factor, that is when gcd(f, f') mod p is not constant.
        return len(_gcd_p(f, _trim([i * c % p for i, c in enumerate(f)][1:]), p)) == 1

    p = 1
    while True:
        p += 1
        if not is_prime(p) or norm_lead % p == 0 or (gauss and p % 4 != 1):
            continue
        s = 0
        if gauss:
            z = 2
            while (s := pow(z, (p - 1) // 4, p)) * s % p != p - 1:
                z += 1
        if all(squarefree_mod(embed(t, p), p) for t in {s, -s}):
            break
    M = p
    while M <= bound:
        M *= M
        if gauss:  # Newton step keeps s^2 = -1 (mod M)
            s = (s - (s * s + 1) * pow(2 * s, -1, M)) % M

    def sym(c: int) -> int:  # symmetric residue mod M
        c %= M
        return c - M if 2 * c > M else c

    lifted = []  # lead(f) * root mod M, per embedding
    for t in (s, -s) if gauss else (0,):
        g = embed(t, M)
        dg = [i * c for i, c in enumerate(g)][1:]
        cs = []
        for r in _roots_mod_p(_trim([c % p for c in g]), p):
            m = p
            while m < M:
                m *= m
                r = (r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m
            cs.append(g[-1] * r)
        lifted.append(cs)
    if not gauss:
        return [_reduced(sym(c), re[-1]) for c in lifted[0]]
    half, half_s = pow(2, -1, M), pow(2 * s, -1, M)
    out = []
    for c1 in lifted[0]:
        for c2 in lifted[1]:
            x, y = sym((c1 + c2) * half), sym((c1 - c2) * half_s)
            # (x + y*i) / lead f
            out.append(_reduced(x * re[-1] + y * im[-1], y * re[-1] - x * im[-1], norm_lead))
    return out


def _field_labels(g: Poly) -> tuple[str, list[str]]:
    """Method and notes of a search over Q or Q(i) whose gcd(P, Q) is g.

    A constant g, or one whose unit part g / x^s is linear, reads off its
    roots ("field-gcd"); any other g is searched ("rational-root").
    """
    if g.degree <= 0:
        return "field-gcd", []
    s = g.low_zero_count()
    return ("field-gcd" if g.degree - s == 1 else "rational-root",
            ["dropped root 0 (not a unit)"] if s else [])


def _exact_field_unit_roots(P: Poly, Q: Poly) -> RootReport:
    ring = P.ring
    full = poly_gcd(P, Q)
    s = full.low_zero_count()
    g = Poly.of(ring, full.cs[s:])  # g(0) != 0, so no candidate that g annihilates is zero
    if g.degree < 1:
        found = []
    elif g.degree == 1:
        found = [ring._neg(g.cs[0])]
    else:
        sf = _integral(divmod_poly(g, poly_gcd(g, g.derivative()))[0].cs)
        gauss = isinstance(ring, GaussianRationals)
        found = sorted((r for r in _rational_root_candidates(sf, gauss) if _annihilates(sf, r)),
                       key=ring._key)
    method, notes = _field_labels(full)
    roots = [El(ring, r) for r in found]
    return RootReport([(r, _root_multiplicity(full, r)) for r in roots], method, True, notes,
                      full)


def durand_kerner(coeffs: list[complex], max_iter: int = 200,
                  residual_tol: float = 1e-10) -> list[complex]:
    """All roots of a complex polynomial, coefficients ascending.

    Simultaneous iteration from the usual spiral start. Raises ValueError when
    the iteration does not reach the residual tolerance: callers treat that as
    "no reliable root set", never as "no roots".
    """
    cs = list(coeffs)
    while cs and abs(cs[-1]) == 0.0:
        cs.pop()
    n = len(cs) - 1
    if n < 1:
        return []
    lead = cs[-1]
    mon = [c / lead for c in cs]

    def val(z: complex) -> complex:
        acc = 0j
        for c in reversed(mon):
            acc = acc * z + c
        return acc

    bound = 1.0 + max(abs(c) for c in mon[:-1]) if n >= 1 else 1.0
    seed = 0.4 + 0.9j
    zs = [bound * seed ** k for k in range(1, n + 1)]
    for _ in range(max_iter):
        moved = 0.0
        for i in range(n):
            denom = 1.0 + 0j
            for j in range(n):
                if j != i:
                    denom *= zs[i] - zs[j]
            if denom == 0:
                denom = 1e-30
            step = val(zs[i]) / denom
            zs[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14:
            break
    scale = max(1.0, max(abs(z) for z in zs)) ** n
    bad = [z for z in zs if abs(val(z)) > residual_tol * scale]
    if bad:
        raise ValueError(f"root iteration did not converge (worst residual at {bad[0]:.3g})")
    return zs


def _cluster(points: list[complex], tol: float) -> list[tuple[complex, int]]:
    """Group nearly equal points; returns (representative mean, count)."""
    groups: list[list[complex]] = []
    for z in sorted(points, key=lambda w: (w.real, w.imag)):
        for g in groups:
            if abs(z - g[0]) <= tol:
                g.append(z)
                break
        else:
            groups.append([z])
    return [(sum(g) / len(g), len(g)) for g in groups]


def _float_unit_roots(P: Poly, Q: Poly, ring: FloatComplex,
                      match_tol: float = 1e-8) -> RootReport:
    notes = []
    proots = _cluster(durand_kerner(list(P.cs)), match_tol)
    if Q.is_zero:
        common = proots
        notes.append("second polynomial is zero; using all roots of the first")
    else:
        qroots = _cluster(durand_kerner(list(Q.cs)), match_tol)
        common = []
        for zp, mp in proots:
            for zq, mq in qroots:
                if abs(zp - zq) <= match_tol:
                    common.append(((zp + zq) / 2, min(mp, mq)))
                    break
    roots = [(El(ring, z), m) for z, m in common if ring._inv(z) is not None]
    # Quantize the ordering key so residual solver noise (~1e-16) cannot
    # flip which root the greedy chain consumes first.
    roots.sort(key=lambda rm: (round(rm[0].v.real, 6), round(rm[0].v.imag, 6)))
    return RootReport(roots, "numeric", False, notes)


def unit_roots(P: Poly, Q: Poly) -> RootReport:
    """Common unit roots of P and Q (Q may be zero, meaning "no constraint")."""
    ring = P.ring
    if not ring.commutative:
        raise NoncommutativeRing("root search needs a commutative coefficient ring")
    if P.is_zero:
        raise ParseError("the first polynomial of a root search must be nonzero")
    if isinstance(ring, IntegersMod):
        return _finite_unit_roots(P, Q, ring)
    if isinstance(ring, (Rationals, GaussianRationals)):
        return _exact_field_unit_roots(P, Q)
    if isinstance(ring, FloatComplex):
        return _float_unit_roots(P, Q, ring)
    raise ParseError(f"no root search available over {ring}")


def verified_roots(P: Poly, Q: Poly, claimed: list[El]) -> RootReport:
    """Validate user-supplied roots by evaluation; multiplicity from repetition."""
    _require_commutative(P.ring, "root verification")
    counts: list[tuple[El, int]] = []
    for rho in claimed:
        rho = P.ring.el(rho)
        if not rho.is_unit:
            raise NotAValidRoot(f"claimed root {rho} is not a unit")
        if not is_root(P, rho.v):
            raise NotAValidRoot(f"claimed root {rho} does not annihilate {P.fmt()}")
        if not Q.is_zero and not is_root(Q, rho.v):
            raise NotAValidRoot(f"claimed root {rho} does not annihilate {Q.fmt()}")
        for i, (r, m) in enumerate(counts):
            if r == rho:
                counts[i] = (r, m + 1)
                break
        else:
            counts.append((rho, 1))
    return RootReport(counts, "user-supplied", False)
