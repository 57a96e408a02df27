"""Polynomials over a coefficient ring, plus common-unit-root search.

A Poly stores the payloads of its coefficients ascending (cs[i] multiplies
x^i) with no trailing zeros; the zero polynomial has an empty tuple.
Coefficients, values and roots are payloads throughout.
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
  Cantor-Zassenhaus). Each power (x + c)^e modulo a polynomial of degree d
  runs in a square-and-multiply kernel generated for d and compiled once
  per process, with every coefficient a local: a square is reduced by the
  monic modulus to its remainder, and a multiply by x + c is a shift.
  Euclid's gcd keeps remainders only. A kernel grows with d^2, so a g of
  degree above MAX_PRIME_SEARCH_DEGREE is refused. Each root r mod p^j
  lifts one digit at a time (Hensel):
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

import functools
import math
from collections import namedtuple
from itertools import zip_longest

from .errors import NoConvergence, NoncommutativeRing, NotAValidRoot, ParseError
from .rings import (MAX_PAYLOAD_BITS, FloatComplex, GaussianRationals, IntegersMod, Rationals,
                    Ring, _reduced, is_prime)


def _trimmed(ring: Ring, cs: list) -> tuple:
    eq, zero = ring._eq, ring.zero
    while cs and eq(cs[-1], zero):
        cs.pop()
    return tuple(cs)


class Poly:
    """A polynomial with coefficients in one ring, ascending order.

    ``cs`` holds the coefficient payloads; Poly.of builds a polynomial from
    canonical payloads, the constructor from anything ring.payload accepts.
    """

    __slots__ = ("ring", "cs")

    def __init__(self, ring: Ring, coeffs):
        self.ring = ring
        self.cs = _trimmed(ring, [ring.payload(c) for c in coeffs])

    @classmethod
    def of(cls, ring: Ring, cs) -> "Poly":
        p = cls.__new__(cls)
        p.ring, p.cs = ring, _trimmed(ring, list(cs))
        return p

    @property
    def coeffs(self) -> tuple:
        return self.cs

    @property
    def degree(self) -> int:
        return len(self.cs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.cs

    @property
    def leading(self):
        if not self.cs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.cs[-1]

    def coeff(self, i: int):
        return self.cs[i] if 0 <= i < len(self.cs) else self.ring.zero

    def __call__(self, x):
        """Horner evaluation (left-multiplying coefficients)."""
        return _horner(self.ring, self.cs, self.ring.payload(x))

    def __eq__(self, other):
        if not isinstance(other, Poly) or other.ring != self.ring:
            return NotImplemented
        return len(self.cs) == len(other.cs) and all(map(self.ring._eq, self.cs, other.cs))

    def __hash__(self):
        return hash((self.ring, self.cs))

    def monic(self) -> "Poly":
        if not self.cs or self.ring._eq(self.cs[-1], self.ring.one):
            return self
        inv = self.ring.inverse(self.cs[-1])
        return Poly.of(self.ring, [self.ring._mul(inv, c) for c in self.cs])

    def derivative(self) -> "Poly":
        ring = self.ring
        return Poly.of(ring, [ring._mul(c, ring.payload(i)) for i, c in enumerate(self.cs) if i])

    def low_zero_count(self) -> int:
        """Number of leading zero coefficients from x^0 up (x^s | P)."""
        eq, zero = self.ring._eq, self.ring.zero
        s = 0
        while s < len(self.cs) and eq(self.cs[s], zero):
            s += 1
        return s

    def fmt(self, var: str = "x") -> str:
        ring = self.ring
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.cs[i]
            if ring._eq(c, ring.zero):
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


def _horner_rows(ring: Ring, cs, x) -> list:
    """The Horner accumulators of p at x, from the top coefficient down, with
    the accumulator multiplied by x from the right; the last is p(x). Each
    is one lazy product and sum, reduced once."""
    add, mul, normal = ring._lazy_add, ring._lazy_mul, ring._normal
    acc, rows = ring.zero, []
    for c in reversed(cs):
        acc = normal(add(mul(acc, x), c))
        rows.append(acc)
    return rows


def _horner(ring: Ring, cs, x):
    """The payload p(x)."""
    return _horner_rows(ring, cs, x)[-1] if cs else ring.zero


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division a = q*b + r with deg r < deg b. Needs unit leading coeff."""
    ring = a.ring
    _require_commutative(ring, "polynomial division")
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = ring._inv(b.cs[-1])
    if inv_lead is None:
        raise ValueError("divisor leading coefficient must be a unit")
    add, mul, normal, eq, zero = ring._lazy_add, ring._lazy_mul, ring._normal, ring._eq, ring.zero
    rem = list(a.cs)
    q = [zero] * max(0, len(rem) - len(b.cs) + 1)
    while len(rem) >= len(b.cs) and rem:
        k = len(rem) - len(b.cs)
        factor = ring._mul(rem[-1], inv_lead)
        if not eq(factor, zero):
            q[k] = factor
            neg_factor = ring._neg(factor)
            for i, bc in enumerate(b.cs):
                rem[k + i] = normal(add(rem[k + i], mul(neg_factor, bc)))
        rem.pop()
    return Poly.of(ring, q), Poly.of(ring, rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via Euclid. Intended for fields; gcd(a, 0) is monic a. Over Q
    and Q(i) the remainders swell, so one with a part past MAX_PAYLOAD_BITS is
    refused."""
    ring = a.ring
    _require_commutative(ring, "polynomial gcd")
    oversize = ring._oversize
    x, y = a, b
    while not y.is_zero:
        _, r = divmod_poly(x, y)
        if oversize is not None and any(map(oversize, r.cs)):
            raise ParseError(f"gcd over {ring} is refused: a remainder of Euclid's algorithm "
                             f"exceeds the size limit of {MAX_PAYLOAD_BITS} bits per numerator "
                             "or denominator")
        x, y = y, r
    return x.monic()


def _vanishes(ring: Ring, value, size: float, steps) -> bool:
    """Whether value, the end of a Horner recursion v_i = v_{i-1} x_i + c_i
    over steps = ((x_i, c_i), ...), is zero: exactly on an exact ring; on a
    float ring, whose equality is absolute near zero, within tol times the
    same recursion on magnitudes from size (overflow gives inf), and never
    when it is not finite."""
    if ring.exact:
        return ring._eq(value, ring.zero)
    for x, c in steps:
        size = size * ring._abs(x) + ring._abs(c)
    return math.isfinite(value := ring._abs(value)) and value <= ring.tol * size


def is_root(p: Poly, x, value=None) -> bool:
    """Whether p(x) = 0 for a payload x, given value = p(x) when the caller
    has it: _vanishes over p's Horner steps, so on float-complex |p(x)| is
    judged against tol * sum |c_i| |x|^i."""
    if value is None:
        value = _horner(p.ring, p.cs, x)
    return _vanishes(p.ring, value, 0.0, ((x, c) for c in reversed(p.cs)))


def deflate(p: Poly, rho) -> Poly:
    """Divide p by (x - rho) via synthetic division; rho is anything
    ring.payload accepts.

    The remainder equals p(rho) and must vanish (by ``is_root``); otherwise
    NotAValidRoot is raised.
    """
    ring = p.ring
    if not p.cs:
        raise NotAValidRoot("cannot deflate the zero polynomial")
    x = ring.payload(rho)
    rows = _horner_rows(ring, p.cs, x)
    rem = rows.pop()
    if not is_root(p, x, rem):
        raise NotAValidRoot(f"{ring.fmt(x)} is not a root (remainder {ring.fmt(rem)})")
    return Poly.of(ring, rows[::-1])


def _root_multiplicity(p: Poly, rho) -> int:
    """How many times (x - rho) divides p, by repeated deflation."""
    count = 0
    try:
        while True:
            p = deflate(p, rho)
            count += 1
    except NotAValidRoot:
        return count


class RootReport(namedtuple("RootReport", "ring roots method exhaustive notes gcd")):
    """Common unit roots of a (P, Q) pair over ``ring``, with provenance.

    roots holds (root payload, multiplicity) pairs in the ring's canonical
    order. ``exhaustive`` is True when absence from the list proves absence
    of a root; numeric (float) searches never claim that. ``gcd`` is the
    monic gcd(P, Q) of a search over a field (Z/p, Q, Q(i)), else None.
    """

    __slots__ = ()

    def __new__(cls, ring: Ring, roots: list[tuple[object, int]], method: str,
                exhaustive: bool, notes: list[str] | None = None, gcd: Poly | None = None):
        return super().__new__(cls, ring, roots, method, exhaustive,
                               [] if notes is None else notes, gcd)

    def deflated(self, rho) -> "RootReport":
        """The report for (P/(x - rho), Q/(x - rho)), rho one of the roots.

        Needs the gcd: over a field the new gcd is gcd(P, Q)/(x - rho), so
        rho loses one multiplicity and every other root keeps its own.
        """
        ring, g = self.ring, deflate(self.gcd, rho)
        roots = [(r, m - 1 if ring._eq(r, rho) else m) for r, m in self.roots]
        roots = [(r, m) for r, m in roots if m]
        if isinstance(ring, IntegersMod):
            return RootReport(ring, roots, self.method, True, [], g)
        method, notes = _field_labels(g)
        return RootReport(ring, roots, method, True, notes, g)

    @property
    def found(self) -> bool:
        return bool(self.roots)

    def describe(self) -> str:
        if not self.roots:
            body = "none"
        else:
            fmt = self.ring.fmt
            body = ", ".join(
                fmt(r) if m == 1 else f"{fmt(r)} (multiplicity {m})" for r, m in self.roots
            )
        tail = "exhaustive" if self.exhaustive else "not exhaustive"
        return f"common unit roots: {body} [method {self.method}, {tail}]"


# Raw-int polynomials over F_p: ascending coefficient lists in [0, p) with
# no trailing zeros, so [] is the zero polynomial.

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _longdiv_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Long division of a by a nonzero b over F_p in one list: its first
    deg b entries are the remainder and the rest is the quotient."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db] = r[k + db] * inv % p
        if c:
            for i in range(db):
                r[k + i] = (r[k + i] - c * b[i]) % p
    return r


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p; a and b are not both zero."""
    while b:
        a, b = b, _trim(_longdiv_p(a, b, p)[:len(b) - 1])
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _square_source(d: int) -> list[str]:
    """The 2d - 1 coefficients of (r0 + r1 x + .. + r(d-1) x^(d-1))^2 as
    source, each cross term written once and doubled."""
    out = []
    for k in range(2 * d - 1):
        cross = " + ".join(f"r{i} * r{k - i}" for i in range(max(0, k - d + 1), (k + 1) // 2))
        terms = [f"2 * ({cross})"] if cross else []
        if k % 2 == 0:
            terms.append(f"r{k // 2} * r{k // 2}")
        out.append(" + ".join(terms))
    return out


def _reduce_source(ts: list[str], d: int, indent: str) -> list[str]:
    """Lines setting r0..r(d-1) to the product ts modulo the monic
    x^d - (n0 + n1 x + .. + n(d-1) x^(d-1)), remainder only: the terms from
    x^(2d-2) down to x^d are taken mod p as they are folded down (t_k), and
    each kept coefficient is taken mod p once."""
    lines, kept = [], []
    for k in range(2 * d - 2, -1, -1):
        folded = " + ".join([ts[k]] + [f"t{j} * n{k - j + d}"
                                       for j in range(max(k + 1, d), min(k + d, 2 * d - 2) + 1)])
        if k >= d:
            lines.append(f"{indent}t{k} = ({folded}) % p")
        else:
            kept.append(f"({folded}) % p")
    rs = ", ".join(f"r{i}" for i in range(d))
    return lines + [f"{indent}{rs}, = {', '.join(reversed(kept))},"]


def _times_linear_source(d: int, indent: str) -> str:
    """A line setting r0..r(d-1) to r*(x + c) modulo the same monic: x*r is
    a shift whose top coefficient r(d-1) folds back as r(d-1)*n_i."""
    rs = ", ".join(f"r{i}" for i in range(d))
    terms = [f"({f'r{i - 1} + ' if i else ''}c * r{i} + r{d - 1} * n{i}) % p" for i in range(d)]
    return f"{indent}{rs}, = {', '.join(terms)},"


# Square-and-multiply kernels kept per process, one per degree of the modulus.
POW_KERNEL_CACHE_SIZE = 64

# A kernel's source grows with the square of its degree (about 1.5 d^2
# products), so a search over Z/p refuses a gcd(P, Q) of higher degree.
MAX_PRIME_SEARCH_DEGREE = 128


@functools.lru_cache(maxsize=POW_KERNEL_CACHE_SIZE)
def _pow_kernel(d: int):
    """kernel(c, n0.., bits, p): the coefficients of (x + c)^e modulo the
    monic x^d - sum n_i x^i over F_p, for bits = bin(e)[3:] and e >= 1.
    Every coefficient is a local."""
    rs, ns = (", ".join(f"{v}{i}" for i in range(d)) for v in "rn")
    source = "\n".join([
        f"def kernel(c, {ns}, bits, p):",
        f"    {rs}, = 1,{' 0,' * (d - 1)}",
        _times_linear_source(d, "    "),
        "    for bit in bits:",
        *_reduce_source(_square_source(d), d, "        "),
        "        if bit == '1':",
        _times_linear_source(d, "            "),
        f"    return [{rs}]"])
    namespace = {}
    exec(compile(source, f"<scfactor powmod kernel, degree {d}>", "exec"), namespace)
    return namespace["kernel"]


def _powmod_p(c: int, e: int, f: list[int], p: int) -> list[int]:
    """(x + c)^e modulo f over F_p (deg f >= 1), in the kernel for deg f,
    with f made monic first."""
    if not e:
        return [1]
    inv = -pow(f[-1], -1, p)
    return _trim(_pow_kernel(len(f) - 1)(c, *[a * inv % p for a in f[:-1]], bin(e)[3:], p))


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
        w = _minus_p(_powmod_p(c, (p - 1) // 2, h, p), [1], p)
        a = _gcd_p(h, w, p)
        c += 1
        if 1 < len(a) < len(h):
            _split_p(a, p, c, out)
            h = _longdiv_p(h, a, p)[len(a) - 1:]
    if len(h) == 2:
        out.append(-h[0] % p)


def _roots_mod_p(f: list[int], p: int) -> list[int]:
    """The distinct roots in F_p of a nonzero f, ascending (Rabin 1980).

    h = gcd(f, x^p - x) is the product of x - r over the roots r; x^p is
    taken modulo f. The root 0 is divided out before h is split.
    """
    if len(f) < 2:
        return []
    if len(f) - 1 > MAX_PRIME_SEARCH_DEGREE:
        raise ParseError(
            f"root search mod {p} over a gcd(P, Q) of degree {len(f) - 1} is refused: "
            f"the search is limited to degree {MAX_PRIME_SEARCH_DEGREE}")
    h = _gcd_p(f, _minus_p(_powmod_p(0, p, f, p), [0, 1], p), p)
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
        units = [u for u in _roots_mod_p(G.cs, m) if u]
        return RootReport(ring, [(u, _root_multiplicity(G, u)) for u in units],
                          "exhaustive-units", True, [], G)
    if m > MAX_COMPOSITE_MODULUS:
        raise ParseError(
            f"root search over composite modulus {m} is refused: composite moduli "
            f"are factored by trial division, limited to moduli up to "
            f"{MAX_COMPOSITE_MODULUS}")
    roots = [(u, 1) for u in _residue_unit_roots(pc, qc, _prime_powers(m))]
    notes = ["composite modulus: multiplicities reported as 1"] if roots else []
    return RootReport(ring, roots, "exhaustive-units", True, notes)


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


# Euclid over Q and Q(i) costs about deg^2 operations on coefficients of up
# to MAX_PAYLOAD_BITS bits, so a search over a P of higher degree is refused.
MAX_FIELD_SEARCH_DEGREE = 48


def _exact_field_unit_roots(P: Poly, Q: Poly) -> RootReport:
    ring = P.ring
    if P.degree > MAX_FIELD_SEARCH_DEGREE:
        raise ParseError(f"root search over {ring} with P of degree {P.degree} is refused: "
                         f"the search is limited to degree {MAX_FIELD_SEARCH_DEGREE}")
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
    return RootReport(ring, [(r, _root_multiplicity(full, r)) for r in found], method, True,
                      notes, full)


def durand_kerner(coeffs: list[complex], max_iter: int = 200,
                  residual_tol: float = 1e-10) -> list[complex]:
    """All roots of a complex polynomial, coefficients ascending.

    Simultaneous iteration from the usual spiral start. Raises NoConvergence
    when the iteration does not reach the residual tolerance: callers treat
    that as "no reliable root set", never as "no roots".
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
        raise NoConvergence(f"root iteration did not converge (worst residual at {bad[0]:.3g})")
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
    roots = [(z, m) for z, m in common if ring._inv(z) is not None]
    # Quantize the ordering key so residual solver noise (~1e-16) cannot
    # flip which root the greedy chain consumes first.
    roots.sort(key=lambda rm: (round(rm[0].real, 6), round(rm[0].imag, 6)))
    return RootReport(ring, roots, "numeric", False, notes)


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


def verified_roots(P: Poly, Q: Poly, claimed: list) -> RootReport:
    """Validate user-supplied roots (anything ring.payload accepts) by
    evaluation; multiplicity from repetition."""
    ring = P.ring
    _require_commutative(ring, "root verification")
    counts: list[tuple[object, int]] = []
    for rho in claimed:
        rho = ring.payload(rho)
        text = ring.fmt(rho)
        if ring._inv(rho) is None:
            raise NotAValidRoot(f"claimed root {text} is not a unit")
        if not is_root(P, rho):
            raise NotAValidRoot(f"claimed root {text} does not annihilate {P.fmt()}")
        if not Q.is_zero and not is_root(Q, rho):
            raise NotAValidRoot(f"claimed root {text} does not annihilate {Q.fmt()}")
        for i, (r, m) in enumerate(counts):
            if ring._eq(r, rho):
                counts[i] = (r, m + 1)
                break
        else:
            counts.append((rho, 1))
    return RootReport(ring, counts, "user-supplied", False)
