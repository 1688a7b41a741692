"""Finite fields F_{p^m}, their polynomials, and curve-counting helpers.

A field context fixes the monic irreducible modulus of degree m over F_p
with the lexicographically least coefficient encoding sum(c_i * p^i), so
every run and every implementation agrees on coordinates. Arithmetic runs
on int tuples in three layers: dense F_p[X] (the `_fp_*` routines), F_q
as trimmed residue tuples modulo the field's modulus (`_fq_mul`,
`_fq_inv`), and F_q[X] as tuples of residue tuples inside FqPoly, whose
operators, gcds, powers and root finding do no FqElement arithmetic.
FqElement wraps one residue tuple as it is, so an element and a
polynomial coefficient share one representation, which no other module
reads. On top sit gcd and Cantor-Zassenhaus root finding, the
supersingular polynomial in the Kaneko-Zagier closed form (a truncated
hypergeometric series, one O(p) loop) and one cached table of its
irreducible factors over F_p, Frobenius traces by exhaustive point
counting, Deuring discriminant search, reduction histograms of class
polynomials at inert primes, read off the minimal polynomials of the
supersingular j-invariants (Deuring), and the exact Deuring check that
classpoly runs on every fresh H_D at the two least non-split primes.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import count, islice
from math import isqrt
from operator import index

from .arith import (
    is_discriminant,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    prime_divisors,
)
from .errors import (
    FieldMismatch,
    FieldTooLarge,
    NotFound,
    NotInert,
    SupersingularInput,
    VerificationFailed,
)
from .quadforms import class_number

FIELD_CAP = 1 << 20  # exhaustive point counting stays below this order

# ---------------------------------------------------------------------------
# Internal dense F_p[X] arithmetic on int tuples, constant term first.


def _fp_trim(c: list) -> tuple:
    # also trims F_q[X] tuples, whose zero coefficient is the empty tuple
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _fp_add(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _fp_trim(out)


def _fp_sub(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _fp_trim(out)


def _fp_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _fp_trim([c % p for c in out])


def _fp_divmod(
    a: tuple[int, ...], b: tuple[int, ...], p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return (), a
    quot = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        q = rem[i + len(b) - 1] * inv_lead % p
        if q:
            quot[i] = q
            for j, c in enumerate(b):
                rem[i + j] = (rem[i + j] - q * c) % p
    return _fp_trim(quot), _fp_trim(rem)


def _fp_monic(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _fp_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p)


def _fp_pow(base: tuple[int, ...], e: int, p: int, mod: tuple[int, ...] = ()) -> tuple[int, ...]:
    """base**e over Z/p, reduced modulo mod after every product when one is given."""

    def reduce(a: tuple[int, ...]) -> tuple[int, ...]:
        return _fp_divmod(a, mod, p)[1] if mod else a

    result = _fp_trim([1 % p])
    while e:
        if e & 1:
            result = reduce(_fp_mul(result, base, p))
        e >>= 1
        if e:
            base = reduce(_fp_mul(base, base, p))
    return result


def _fp_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic polynomial over F_p."""
    m = len(f) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    x: tuple[int, ...] = (0, 1)
    frob = [x]  # frob[i] = X^(p^i) mod f
    t = x
    for _ in range(m):
        t = _fp_pow(t, p, p, f)
        frob.append(t)
    if frob[m] != _fp_divmod(x, f, p)[1]:
        return False
    for r in prime_divisors(m):
        h = _fp_sub(frob[m // r], x, p)
        if len(_fp_gcd(h, f, p)) != 1:
            return False
    return True


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m minimizing sum(c_i * p^i) over F_p."""
    # an irreducible of every degree exists over F_p, so enc stays below p^m
    for enc in count(0):
        digits = []
        e = enc
        for _ in range(m):
            e, d = divmod(e, p)
            digits.append(d)
        f = tuple(digits) + (1,)
        if _fp_is_irreducible(f, p):
            return f


# ---------------------------------------------------------------------------
# Field contexts and elements.


class Fq:
    """Immutable context for F_{p^m} with the canonical modulus."""

    __slots__ = ("p", "m", "q", "modulus")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus

    def element(self, coords) -> FqElement:
        """The element with these coordinates, each an int or an __index__ type."""
        c = [index(x) % self.p for x in coords]
        if len(c) > self.m:
            raise ValueError("too many coordinates")
        return FqElement(self, _fp_trim(c))

    def from_int(self, n: int) -> FqElement:
        return self.element([n])

    def from_encoding(self, enc: int) -> FqElement:
        if not 0 <= enc < self.q:
            raise ValueError("encoding out of range")
        coords = []
        while enc:
            enc, d = divmod(enc, self.p)
            coords.append(d)
        return FqElement(self, tuple(coords))

    def zero(self) -> FqElement:
        return self.element([])

    def one(self) -> FqElement:
        return self.element([1])

    def gen(self) -> FqElement:
        """Residue of X, a root of the modulus (equals 0 when m = 1)."""
        return self.element([0, 1][: self.m] if self.m > 1 else [0])

    def elements(self):
        for enc in range(self.q):
            yield self.from_encoding(enc)

    def multiplicative_generator(self) -> FqElement:
        primes = prime_divisors(self.q - 1)
        # F_q^x is cyclic, so a generator turns up before enc reaches q
        for enc in count(1):
            g = self.from_encoding(enc)
            if all(g ** ((self.q - 1) // r) != self.one() for r in primes):
                return g

    def __repr__(self) -> str:
        return f"Fq({self.p}^{self.m})"


@lru_cache(maxsize=None)
def fq_context(p: int, m: int = 1) -> Fq:
    """The field F_{p^m}; contexts are cached so identity implies equality."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be positive")
    return Fq(p, m, _least_irreducible(p, m))


# ---------------------------------------------------------------------------
# F_q arithmetic on coordinate tuples: trimmed F_p[X] residues modulo the
# field's modulus, the one representation of FqElement and FqPoly alike.


def _fq_mul(a: tuple[int, ...], b: tuple[int, ...], field: Fq) -> tuple[int, ...]:
    return _fp_divmod(_fp_mul(a, b, field.p), field.modulus, field.p)[1]


def _fq_inv(a: tuple[int, ...], field: Fq) -> tuple[int, ...]:
    """Inverse by the extended Euclidean algorithm against the modulus."""
    if not a:
        raise ZeroDivisionError("inverse of zero")
    p, b = field.p, field.modulus
    s0: tuple[int, ...] = (1,)
    s1: tuple[int, ...] = ()
    while b:
        q, r = _fp_divmod(a, b, p)
        a, b = b, r
        s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
    inv_lead = pow(a[0], -1, p)
    return tuple(c * inv_lead % p for c in s0)


class FqElement:
    """Element of F_q: `coords` is its trimmed residue, constant term first,
    taken unchecked; the Fq constructors validate outside coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Fq, coords: tuple[int, ...]):
        self.field = field
        self.coords = coords

    @property
    def is_zero(self) -> bool:
        return not self.coords

    @property
    def encoding(self) -> int:
        enc = 0
        for c in reversed(self.coords):
            enc = enc * self.field.p + c
        return enc

    def _coerce(self, other) -> FqElement:
        if isinstance(other, FqElement):
            if other.field is not self.field:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FqElement(self.field, _fp_add(self.coords, o.coords, self.field.p))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElement(self.field, tuple(-a % p for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FqElement(self.field, _fq_mul(self.coords, o.coords, self.field))

    __rmul__ = __mul__

    def inverse(self) -> FqElement:
        return FqElement(self.field, _fq_inv(self.coords, self.field))

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self * o.inverse()

    def __pow__(self, e: int) -> FqElement:
        if e < 0:
            raise ValueError("negative exponent")
        f = self.field
        return FqElement(f, _fp_pow(self.coords, e, f.p, f.modulus))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FqElement):
            return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.coords))

    def __repr__(self) -> str:
        return f"Fq({self.field.p}^{self.field.m})#{self.encoding}"


# ---------------------------------------------------------------------------
# Polynomials over a field context.


class FqPoly:
    """Dense polynomial over one Fq context, constant term first.

    The coefficients are held as a trimmed tuple of coordinate tuples, and
    the operators compute on those; `coeffs` gives them as FqElements. A
    coefficient is an FqElement of the field, or an int or __index__ type
    read mod p; a float raises TypeError.
    """

    __slots__ = ("field", "_t")

    def __init__(self, field: Fq, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, FqElement) and c.field is not field:
                raise FieldMismatch("coefficient from a different field")
            cs.append(c.coords if isinstance(c, FqElement) else _fp_trim([index(c) % field.p]))
        self.field, self._t = field, _fp_trim(cs)

    @classmethod
    def _of(cls, field: Fq, t: tuple) -> FqPoly:
        """Wrap a trimmed tuple of trimmed coordinate tuples, unchecked."""
        poly = object.__new__(cls)
        poly.field, poly._t = field, t
        return poly

    @classmethod
    def x(cls, field: Fq) -> FqPoly:
        return cls._of(field, ((), (1,)))

    @property
    def coeffs(self) -> tuple[FqElement, ...]:
        return tuple(FqElement(self.field, c) for c in self._t)

    @property
    def degree(self) -> int:
        return len(self._t) - 1

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def leading(self) -> FqElement:
        if not self._t:
            raise ValueError("zero polynomial has no leading coefficient")
        return FqElement(self.field, self._t[-1])

    def _other(self, other: FqPoly) -> tuple:
        if self.field is not other.field:
            raise FieldMismatch("polynomials over different fields")
        return other._t

    def __add__(self, other: FqPoly) -> FqPoly:
        a, b, p = self._t, self._other(other), self.field.p
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = _fp_add(out[i], c, p)
        return FqPoly._of(self.field, _fp_trim(out))

    def __neg__(self) -> FqPoly:
        p = self.field.p
        return FqPoly._of(self.field, tuple(_fp_sub((), c, p) for c in self._t))

    def __sub__(self, other: FqPoly) -> FqPoly:
        return self + (-other)

    def __mul__(self, other) -> FqPoly:
        field, a = self.field, self._t
        if isinstance(other, int):
            other = field.from_int(other)
        if isinstance(other, FqElement):
            if other.field is not field:
                raise FieldMismatch("elements of different fields")
            return FqPoly._of(field, _fp_trim([_fq_mul(c, other.coords, field) for c in a]))
        b, p = self._other(other), field.p
        if not a or not b:
            return FqPoly._of(field, ())
        # sum the coordinate products into each coefficient, then reduce it once
        out: list = [()] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = _fp_add(out[i + j], _fp_mul(ca, cb, p), p)
        return FqPoly._of(field, _fp_trim([_fp_divmod(c, field.modulus, p)[1] for c in out]))

    __rmul__ = __mul__

    def __divmod__(self, other: FqPoly) -> tuple[FqPoly, FqPoly]:
        field, a, b = self.field, self._t, self._other(other)
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        dq = len(a) - len(b)
        if dq < 0:
            return FqPoly._of(field, ()), self
        p, top = field.p, len(b) - 1
        # a monic divisor, the common case, needs no product by its leading 1
        inv_lead = None if b[-1] == (1,) else _fq_inv(b[-1], field)
        rem = list(a)
        quot: list = [()] * (dq + 1)
        for i in range(dq, -1, -1):
            q = rem[i + top] if inv_lead is None else _fq_mul(rem[i + top], inv_lead, field)
            if q:
                quot[i] = q
                rem[i + top] = ()  # q was chosen to cancel it
                for j in range(top):
                    rem[i + j] = _fp_sub(rem[i + j], _fq_mul(q, b[j], field), p)
        return FqPoly._of(field, _fp_trim(quot)), FqPoly._of(field, _fp_trim(rem))

    def __mod__(self, other: FqPoly) -> FqPoly:
        return divmod(self, other)[1]

    def __floordiv__(self, other: FqPoly) -> FqPoly:
        return divmod(self, other)[0]

    def monic(self) -> FqPoly:
        if self.is_zero or self._t[-1] == (1,):
            return self
        return self * FqElement(self.field, _fq_inv(self._t[-1], self.field))

    def evaluate(self, x: FqElement) -> FqElement:
        field = self.field
        if x.field is not field:
            raise FieldMismatch("argument from a different field")
        acc = ()
        for c in reversed(self._t):
            acc = _fp_add(_fq_mul(acc, x.coords, field), c, field.p)
        return FqElement(field, acc)

    def __eq__(self, other):
        if not isinstance(other, FqPoly):
            return NotImplemented
        return self.field is other.field and self._t == other._t

    def __hash__(self):
        return hash((self.field.p, self.field.m, self._t))

    def __repr__(self) -> str:
        return f"FqPoly({self.field!r}, {[c.encoding for c in self.coeffs]})"


def poly_pow_mod(base: FqPoly, e: int, mod: FqPoly) -> FqPoly:
    if e < 0:
        raise ValueError("negative exponent")
    result = FqPoly(mod.field, [1])
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def poly_gcd(f: FqPoly, g: FqPoly) -> FqPoly:
    """Monic gcd over the common field; gcd(f, 0) is the monic multiple of f."""
    if f.field is not g.field:
        raise FieldMismatch("polynomials over different fields")
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


# ---------------------------------------------------------------------------
# Root finding.


def lift_poly(f: FqPoly, target: Fq) -> FqPoly:
    """Reinterpret a prime-field polynomial over an extension of it."""
    if f.field is target:
        return f
    if f.field.m != 1 or f.field.p != target.p:
        raise FieldMismatch("coefficients must lie in the prime field or the target field")
    return FqPoly._of(target, f._t)


def _distinct_roots(g: FqPoly, rng: random.Random) -> list[FqElement]:
    """Roots of a monic polynomial that splits into distinct linear factors."""
    field = g.field
    if g.degree <= 0:
        return []
    if g.degree == 1:
        return [(-g).coeffs[0]]  # the root of X + c is -c
    x = FqPoly.x(field)
    for _ in range(256):
        if field.p == 2:
            # Tr(cx) = sum (cx)^(2^i) for i < m splits g for random c
            term = x * field.from_encoding(rng.randrange(1, field.q))
            split = term
            for _ in range(field.m - 1):
                term = (term * term) % g
                split = split + term
        else:
            shift = FqPoly(field, [field.from_encoding(rng.randrange(field.q))])
            split = poly_pow_mod(x + shift, (field.q - 1) // 2, g) - FqPoly(field, [1])
        h = poly_gcd(split, g)
        if 0 < h.degree < g.degree:
            return _distinct_roots(h, rng) + _distinct_roots(g // h, rng)
    raise NotFound("random splitting failed to converge")


def roots_in(f: FqPoly, m: int) -> list[tuple[FqElement, int]]:
    """All roots of f in F_{p^m} with multiplicities, sorted by encoding.

    Coefficients may live in the prime field (they are embedded) or in
    F_{p^m} itself.
    """
    if m < 1:
        raise ValueError("extension degree must be positive")
    if f.is_zero:
        raise ValueError("zero polynomial has every element as a root")
    target = fq_context(f.field.p, m)
    fl = lift_poly(f, target)
    if fl.degree <= 0:
        return []
    x = FqPoly.x(target)
    g = poly_gcd(fl, poly_pow_mod(x, target.q, fl) - x)
    seed = hash((target.p, target.m, tuple(c.encoding for c in fl.coeffs)))
    out: list[tuple[FqElement, int]] = []
    for r in sorted(_distinct_roots(g, random.Random(seed)), key=lambda e: e.encoding):
        lin = x - FqPoly(target, [r])
        mult, (h, rem) = 0, divmod(fl, lin)
        while rem.is_zero:
            mult, (h, rem) = mult + 1, divmod(h, lin)
        out.append((r, mult))
    return out


# ---------------------------------------------------------------------------
# Supersingular polynomial.


@lru_cache(maxsize=None)
def supersingular_polynomial(p: int) -> FqPoly:
    """Monic squarefree polynomial over F_p whose roots are the supersingular
    j-invariants in F_{p^2}.

    For p >= 5 this is the closed form of Kaneko and Zagier (Supersingular
    j-invariants, hypergeometric series, and Atkin's orthogonal polynomials,
    AMS/IP Stud. Adv. Math. 7, 1998):

        ss_p(j) = j^delta (j - 1728)^eps F(j),
        F(j) = sum_{m=0..n} c_m j^(n-m),  c_0 = 1,
        c_{m+1} = c_m 1728 (a+m)(b+m) / (m+1)^2,

    mod p, with n = floor(p/12), delta = [p = 2 mod 3], eps = [p = 3 mod 4],
    and (a, b) = (1/12, 5/12) when eps = 0, (7/12, 11/12) when eps = 1.
    F is the truncated hypergeometric series 2F1(a, b; 1; 1728/j) scaled by
    j^n. For p = 2 and 3 the only supersingular j-invariant is 0.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in (2, 3):
        return FqPoly(fq_context(p, 1), (0, 1))
    n, delta, eps = p // 12, p % 3 == 2, p % 4 == 3
    twelfth = pow(12, -1, p)
    a, b = (7 * twelfth, 11 * twelfth) if eps else (twelfth, 5 * twelfth)
    c, coeffs = 1, [1]  # c_m, the coefficient of j^(n-m)
    for m in range(n):
        c = c * 1728 * (a + m) * (b + m) * pow((m + 1) ** 2, -1, p) % p
        coeffs.append(c)
    ss = tuple(reversed(coeffs))
    if delta:
        ss = _fp_mul(ss, (0, 1), p)
    if eps:
        ss = _fp_mul(ss, (-1728 % p, 1), p)
    return FqPoly(fq_context(p, 1), ss)


def _minpoly(r: FqElement) -> tuple[int, ...]:
    """Minimal polynomial over F_p of r in F_{p^2}, as an F_p int tuple."""
    rbar = r**r.field.p
    if rbar == r:
        return ((-r).encoding, 1)
    return ((r * rbar).encoding, (-(r + rbar)).encoding, 1)


@lru_cache(maxsize=None)
def _supersingular_factors(p: int) -> tuple[tuple[int, ...], ...]:
    """ss_p's monic irreducible factors over F_p, each of degree 1 or 2: the
    minimal polynomials of its roots in F_{p^2}, one per conjugate pair."""
    return tuple(dict.fromkeys(_minpoly(r) for r, _ in roots_in(supersingular_polynomial(p), 2)))


def _fp_strip(f: tuple[int, ...], g: tuple[int, ...], p: int) -> tuple[tuple[int, ...], int]:
    """(f / g^m, m) for the largest m; f nonzero, g monic linear or quadratic."""
    m = 0
    if len(g) == 2:
        r = -g[0] % p
        if not r:
            m = next(i for i, c in enumerate(f) if c)
            return f[m:], m
        while True:  # synthetic division by X - r
            acc, quot = 0, []
            for c in reversed(f):
                acc = (acc * r + c) % p
                quot.append(acc)
            if acc:
                return f, m
            f, m = tuple(reversed(quot[:-1])), m + 1
    quot, rem = _fp_divmod(f, g, p)
    while not rem:
        f, m = quot, m + 1
        quot, rem = _fp_divmod(f, g, p)
    return f, m


def _strip_supersingular(f: tuple[int, ...], p: int) -> tuple[dict[tuple[int, ...], int], bool]:
    """Strip each factor of _supersingular_factors(p) from f over F_p, once.

    Returns each factor's multiplicity in f, and whether a non-constant part
    of f is left; f is nonzero.
    """
    mults = {}
    for g in _supersingular_factors(p):
        f, mults[g] = _fp_strip(f, g, p)
    return mults, len(f) > 1


def _verify_deuring(D: int, coeffs: tuple[int, ...]) -> None:
    """Check an H_D exactly, with no floating point; VerificationFailed if it fails.

    coeffs must be monic of degree h(D). Take the two least primes p that
    do not split in Q(sqrt(D)) and do not divide the conductor of D. At
    each, every root of H_D reduces mod p to a supersingular j (Deuring),
    so H_D mod p must divide ss_p^h over F_p. ss_p is squarefree, so that
    holds exactly when _strip_supersingular leaves a constant of H_D mod p.
    One prime is not enough: H_{-311} + X^8 is X^19 mod 11, a power of a
    supersingular factor.
    """
    h = class_number(D)
    if len(coeffs) != h + 1 or coeffs[-1] != 1:
        raise VerificationFailed(f"H_{D} is not monic of degree h({D}) = {h}")
    primes = (
        p
        for p in count(2)
        if is_prime(p)
        and kronecker(D, p) != 1
        and not (D % (p * p) == 0 and is_discriminant(D // (p * p)))
    )
    for p in islice(primes, 2):
        if _strip_supersingular(tuple(c % p for c in coeffs), p)[1]:
            raise VerificationFailed(f"H_{D} mod {p} does not divide ss_{p}^{h}")


# ---------------------------------------------------------------------------
# Point counting.


def _curve_from_j(j0: FqElement):
    """Coefficients of the canonical model with invariant j0 (char > 3)."""
    field = j0.field
    if j0.is_zero:
        return field.zero(), field.one()  # y^2 = x^3 + 1
    if j0 == 1728:
        return field.one(), field.zero()  # y^2 = x^3 + x
    k = j0 / (field.from_int(1728) - j0)
    return 3 * k, 2 * k


def _count_p_gt3_prime(j0: FqElement) -> int:
    p = j0.field.p
    a, b = _curve_from_j(j0)
    av, bv = a.encoding, b.encoding
    counts = bytearray(p)  # counts[v] = #{y : y^2 = v}
    counts[0] = 1
    for y in range(1, (p + 1) // 2):
        counts[y * y % p] = 2
    return 1 + sum([counts[((x * x + av) * x + bv) % p] for x in range(p)])


def _count_odd_generic(j0: FqElement) -> int:
    field = j0.field
    if field.p == 3:
        if j0.is_zero:
            a2, a4, a6 = field.zero(), field.one(), field.zero()  # y^2 = x^3 + x
        else:
            a2, a4, a6 = field.one(), field.zero(), -j0.inverse()  # y^2 = x^3 + x^2 - 1/j
    else:
        a4, a6 = _curve_from_j(j0)
        a2 = field.zero()
    counts: dict[int, int] = {}
    for y in field.elements():
        e = (y * y).encoding
        counts[e] = counts.get(e, 0) + 1
    total = 1
    for x in field.elements():
        x2 = x * x
        fx = x2 * x + a2 * x2 + a4 * x + a6
        total += counts.get(fx.encoding, 0)
    return total


def _count_char2(j0: FqElement) -> int:
    field = j0.field
    # trace to F_2 is linear: precompute it on the power basis
    bits = []
    for i in range(field.m):
        t = acc = field.element([0] * i + [1])
        for _ in range(field.m - 1):
            t = t * t
            acc = acc + t
        bits.append(acc.encoding)

    def tr0(e: FqElement) -> bool:
        return not sum(c * t for c, t in zip(e.coords, bits)) & 1

    if j0.is_zero:
        # y^2 + y = x^3: 2 points over x when Tr(x^3) = 0
        return 1 + 2 * sum(tr0(x * x * x) for x in field.elements())
    # infinity, the single point at x = 0, and 2 over x when Tr(x + a6/x^2) = 0
    a6 = j0.inverse()
    return 2 + 2 * sum(tr0(x + a6 * (x * x).inverse()) for x in field.elements() if not x.is_zero)


def frobenius_trace(j0: FqElement) -> int:
    """Trace t = q + 1 - #E(F_q) of the canonical curve with invariant j0.

    Counts points exhaustively; the field order must not exceed 2^20.
    """
    field = j0.field
    if field.q > FIELD_CAP:
        raise FieldTooLarge(f"point counting capped at order {FIELD_CAP}")
    if field.p == 2:
        n = _count_char2(j0)
    elif field.m == 1 and field.p > 3:
        n = _count_p_gt3_prime(j0)
    else:
        n = _count_odd_generic(j0)
    t = field.q + 1 - n
    if t * t > 4 * field.q:
        raise VerificationFailed("trace exceeds the Hasse bound; counting bug")
    return t


# ---------------------------------------------------------------------------
# Deuring discriminants and reduction histograms.


def deuring_discriminants(j0: FqElement) -> list[int]:
    """Discriminants D with (H_D mod p)(j0) = 0 among divisors of t^2 - 4q.

    Candidates are D = (t^2 - 4q)/f^2 for f^2 dividing t^2 - 4q with
    D congruent to 0 or 1 mod 4; the class polynomial filter keeps those
    vanishing at j0 over F_q. Ordinary inputs only; sorted by |D|.
    """
    from .classpoly import hilbert_class_polynomial

    field = j0.field
    t = frobenius_trace(j0)
    if t % field.p == 0:
        raise SupersingularInput(f"trace {t} divisible by {field.p}")
    disc = t * t - 4 * field.q
    out = []
    for f in range(1, isqrt(-disc) + 1):
        if disc % (f * f):
            continue
        D = disc // (f * f)
        if D % 4 not in (0, 1):
            continue
        if hilbert_class_polynomial(D).evaluate(j0).is_zero:
            out.append(D)
    if not out:
        raise NotFound("no discriminant vanishes at j0; counting or filter bug")
    return sorted(out, key=abs)


def michel_counts(D: int, p: int) -> dict[FqElement, int]:
    """Histogram of the roots of H_D mod p over F_{p^2} for inert p.

    Keys are supersingular j-invariants; multiplicities sum to h(D). By
    Deuring every root is supersingular, so the multiplicity of a root r is
    how often its minimal polynomial over F_p divides H_D mod p, which
    _strip_supersingular finds once per factor, for both conjugate roots.
    """
    from .classpoly import hilbert_class_polynomial

    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    if kronecker(D, p) != -1:
        raise NotInert(f"{p} is not inert for discriminant {D}")
    mults, left = _strip_supersingular(hilbert_class_polynomial(D).reduce_mod(p).coeffs, p)
    if left:
        raise VerificationFailed(f"H_{D} mod {p} is not a product of supersingular factors")
    out: dict[FqElement, int] = {}
    for r, _ in roots_in(supersingular_polynomial(p), 2):
        mult = mults[_minpoly(r)]
        if mult:
            out[r] = mult
    return out
