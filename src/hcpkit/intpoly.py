"""Dense univariate polynomials over Z with exact arithmetic.

Coefficients are arbitrary-size ints stored constant term first; the zero
polynomial is the empty tuple and has degree -1. A coefficient is taken
through operator.index, so a float raises TypeError instead of being
truncated. Evaluation is generic Horner, so any ring element supporting
+, * with int coefficients works.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index


@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = tuple(map(index, self.coeffs))
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPolynomial:
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x):
        """Horner evaluation; x may live in any ring accepting int scalars."""
        if not self.coeffs:
            return 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose(self, inner: IntPolynomial) -> IntPolynomial:
        """self(inner(T)), by Horner over polynomials."""
        acc = IntPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPolynomial((c,))
        return acc

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive_part(self) -> IntPolynomial:
        """Divide out the content; the result has a positive leading term."""
        if not self.coeffs:
            return self
        g = self.content()
        if self.coeffs[-1] < 0:
            g = -g
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def reduce_mod(self, p: int) -> IntPolynomial:
        if p <= 0:
            raise ValueError("modulus must be positive")
        return IntPolynomial(tuple(c % p for c in self.coeffs))

    def pow_mod(self, n: int, p: int) -> IntPolynomial:
        """self**n with coefficients reduced mod p after every product."""
        from .finitefield import _fp_pow

        if n < 0:
            raise ValueError("negative power")
        return IntPolynomial(_fp_pow(self.reduce_mod(p).coeffs, n, p))

    def divmod_exact(self, other: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Long division requiring every quotient step to divide exactly over Z."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return IntPolynomial(), self
        quot = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            q, r = divmod(top, lead)
            if r:
                raise ValueError("inexact coefficient division")
            if q:
                quot[i] = q
                for j, c in enumerate(other.coeffs):
                    rem[i + j] -= q * c
        return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))

    def divexact(self, other: IntPolynomial) -> IntPolynomial:
        """Exact quotient; raises ValueError when other does not divide self."""
        q, r = self.divmod_exact(other)
        if not r.is_zero:
            raise ValueError("polynomial division leaves a remainder")
        return q

    def pseudo_rem(self, other: IntPolynomial) -> IntPolynomial:
        """Remainder of lc(other)^(d+1) * self under division by other."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        d = self.degree - other.degree
        if d < 0:
            return self
        rem = self * (other.leading ** (d + 1))
        q, r = rem.divmod_exact(other)
        del q
        return r

    def gcd(self, other: IntPolynomial) -> IntPolynomial:
        """Greatest common divisor over Z via the primitive remainder sequence.

        The result carries a positive leading coefficient; its content is
        gcd(content(self), content(other)).
        """
        a, b = self, other
        if a.is_zero and b.is_zero:
            return IntPolynomial()
        if a.is_zero:
            return b if b.leading > 0 else -b
        if b.is_zero:
            return a if a.leading > 0 else -a
        cont = gcd(a.content(), b.content())
        a = a.primitive_part()
        b = b.primitive_part()
        if a.degree < b.degree:
            a, b = b, a
        while not b.is_zero:
            r = a.pseudo_rem(b).primitive_part()
            a, b = b, r
        if a.leading < 0:
            a = -a
        return a * cont
