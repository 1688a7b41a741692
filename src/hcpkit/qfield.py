"""Exact arithmetic in Z[(1+sqrt5)/2] and the conjugate-support verifier.

Elements are (u + v*sqrt5)/2 with u and v of equal parity. The ring is
norm-Euclidean, so gcds come from rounding exact quotients to the nearest
lattice point, and "every prime of x divides y" is decided by repeated
gcd stripping with no factorization of the enormous norms involved.

The arithmetic runs on (u, v) pairs of plain ints in the private helpers
below; QuadIntEl and the public functions wrap their inputs and results,
so a Euclidean loop builds no element per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .classpoly import hilbert_class_polynomial
from .errors import CapExceeded
from .quadforms import class_number


@dataclass(frozen=True)
class QuadIntEl:
    """(u + v*sqrt5)/2 with u = v mod 2."""

    u: int
    v: int

    def __post_init__(self) -> None:
        if (self.u - self.v) % 2:
            raise ValueError(f"({self.u} + {self.v} sqrt5)/2 is not integral")

    @classmethod
    def from_int(cls, n: int) -> QuadIntEl:
        return cls(2 * n, 0)

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    @property
    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def conjugate(self) -> QuadIntEl:
        return QuadIntEl(self.u, -self.v)

    def norm(self) -> int:
        return (self.u * self.u - 5 * self.v * self.v) // 4

    def trace(self) -> int:
        return self.u

    def _coerce(self, other):
        if isinstance(other, QuadIntEl):
            return other
        if isinstance(other, int):
            return QuadIntEl.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadIntEl(self.u + o.u, self.v + o.v)

    __radd__ = __add__

    def __neg__(self) -> QuadIntEl:
        return QuadIntEl(-self.u, -self.v)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadIntEl(*_mul(self.u, self.v, o.u, o.v))

    __rmul__ = __mul__

    def divexact(self, d: QuadIntEl) -> QuadIntEl:
        """Exact quotient self/d; ValueError when d does not divide self."""
        return QuadIntEl(*_divexact(self.u, self.v, d.u, d.v))

    def __repr__(self) -> str:
        return f"QuadIntEl({self.u}, {self.v})"


PHI = QuadIntEl(1, 1)  # the fundamental unit (1 + sqrt5)/2
SQRT5 = QuadIntEl(0, 2)

# the two conjugate roots of T^2 + 191025 T - 121287375 (the degree-2
# class polynomial at discriminant -15), the default evaluation pair
H_M15_ROOT = QuadIntEl(-191025, -85995)
H_M15_ROOT_CONJ = H_M15_ROOT.conjugate()


# ---------------------------------------------------------------------------
# The ring on (u, v) int pairs, each pair standing for (u + v*sqrt5)/2.


def _mul(xu: int, xv: int, yu: int, yv: int) -> tuple[int, int]:
    return (xu * yu + 5 * xv * yv) // 2, (xu * yv + xv * yu) // 2


def _divmod(xu: int, xv: int, du: int, dv: int) -> tuple[int, int, int, int]:
    """Quotient and remainder pairs of x by nonzero d, as divmod_euclid."""
    n = (du * du - 5 * dv * dv) // 4
    # x * conj(d) = (U + V*sqrt5)/2, and the exact quotient x/d is r + s*phi
    # with r = (U - V)/(2N) and s = V/N; each rounds to the nearest
    # integer, halves up, after the signs are moved so that N > 0
    big_u = (xu * du - 5 * xv * dv) // 2
    big_v = (xv * du - xu * dv) // 2
    if n < 0:
        n, big_u, big_v = -n, -big_u, -big_v
    s = (2 * big_v + n) // (2 * n)
    r = (big_u - big_v + n) // (2 * n)
    qu = 2 * r + s
    return qu, s, xu - (qu * du + 5 * s * dv) // 2, xv - (qu * dv + s * du) // 2


def _gcd(xu: int, xv: int, yu: int, yv: int) -> tuple[int, int]:
    while yu or yv:
        _, _, ru, rv = _divmod(xu, xv, yu, yv)
        xu, xv, yu, yv = yu, yv, ru, rv
    return xu, xv


def _divexact(xu: int, xv: int, du: int, dv: int) -> tuple[int, int]:
    if not (du or dv):
        raise ZeroDivisionError("division by zero")
    n = (du * du - 5 * dv * dv) // 4
    big_u, big_v = _mul(xu, xv, du, -dv)
    if big_u % n or big_v % n:
        raise ValueError("inexact division")
    return big_u // n, big_v // n


def _horner(coeffs, u: int, v: int) -> tuple[int, int]:
    acc_u = acc_v = 0
    for c in reversed(tuple(coeffs)):
        acc_u, acc_v = _mul(acc_u, acc_v, u, v)
        acc_u += 2 * int(c)
    return acc_u, acc_v


# ---------------------------------------------------------------------------
# Public wrappers.


def divmod_euclid(x: QuadIntEl, d: QuadIntEl) -> tuple[QuadIntEl, QuadIntEl]:
    """Quotient and remainder with |norm(remainder)| < |norm(d)|.

    The exact quotient is written in the basis (1, phi) and both
    coordinates round to the nearest integer; the coordinate error of at
    most 1/2 each bounds the remainder norm factor strictly below 1.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by zero")
    qu, qv, ru, rv = _divmod(x.u, x.v, d.u, d.v)
    return QuadIntEl(qu, qv), QuadIntEl(ru, rv)


def euclidean_gcd(x: QuadIntEl, y: QuadIntEl) -> QuadIntEl:
    """A gcd of x and y, determined up to the (infinite) unit group."""
    if x.is_zero and y.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return QuadIntEl(*_gcd(x.u, x.v, y.u, y.v))


def support_subset(x: QuadIntEl, y: QuadIntEl) -> bool:
    """Whether every prime dividing x also divides y.

    Strips common parts: z starts at x and is divided by gcd(z, y) until
    the gcd is a unit; x's support lies inside y's exactly when z ends a
    unit. Conventions for degenerate inputs match the rational version:
    zero x demands zero y, unit x always passes, zero y absorbs all.
    """
    if x.is_zero:
        return y.is_zero
    if x.is_unit:
        return True
    if y.is_zero:
        return True
    if y.is_unit:
        return False
    z = x
    while True:
        g = euclidean_gcd(z, y)
        if g.is_unit:
            break
        z = z.divexact(g)
    return z.is_unit


def evaluate_at(coeffs, x: QuadIntEl) -> QuadIntEl:
    """Horner evaluation of an integer polynomial at a ring element."""
    return QuadIntEl(*_horner(coeffs, x.u, x.v))


@dataclass(frozen=True)
class SupportPairReport:
    forward: bool
    backward: bool

    @property
    def both(self) -> bool:
        return self.forward and self.backward


def verify_thm54(
    D: int,
    j_pair: tuple[QuadIntEl, QuadIntEl] | None = None,
    h_cap: int = 2000,
    cache_dir: str | Path | None = None,
) -> SupportPairReport:
    """Support agreement between the class polynomial's values at a
    conjugate pair of ring elements.

    Evaluates H_D exactly at both elements of the pair (default: the two
    conjugate roots of the discriminant -15 class polynomial) and tests
    the prime-support inclusion in each direction.
    """
    if j_pair is None:
        j_pair = (H_M15_ROOT, H_M15_ROOT_CONJ)
    h = class_number(D)
    if h_cap and h > h_cap:
        raise CapExceeded(f"h({D}) = {h} exceeds cap {h_cap}")
    poly = hilbert_class_polynomial(D, cache_dir=cache_dir)
    x = evaluate_at(poly.coeffs, j_pair[0])
    y = evaluate_at(poly.coeffs, j_pair[1])
    return SupportPairReport(
        forward=support_subset(x, y),
        backward=support_subset(y, x),
    )
