"""Characteristic-p experiments on class polynomials of composed maps.

Two searches live here: locating a point where one polynomial map hits a
Frobenius power of another (giving both maps a shared CM value), and
tracking how the gcd degree of H_D composed with two such maps grows as
the discriminant is scaled by p^2 per step. A characteristic-zero gcd of
composed class polynomials rounds out the trio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .arith import discriminants_upto
from .classpoly import hilbert_class_polynomial
from .errors import CapExceeded, NotFound, PreconditionFailed, SupersingularInput
from .finitefield import (
    FqElement,
    FqPoly,
    deuring_discriminants,
    lift_poly,
    poly_gcd,
    roots_in,
)
from .intpoly import IntPolynomial
from .quadforms import class_number

DEFAULT_N_MAX = 4
DEFAULT_M_MAX = 8
DEFAULT_SS_DISC_BOUND = 500


@dataclass(frozen=True)
class CommonCmPoint:
    alpha: FqElement
    k: int
    D: int


def _char_power(f: FqPoly, n: int) -> FqPoly:
    """f**(p^n) via the Frobenius: power each coefficient, spread degrees."""
    field = f.field
    if f.is_zero or n == 0:
        return f
    step = field.p**n
    zero = field.zero()
    out = [zero] * (f.degree * step + 1)
    for i, c in enumerate(f.coeffs):
        if not c.is_zero:
            out[i * step] = c**step
    return FqPoly(field, out)


def _extract_p_power(f: FqPoly) -> tuple[FqPoly, int]:
    """Write f = g**(p^e) with g not a p-th power; returns (g, e)."""
    field = f.field
    p = field.p
    e = 0
    while f.degree >= 1:
        if any(i % p for i, c in enumerate(f.coeffs) if not c.is_zero):
            break
        root_exp = p ** (field.m - 1) if field.m > 1 else 1
        coeffs = [field.zero()] * (f.degree // p + 1)
        for i, c in enumerate(f.coeffs):
            if not c.is_zero:
                coeffs[i // p] = c**root_exp
        f = FqPoly(field, coeffs)
        e += 1
    return f, e


def _ss_discriminant(j0: FqElement, bound: int) -> int:
    """Smallest |D| with the class polynomial mod p vanishing at a
    supersingular j0."""
    field = j0.field
    for D in discriminants_upto(bound):
        h = hilbert_class_polynomial(D)
        if FqPoly.from_int_polynomial(field, h.reduce_mod(field.p)).evaluate(j0).is_zero:
            return D
    raise NotFound(f"no discriminant with |D| <= {bound} vanishes at {j0!r}")


def find_common_cm_point(
    A: FqPoly,
    B: FqPoly,
    p: int,
    n_max: int = DEFAULT_N_MAX,
    m_max: int = DEFAULT_M_MAX,
    ss_disc_bound: int = DEFAULT_SS_DISC_BOUND,
) -> CommonCmPoint:
    """First alpha (over extensions of degree <= m_max) with
    A(alpha) = B(alpha)^(p^k), plus a discriminant vanishing there.

    A is first stripped to its non-p-th-power core A0 (exponent e), then
    roots of A0 - B^(p^n) are collected for n = 1..n_max in extension
    order; each root alpha satisfies the relation with k = n + e. The
    discriminant comes from the Deuring search at A(alpha), or from a
    direct scan when the value is supersingular.
    """
    if A.field is not B.field:
        raise PreconditionFailed("A and B must share a field")
    if A.field.p != p:
        raise PreconditionFailed(f"field characteristic {A.field.p} differs from {p}")
    if A.degree < 1 or B.degree < 1:
        raise PreconditionFailed("A and B must be nonconstant")
    a0, e = _extract_p_power(A)
    base_m = A.field.m
    if base_m == 1:
        ms = range(1, m_max + 1)
    else:
        ms = [base_m] if base_m <= m_max else []
    for n in range(1, n_max + 1):
        # nonzero: a0 is not a p-th power while B^(p^n) always is
        p_n = a0 - _char_power(B, n)
        for m in ms:
            for alpha, _mult in roots_in(p_n, m):
                return _finish(A, alpha, n + e, ss_disc_bound)
    raise NotFound(f"no common CM point with n <= {n_max}, m <= {m_max}")


def _finish(A: FqPoly, alpha: FqElement, k: int, ss_disc_bound: int) -> CommonCmPoint:
    target = alpha.field
    j0 = lift_poly(A, target).evaluate(alpha)
    try:
        D = deuring_discriminants(j0)[0]
    except SupersingularInput:
        D = _ss_discriminant(j0, ss_disc_bound)
    return CommonCmPoint(alpha=alpha, k=k, D=D)


# ---------------------------------------------------------------------------
# Gcd degree growth under discriminant scaling.


@dataclass(frozen=True)
class GrowthRow:
    k: int
    deg_gcd: int
    h: int
    ratio: Fraction
    bound_ok: bool


def compose_mod_p(H: IntPolynomial, A: FqPoly) -> FqPoly:
    """H(A(X)) over A's field, reducing H's coefficients mod p."""
    field = A.field
    acc = FqPoly(field)
    for c in reversed(H.coeffs):
        acc = acc * A + FqPoly(field, [c])
    return acc


def gcd_degree_growth(
    A: FqPoly,
    B: FqPoly,
    D0: int,
    p: int,
    k_max: int,
    h_cap: int = 2000,
) -> list[GrowthRow]:
    """Rows (k, deg gcd, class number, ratio) for D_k = D0 * p^(2k).

    The gcd is of H_{D_k} composed with A and with B over the base
    field; each row checks deg_gcd(k) >= (h(D_k)/h(D0)) * deg_gcd(0).
    The seed gcd at k = 0 must be nonconstant.
    """
    if A.field is not B.field:
        raise PreconditionFailed("A and B must share a field")
    if A.field.p != p:
        raise PreconditionFailed(f"field characteristic {A.field.p} differs from {p}")
    h0 = class_number(D0)
    rows: list[GrowthRow] = []
    deg0 = None
    for k in range(k_max + 1):
        d_k = D0 * p ** (2 * k)
        h_k = class_number(d_k)
        if h_cap and h_k > h_cap:
            raise CapExceeded(f"h({d_k}) = {h_k} exceeds cap {h_cap}")
        h_poly = hilbert_class_polynomial(d_k).reduce_mod(p)
        g = poly_gcd(compose_mod_p(h_poly, A), compose_mod_p(h_poly, B))
        deg = g.degree
        if k == 0:
            if deg < 1:
                raise PreconditionFailed("seed gcd is constant; no common CM point")
            deg0 = deg
        # deg(k) * h(D0) >= h(D_k) * deg(0), kept in integers
        ok = deg * h0 >= h_k * deg0
        rows.append(GrowthRow(k=k, deg_gcd=deg, h=h_k, ratio=Fraction(deg, h_k), bound_ok=ok))
    return rows


def gcd_ffchar0(A: IntPolynomial, B: IntPolynomial, D1: int, D2: int) -> IntPolynomial:
    """Primitive gcd over Q of H_{D1}(A(X)) and H_{D2}(B(X))."""
    if A.degree < 1 or B.degree < 1:
        raise PreconditionFailed("A and B must be nonconstant")
    fa = hilbert_class_polynomial(D1).compose(A)
    fb = hilbert_class_polynomial(D2).compose(B)
    return fa.gcd(fb).primitive_part()
