"""Exact modular polynomials for small prime levels.

Phi_N is recovered by evaluate-and-interpolate: at sample points on the
imaginary axis the product over the N+1 index-N sublattices is expanded
in X, and each X-coefficient, a degree <= N+1 polynomial in Y = j(tau),
is solved for through a Vandermonde system in the sampled j values. One
extra sample is held out as a consistency probe. The product expansion,
the 0.25 rounding gate and the doubling retry ladder are modfunc's, the
same code that assembles the class polynomials.
"""

from __future__ import annotations

from functools import lru_cache

from mpmath import mp

from .arith import is_prime
from .errors import PrecisionExhausted, UnsupportedLevel
from .modfunc import MP_LOCK, imag_is_dust, j_tau, monic_product, retry_doubling, round_real_coeffs

SUPPORTED_LEVELS = (1, 2, 3, 5, 7)


class BivarIntPolynomial:
    """Integer polynomial in X and Y stored as a sparse coefficient map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int]):
        self.coeffs = {k: int(v) for k, v in coeffs.items() if v}

    def coefficient(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self.coeffs), default=-1)

    @property
    def degree_y(self) -> int:
        return max((j for _, j in self.coeffs), default=-1)

    def is_symmetric(self) -> bool:
        return all(v == self.coeffs.get((j, i), 0) for (i, j), v in self.coeffs.items())

    def evaluate(self, x, y):
        """Horner in X of Horner-in-Y slices; works for ints and mp types."""
        dx = self.degree_x
        if dx < 0:
            return 0
        dy = self.degree_y
        acc = None
        for i in range(dx, -1, -1):
            slice_acc = None
            for j in range(dy, -1, -1):
                c = self.coeffs.get((i, j), 0)
                slice_acc = c if slice_acc is None else slice_acc * y + c
            acc = slice_acc if acc is None else acc * x + slice_acc
        return acc

    def reduce_mod(self, p: int) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for k, v in self.coeffs.items():
            r = v % p
            if r:
                out[k] = r
        return out

    def __eq__(self, other):
        if not isinstance(other, BivarIntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"BivarIntPolynomial({len(self.coeffs)} terms, degX={self.degree_x})"


def _reduce_fundamental(tau):
    """Move tau into |Re| <= 1/2, |tau| >= 1 by the usual two generators."""
    guard = mp.ldexp(1, -(mp.prec // 2))
    for _ in range(256):
        tau = tau - mp.nint(mp.re(tau))
        if abs(tau) >= 1 - guard:
            return tau
        tau = -1 / tau
    raise PrecisionExhausted("fundamental domain reduction did not settle")


def _phi_attempt(N: int, prec: int) -> BivarIntPolynomial | None:
    nsamples = N + 3
    with MP_LOCK, mp.workprec(prec + 32):
        ys = [mp.mpf("1.05") + mp.mpf("0.05") * s for s in range(nsamples)]
        nodes = []  # j(tau_s), real
        coeff_rows = []  # per sample: X-coefficients of the sublattice product
        for y in ys:
            tau = mp.mpc(0, y)
            jt = j_tau(tau, prec)
            sub_js = []
            for k in range(N):
                sub_js.append(j_tau(_reduce_fundamental((tau + k) / N), prec))
            sub_js.append(j_tau(_reduce_fundamental(N * tau), prec))
            nodes.append(jt)
            coeff_rows.append(monic_product([[-r, 1] for r in sub_js]))
        # j on the imaginary axis is real; discard numeric dust
        if not all(imag_is_dust(jt, prec) for jt in nodes):
            return None
        ynodes = [mp.re(jt) for jt in nodes]
        ncoef = N + 2  # Y-degree at most N+1
        vander = mp.matrix(ncoef, ncoef)
        for s in range(ncoef):
            for e in range(ncoef):
                vander[s, e] = ynodes[s] ** e
        result: dict[tuple[int, int], int] = {}
        for d in range(N + 2):
            rhs_full = [coeff_rows[s][d] for s in range(nsamples)]
            if not all(imag_is_dust(v, prec) for v in rhs_full):
                return None
            rhs = mp.matrix([mp.re(v) for v in rhs_full[:ncoef]])
            sol = mp.lu_solve(vander, rhs)
            # held-out sample must agree before rounding is trusted
            spare = mp.mpf(0)
            for e in range(ncoef):
                spare += sol[e] * ynodes[ncoef] ** e
            actual = mp.re(rhs_full[ncoef])
            if abs(spare - actual) > max(1, abs(actual)) * mp.ldexp(1, -64):
                return None
            ints = round_real_coeffs(sol, prec)
            if ints is None:
                return None
            for e, c in enumerate(ints):
                result[(d, e)] = c
    phi = BivarIntPolynomial(result)
    if phi.degree_x != N + 1 or phi.coefficient(N + 1, 0) != 1:
        return None
    if N > 1 and not phi.is_symmetric():
        return None
    return phi


@lru_cache(maxsize=None)
def modular_polynomial(N: int) -> BivarIntPolynomial:
    """Phi_N for N in {1, 2, 3, 5, 7}, with Phi_N(j(tau), j(N tau)) = 0."""
    if N not in SUPPORTED_LEVELS:
        raise UnsupportedLevel(f"level {N} not supported")
    if N == 1:
        return BivarIntPolynomial({(1, 0): 1, (0, 1): -1})
    return retry_doubling(lambda p: _phi_attempt(N, p), 160 * (N + 1) + 64, f"Phi_{N}")


def kronecker_congruence_check(p: int) -> bool:
    """Whether Phi_p(X, Y) matches (X - Y^p)(X^p - Y) mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime; level 1 is not a prime level")
    if p not in SUPPORTED_LEVELS:
        raise UnsupportedLevel(f"level {p} not supported")
    phi = modular_polynomial(p)
    expected = {
        (p + 1, 0): 1,
        (1, 1): -1,
        (p, p): -1,
        (0, p + 1): 1,
    }
    expected = {k: v % p for k, v in expected.items() if v % p}
    return phi.reduce_mod(p) == expected
