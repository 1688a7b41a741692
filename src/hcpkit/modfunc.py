"""The numeric core shared by the class and modular polynomials.

j is evaluated by Weber's relation, as an mpmath complex number under an
explicit working precision: callers state the target precision in bits
and receive a value carrying a 32-bit internal guard. The one q-product
in it, prod(1+q^n), is a quotient of two of Euler's pentagonal series,
so a value costs O(sqrt(N)) complex products for N terms of the
product. Exact polynomials are recovered from such values by one
pipeline: expand a product of monic factors in one product tree, round
every coefficient behind a size cap and a 0.25 residual gate, and retry
at doubled precision. mpmath's global context is not thread safe, so
every precision-scoped block takes a module lock; at desk scale the
interpreter lock serializes this work anyway.
"""

from __future__ import annotations

import threading
from math import ceil, log, pi

import mpmath
from mpmath import mp

from .errors import PrecisionExhausted
from .quadforms import class_number, inv_a_sum

MP_LOCK = threading.RLock()

MAX_RETRIES = 3


def required_precision(D: int) -> int:
    """Working precision in bits for assembling the degree-h(D) product.

    ceil(pi*sqrt(|D|)/ln 2 * sum(1/a)) bounds the dominant coefficient
    size; 64 bits of margin plus 8 per degree guard the rounding.
    """
    s = inv_a_sum(D)  # validates D
    with MP_LOCK, mp.workprec(96 + abs(D).bit_length()):
        base = mp.pi * mp.sqrt(-D) / mp.ln(2) * mp.mpf(s.numerator) / mp.mpf(s.denominator)
        base_int = int(mp.ceil(base))
    return base_int + 64 + 8 * class_number(D)


def euler_product(q, nmax: int):
    """E(q) = prod(1 - q^n) for n >= 1, by Euler's pentagonal series.

    E(q) = 1 + sum over k >= 1 of (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)),
    summed while k(3k-1)/2 <= nmax: about sqrt(2 nmax / 3) values of k,
    with the powers carried along at four products per k. Call under the
    caller's working precision.
    """
    total = 1
    q2 = q * q
    qk = q  # q^k
    low = q  # q^(k(3k-1)/2)
    step = q2 * q  # q^(2k+1), from q^(k(3k+1)/2) to the next low power
    k = 1
    while k * (3 * k - 1) // 2 <= nmax:
        high = low * qk  # q^(k(3k+1)/2)
        if k % 2:
            total -= low + high
        else:
            total += low + high
        low = high * step
        step *= q2
        qk *= q
        k += 1
    return total


def j_tau(tau, prec_bits: int) -> mpmath.mpc:
    """j(tau) = (x + 16)^3 / x with x = f2(tau)^24, q = exp(2 pi i tau).

    Weber's f2^24 = 2^12 q prod((1+q^n)^24), and prod(1+q^n) is taken as
    E(q^2)/E(q) from two pentagonal series (euler_product); both truncate
    once |q|^n < 2^-(prec_bits+32). The 24th power is four squarings and
    one product. Requires Im(tau) > 0.4 (callers supply near-reduced
    arguments, and |q| is then below exp(-0.8 pi)) and prec_bits >= 64.
    Absolute error is within 2^-(prec_bits-8)*max(1, |j|).
    """
    if prec_bits < 64:
        raise ValueError("prec_bits must be >= 64")
    with MP_LOCK, mp.workprec(prec_bits + 32):
        t = mp.mpc(tau)
        im = mp.im(t)
        if not im > 0.4:
            raise ValueError("Im(tau) must exceed 0.4")
        q = mp.exp(2j * mp.pi * t)
        # |q|^n < 2^-(prec+32)  <=>  n > (prec+32) / (-log2 |q|),
        # and -log2 |q| = 2 pi Im(tau) / ln 2
        nterms = int(ceil((prec_bits + 32) * log(2) / (2 * pi * float(im)))) + 1
        r = euler_product(q * q, nterms // 2 + 1) / euler_product(q, nterms)
        r2 = r * r
        r4 = r2 * r2
        r8 = r4 * r4
        x = 4096 * q * (r8 * (r8 * r8))
        y = x + 16
        return y * y * y / x


def monic_product(factors: list[list]) -> list:
    """Coefficients of the product of monic polynomials, constant term first.

    Each factor is a coefficient list, constant term first, ending in its
    leading 1. Factors are multiplied pairwise, as a product tree, to keep
    rounding error flat; the leading ones are added in, not multiplied.
    Call under the caller's working precision.
    """
    while len(factors) > 1:
        nxt = [_monic_mul(factors[i], factors[i + 1]) for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    return factors[0]


def _monic_mul(a: list, b: list) -> list:
    m, n = len(a) - 1, len(b) - 1
    out = [0] * (m + n) + [1]
    for i in range(m):
        ai = a[i]
        out[i + n] += ai
        for j in range(n):
            out[i + j] += ai * b[j]
    for j in range(n):
        out[j + m] += b[j]
    return out


def round_real_coeffs(coeffs, prec: int) -> list[int] | None:
    """Round complex coefficients to ints; None when the evidence is weak.

    Acceptance needs the imaginary part below 2^-(prec/2) relative to the
    coefficient, the real part below 2^prec in size and within 0.25 of an
    integer. The size cap matters: callers work at prec + 32 bits, so a
    real part near 2^(prec+32) has no fractional bits left and would pass
    the 0.25 gate whatever its error; below 2^prec, 32 bits remain.
    """
    out = []
    imag_tol = mp.ldexp(1, -(prec // 2))
    size_cap = mp.ldexp(1, prec)
    for c in coeffs:
        re, im = mp.re(c), mp.im(c)
        if abs(im) > imag_tol * max(1, abs(re)) or abs(re) >= size_cap:
            return None
        n = mp.nint(re)
        if abs(re - n) >= 0.25:
            return None
        out.append(int(n))
    return out


def retry_doubling(attempt, prec: int, name: str):
    """Run attempt(prec) at prec, 2 prec, ... until it returns a result.

    An attempt returns None when its rounding evidence is weak; after
    MAX_RETRIES doublings the ladder gives up with PrecisionExhausted,
    naming the polynomial that would not round.
    """
    for _ in range(MAX_RETRIES + 1):
        result = attempt(prec)
        if result is not None:
            return result
        prec *= 2
    raise PrecisionExhausted(f"{name} did not round cleanly after {MAX_RETRIES} retries")
