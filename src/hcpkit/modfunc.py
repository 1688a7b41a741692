"""The numeric core shared by the class and modular polynomials.

j is evaluated by Weber's relation from one q-product, as an mpmath
complex number under an explicit working precision: callers state the
target precision in bits and receive a value carrying a 32-bit internal
guard. Exact polynomials are recovered from such values by one
pipeline: expand a product of linear factors, round every coefficient
behind a 0.25 residual gate, and retry at doubled precision. mpmath's
global context is not thread safe, so every precision-scoped block takes
a module lock; at desk scale the interpreter lock serializes this work
anyway.
"""

from __future__ import annotations

import threading
from math import ceil

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


def j_tau(tau, prec_bits: int) -> mpmath.mpc:
    """j(tau) = (x + 16)^3 / x with x = f2(tau)^24, q = exp(2 pi i tau).

    Weber's f2^24 = 2^12 q prod((1+q^n)^24) is the only series; the
    product truncates once |q|^n < 2^-(prec_bits+32). Requires
    Im(tau) > 0.4 (callers supply near-reduced arguments, and |q| is then
    below exp(-0.8 pi)) and prec_bits >= 64. Absolute error is within
    2^-(prec_bits-8)*max(1, |j|).
    """
    if prec_bits < 64:
        raise ValueError("prec_bits must be >= 64")
    with MP_LOCK, mp.workprec(prec_bits + 32):
        t = mp.mpc(tau)
        im = mp.im(t)
        if not im > 0.4:
            raise ValueError("Im(tau) must exceed 0.4")
        q = mp.exp(2j * mp.pi * t)
        # |q|^n < 2^-(prec+32)  <=>  n > (prec+32) / (-log2 |q|)
        nterms = int(ceil((prec_bits + 32) / float(-mp.log(abs(q), 2)))) + 1
        prod = mp.mpc(1)
        qpow = mp.mpc(1)
        for n in range(1, nterms + 1):
            qpow *= q
            prod *= 1 + qpow
        x = 4096 * q * prod**24
        return (x + 16) ** 3 / x


def linear_product(roots: list) -> list:
    """Coefficients of prod(X - r) over roots, constant term first.

    The monic linear factors are multiplied pairwise, as a product tree,
    to keep rounding error flat. Call under the caller's working precision.
    """
    factors = [[-r, mp.mpc(1)] for r in roots]
    while len(factors) > 1:
        nxt = []
        for i in range(0, len(factors) - 1, 2):
            a, b = factors[i], factors[i + 1]
            out = [mp.mpc(0)] * (len(a) + len(b) - 1)
            for ia, ca in enumerate(a):
                for ib, cb in enumerate(b):
                    out[ia + ib] += ca * cb
            nxt.append(out)
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    return factors[0]


def round_real_coeffs(coeffs, prec: int) -> list[int] | None:
    """Round complex coefficients to ints; None when the evidence is weak.

    Acceptance needs the imaginary part below 2^-(prec/2) relative to the
    coefficient and the real part within 0.25 of an integer.
    """
    out = []
    imag_tol = mp.ldexp(1, -(prec // 2))
    for c in coeffs:
        re, im = mp.re(c), mp.im(c)
        if abs(im) > imag_tol * max(1, abs(re)):
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
