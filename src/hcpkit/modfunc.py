"""j and gamma2 = j^(1/3) at CM points, the numeric input of the class polynomials.

Both are evaluated by Weber's relations under an explicit working
precision: callers state the target precision in bits and receive an
mpmath complex value carrying a 32-bit internal guard. q = exp(2 pi i tau)
(for gamma2, q^(1/3), whose cube is q) and the final rational steps from
Weber's function to j or gamma2 are mpmath numbers, so q keeps its
relative precision however small it is. The one q-product,
prod(1+q^n), is a quotient of two of Euler's pentagonal series, and
those series, the quotient and its 8th and 24th powers run on
fixed-point Python ints with a guard derived from the term count
(_r_powers, shared by both evaluators): a value costs O(sqrt(N)) complex
products for N terms of the product, with none of mpmath's
per-operation overhead. classpoly turns these values into H_D.
mpmath's global context is not thread safe, so every precision-scoped
block takes a module lock; at desk scale the interpreter lock
serializes this work anyway.
"""

from __future__ import annotations

import threading
from math import ceil, isqrt, log, pi

import mpmath
from mpmath import mp

from .quadforms import inv_a_sum

MP_LOCK = threading.RLock()


def _height_bits(D: int) -> int:
    """B = ceil(pi*sqrt(|D|)/ln 2 * sum(1/a)), which bounds the bits of H_D's largest coefficient."""
    s = inv_a_sum(D)  # validates D
    with MP_LOCK, mp.workprec(96 + abs(D).bit_length()):
        base = mp.pi * mp.sqrt(-D) / mp.ln(2) * mp.mpf(s.numerator) / mp.mpf(s.denominator)
        return int(mp.ceil(base))


def required_precision(D: int) -> int:
    """Working precision in bits for assembling the degree-h(D) product.

    _height_bits(D) bounds the dominant coefficient size, and 64 bits of
    margin guard the rounding, whatever the degree.
    """
    return _height_bits(D) + 64


def _cmul(ar: int, ai: int, br: int, bi: int, shift: int) -> tuple[int, int]:
    """(ar + i ai)(br + i bi) >> shift, in three integer products."""
    k1 = br * (ar + ai)
    return (k1 - ai * (br + bi)) >> shift, (k1 + ar * (bi - br)) >> shift


def _csquare(ar: int, ai: int, shift: int) -> tuple[int, int]:
    """(ar + i ai)^2 >> shift, in two integer products."""
    return (ar + ai) * (ar - ai) >> shift, 2 * ar * ai >> shift


def _pentagonal(qr: int, qi: int, bits: int, nmax: int):
    """Euler's pentagonal series on complex fixed-point ints.

    q = (qr + i qi) / 2^bits. Sums E(q) = 1 + sum over k >= 1 of
    (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)) while k(3k-1)/2 <= nmax, and
    E(q^2) from the squares of the terms of every k with k(3k-1)/2 <=
    nmax // 2 + 1, which reach about as far in q. Returns (re E(q),
    im E(q), re E(q^2), im E(q^2)), scaled by 2^bits, each within 12
    units of the last place per k when |q| < 1/12. The powers are carried along at four complex products per
    k, and two complex squares give E(q^2)'s terms. A term of size below
    2^-vL, with 2^-v > |q|, needs its multiplier only to 2^-(bits - vL),
    so q^k and q^(2k+1) are carried at that many fractional bits and
    shrink as k grows.
    """
    er = sr = 1 << bits
    ei = si = 0
    v = max(bits - 1 - max(abs(qr), abs(qi)).bit_length(), 0)
    q2r, q2i = _csquare(qr, qi, bits)
    kr, ki = qr, qi  # q^k, at p fractional bits
    lr, li = qr, qi  # q^(k(3k-1)/2), at bits fractional bits
    tr, ti = _cmul(q2r, q2i, qr, qi, bits)  # q^(2k+1), at p fractional bits
    p = bits
    k = 1
    while (low := k * (3 * k - 1) // 2) <= nmax:
        drop = p - max(bits - v * low, 0)
        p -= drop
        kr, ki, tr, ti = kr >> drop, ki >> drop, tr >> drop, ti >> drop
        hr, hi = _cmul(lr, li, kr, ki, p)  # q^(k(3k+1)/2)
        ur, ui = lr + hr, li + hi
        if low <= nmax // 2 + 1:
            wr = ((lr + li) * (lr - li) + (hr + hi) * (hr - hi)) >> bits
            wi = 2 * (lr * li + hr * hi) >> bits
        else:
            wr = wi = 0
        if k % 2:
            er, ei, sr, si = er - ur, ei - ui, sr - wr, si - wi
        else:
            er, ei, sr, si = er + ur, ei + ui, sr + wr, si + wi
        lr, li = _cmul(hr, hi, tr, ti, p)
        tr, ti = _cmul(tr, ti, q2r >> bits - p, q2i >> bits - p, p)
        kr, ki = _cmul(kr, ki, qr >> bits - p, qi >> bits - p, p)
        k += 1
    return er, ei, sr, si


def _check_args(tau, prec_bits: int):
    """tau as an mpc and its imaginary part; call at the working precision."""
    if prec_bits < 64:
        raise ValueError("prec_bits must be >= 64")
    t = mp.mpc(tau)
    im = mp.im(t)
    if not im > 0.4:
        raise ValueError("Im(tau) must exceed 0.4")
    return t, im


def _r_powers(q, im, prec_bits: int) -> tuple[mpmath.mpc, mpmath.mpc]:
    """r^8 and r^24 for r = prod(1+q^n) = E(q^2)/E(q), q = exp(2 pi i tau).

    Call at mp.workprec(prec_bits + 32), with im = Im(tau) > 0.4. Both are
    within a relative 2^-(prec_bits+32) of their values at the given q.
    """
    # |q|^n < 2^-(prec+32)  <=>  n > (prec+32) / (-log2 |q|),
    # and -log2 |q| = 2 pi Im(tau) / ln 2
    nterms = int(ceil((prec_bits + 32) * log(2) / (2 * pi * float(im)))) + 1
    # Guard. For K values of k, E(q) and E(q^2) are within 12K units of
    # the last place (ulps) (_pentagonal). |E(q)| >= 1 - |q|/(1 - |q|)
    # > 0.9 and |r| < exp(|q|/(1 - |q|)) < 1.1, so r is within 30K ulps,
    # r^24 within 24 |r|^23 30K + 190 < 2^13 K ulps, and |r^24| > 0.1:
    # the fixed-point steps add a relative error below 2^(17 - bits) K
    # to r^24, and g = bit_length(K) + 17 keeps it below
    # 2^-(prec_bits+32). r^8, three squarings from r, is closer still.
    big_k = (1 + isqrt(1 + 24 * nterms)) // 6  # last k with k(3k-1)/2 <= nterms
    bits = prec_bits + 32 + big_k.bit_length() + 17
    qr, qi = int(mp.ldexp(mp.re(q), bits)), int(mp.ldexp(mp.im(q), bits))
    er, ei, sr, si = _pentagonal(qr, qi, bits, nterms)
    den = er * er + ei * ei
    rr = ((sr * er + si * ei) << bits) // den
    ri = ((si * er - sr * ei) << bits) // den
    r2r, r2i = _csquare(rr, ri, bits)
    r4r, r4i = _csquare(r2r, r2i, bits)
    r8r, r8i = _csquare(r4r, r4i, bits)
    r16r, r16i = _csquare(r8r, r8i, bits)
    r24r, r24i = _cmul(r16r, r16i, r8r, r8i, bits)
    return (
        mp.mpc(mp.ldexp(r8r, -bits), mp.ldexp(r8i, -bits)),
        mp.mpc(mp.ldexp(r24r, -bits), mp.ldexp(r24i, -bits)),
    )


def j_tau(tau, prec_bits: int) -> mpmath.mpc:
    """j(tau) = (x + 16)^3 / x with x = f2(tau)^24, q = exp(2 pi i tau).

    Weber's f2^24 = 2^12 q r^24 with r = prod(1+q^n) = E(q^2)/E(q).
    q, x and j are mpmath numbers at prec_bits + 32 bits, so q keeps its
    full relative precision however small it is. The two pentagonal
    series, the quotient r and r^24 run on complex fixed-point ints at
    prec_bits + 32 + g bits (_r_powers); the series truncate once
    |q|^n < 2^-(prec_bits+32). Requires Im(tau) > 0.4 (callers supply
    near-reduced arguments, and |q| is then below exp(-0.8 pi) < 1/12)
    and prec_bits >= 64. Absolute error is within
    2^-(prec_bits-8)*max(1, |j|).
    """
    with MP_LOCK, mp.workprec(prec_bits + 32):
        t, im = _check_args(tau, prec_bits)
        q = mp.exp(2j * mp.pi * t)
        x = 4096 * q * _r_powers(q, im, prec_bits)[1]
        y = x + 16
        return y * y * y / x


def _gamma2_tau(tau, prec_bits: int) -> mpmath.mpc:
    """Weber's gamma2(tau) = (f2^24 + 16)/f2^8, the cube root of j(tau).

    With f2^8 = 16 q^(1/3) r^8 this is (256 q r^24 + 1)/(q^(1/3) r^8):
    the one exp computes q^(1/3) = exp(2 pi i tau/3), and q is its cube.
    gamma2(tau + 1) = zeta3^-1 gamma2(tau) and gamma2(-1/tau) = gamma2(tau),
    with zeta3 = exp(2 pi i/3). Same requirements as j_tau. Absolute error
    is within 2^-(prec_bits-8)*max(1, |gamma2|).
    """
    # Error, with P = prec_bits + 32. Let e bound the relative errors of
    # q^(1/3), q, r^8 and r^24: below 2^-P for the r powers (_r_powers),
    # about 2 pi |tau| 2^-P for the exp. The numerator's error over
    # |q^(1/3) r^8| is below 3e (256 |q|^(2/3) |r|^16 + 1/|q^(1/3) r^8|),
    # where 256 |q|^(2/3) |r|^16 < 2^8 (|q| < 1/12, |r| < 1.1) and
    # 1/|q^(1/3) r^8| <= |gamma2| + 2^8; the quotient adds 3e |gamma2|. The
    # sum is below 2^12 e max(1, |gamma2|), inside the bound while e < 2^(28-P).
    with MP_LOCK, mp.workprec(prec_bits + 32):
        t, im = _check_args(tau, prec_bits)
        q3 = mp.exp(2j * mp.pi * t / 3)
        q = q3 * q3 * q3
        r8, r24 = _r_powers(q, im, prec_bits)
        return (256 * q * r24 + 1) / (q3 * r8)
