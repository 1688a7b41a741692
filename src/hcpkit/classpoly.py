"""Exact Hilbert class polynomials with a persistent text cache.

When 3 does not divide D, Weber's gamma2 = j^(1/3) is a class invariant
(Cox, Primes of the form x^2 + ny^2, section 12): its class polynomial
W_D, the product of (X - gamma2(tau - k)) over the reduced forms, is
in Z[X] with a third of H_D's coefficient bits, and H_D follows from it
exactly in integers (_w_to_h). For 3 | D the product is of (T - j(tau))
itself. Either product is assembled at a working precision with every
coefficient rounded to the nearest integer, and its invariant is
evaluated once per conjugate pair: a form (a, b, c) with 0 < b < a < c
and its partner (a, -b, c) have conjugate roots and together contribute
the real quadratic T^2 - 2 Re(x) T + |x|^2, while an ambiguous form
(b = 0, b = a or a = c) has a real root and contributes T - Re(x).
Every factor is real, so the product tree multiplies no complex numbers.
round_real_coeffs holds every rounding gate: the ambiguous roots'
imaginary parts must be dust, and every coefficient small enough and
within 0.25 of an integer. A rejected attempt is retried at doubled
precision, three times, before PrecisionExhausted. Every fresh H_D then
passes an exact check that does not touch the floating-point path, the
Deuring congruence of finitefield._verify_deuring at the two least
non-split primes prime to the conductor, or raises VerificationFailed.
Cache files are plain text written via atomic rename. Version 2 files
(``HDPOLY 2``, the only ones written) end in a CRC-32 trailer, the
checksum of RFC 1952 that ``zlib.crc32`` computes in C. Version 1 files
(``HDPOLY 1``) end in a CRC-64/XZ trailer; they are still read, checked
with the pure-Python ``crc64_xz``, and are not rewritten.
"""

from __future__ import annotations

import os
import tempfile
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from mpmath import mp

from .arith import is_discriminant, is_prime, kronecker
from .errors import CapExceeded, CorruptCache, PrecisionExhausted, VerificationFailed
from .finitefield import _verify_deuring
from .intpoly import IntPolynomial
from .modfunc import _MARGIN_BITS, MP_LOCK, _gamma2_tau, _height_bits, j_tau
from .quadforms import class_number, reduced_forms, unit_group_order

MAX_RETRIES = 3

_memo: dict[int, IntPolynomial] = {}
_memo_lock = threading.Lock()


def _monic_mul(a: list, b: list) -> list:
    """a*b for monic a, b, constant term first; the leading ones are added in."""
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


def round_real_coeffs(coeffs, real_roots, prec: int) -> list[int] | None:
    """Round real coefficients to ints; None when the evidence is weak.

    Every root in real_roots, a complex j or gamma2 value x that should be
    real, must have |Im x| <= 2^-(prec/2) max(1, |Re x|). Every coefficient, an mpf or an
    int, must be below 2^prec in size and within 0.25 of an integer. The
    size cap matters: callers work at prec + 32 bits, so a coefficient
    near 2^(prec+32) has no fractional bits left and would pass the 0.25
    gate whatever its error; below 2^prec, 32 bits remain.
    """
    dust = mp.ldexp(1, -(prec // 2))
    if not all(abs(mp.im(j)) <= dust * max(1, abs(mp.re(j))) for j in real_roots):
        return None
    out = []
    size_cap = mp.ldexp(1, prec)
    for c in coeffs:
        if abs(c) >= size_cap:
            return None
        n = mp.nint(c)
        if abs(c - n) >= 0.25:
            return None
        out.append(int(n))
    return out


def _zeta3_exponent(a: int, b: int, c: int) -> int:
    """The shift k with gamma2(tau - k) the class invariant of the reduced form (a, b, c).

    gamma2 is a class invariant at forms [A, B, C] with 3 not dividing A
    and 3 dividing B; tau - k shifts B by 2Ak, with
    gamma2(tau - k) = zeta3^k gamma2(tau), and gamma2(-1/tau) = gamma2(tau)
    turns (a, b, c) into (c, -b, a).
    """
    if a % 3:
        return a * b % 3  # b + 2ak = 0 mod 3
    if c % 3:
        return -b * c % 3  # after S: -b + 2ck = 0 mod 3
    # 3 | a, c: tau - 1 gives (a, b + 2a, a + b + c) with 3 not dividing
    # its last entry and one zeta3; S and the shift k = 2 then add zeta3^2
    return 0


def _w_to_h(w: list[int]) -> IntPolynomial:
    """H_D from the coefficients of W_D, exactly: H_D(X^3) = prod_k W_D(zeta3^k X).

    With W = A0(X^3) + X A1(X^3) + X^2 A2(X^3) the product is the norm
    form A0^3 + Y A1^3 + Y^2 A2^3 - 3Y A0 A1 A2 at Y = X^3.
    """
    a0, a1, a2 = (IntPolynomial(tuple(w[i::3])) for i in range(3))
    y = IntPolynomial((0, 1))
    return a0 * a0 * a0 + y * (a1 * a1 * a1 - 3 * (a0 * a1 * a2) + y * (a2 * a2 * a2))


def _assemble(D: int, prec: int) -> IntPolynomial | None:
    """H_D rounded at prec bits, or None; through W_D when 3 does not divide D."""
    forms = reduced_forms(D)
    gamma2 = D % 3 != 0
    with MP_LOCK, mp.workprec(prec + 32):
        sqrt_abs_d = mp.sqrt(-D)
        factors, real_roots = [], []
        for f in forms:
            if f.b < 0:
                continue  # the root of (a, -b, c) is the conjugate of (a, b, c)'s
            tau = mp.mpc(mp.mpf(-f.b) / (2 * f.a), sqrt_abs_d / (2 * f.a))
            if gamma2:
                x = _gamma2_tau(tau - _zeta3_exponent(*f), prec)
            else:
                x = j_tau(tau, prec)
            re, im = mp.re(x), mp.im(x)
            if f.b == 0 or f.b == f.a or f.a == f.c:
                real_roots.append(x)  # ambiguous form: the root is real up to dust
                factors.append([-re, 1])
            else:
                factors.append([re * re + im * im, -2 * re, 1])
        # a product tree, multiplied pairwise, keeps the rounding error flat
        while len(factors) > 1:
            nxt = [_monic_mul(factors[i], factors[i + 1]) for i in range(0, len(factors) - 1, 2)]
            if len(factors) % 2:
                nxt.append(factors[-1])
            factors = nxt
        ints = round_real_coeffs(factors[0], real_roots, prec)
    if ints is None:
        return None
    return _w_to_h(ints) if gamma2 else IntPolynomial(tuple(ints))


def _start_precision(D: int) -> int:
    """The ladder's first precision: the height bound B = _height_bits(D),
    or ceil(B/3) on the W_D route, whose coefficients have a third of H_D's
    bits, plus _MARGIN_BITS; on the j route that is required_precision(D).
    B is evaluated once, and neither route adds a per-degree term."""
    bits = _height_bits(D)
    return (bits if D % 3 == 0 else -(-bits // 3)) + _MARGIN_BITS


def hilbert_class_polynomial(
    D: int,
    cache_dir: str | Path | None = None,
    prec_bits: int | None = None,
) -> IntPolynomial:
    """H_D(T), monic of degree h(D) over Z.

    Results are memoized in process and, when cache_dir is given, stored
    on disk. The retry ladder starts at _start_precision(D), the height
    bound of the polynomial assembled plus 64 bits of margin, with no
    per-degree term. An explicit prec_bits bypasses both caches and starts
    the ladder at that precision instead; it is the precision of W_D when
    3 does not divide D. A fresh H_D that fails the Deuring check raises
    VerificationFailed and is neither memoized nor stored.
    """
    if not is_discriminant(D):
        raise ValueError(f"{D} is not a negative discriminant")
    if prec_bits is None:
        with _memo_lock:
            memoized = _memo.get(D)
        if memoized is not None:
            # a memo hit must still honor the on-disk contract
            if cache_dir is not None and not _cache_path(D, cache_dir).exists():
                cache_store(D, memoized, cache_dir)
            return memoized
        if cache_dir is not None:
            cached = cache_load(D, cache_dir)
            if cached is not None:
                with _memo_lock:
                    _memo[D] = cached
                return cached
    prec = prec_bits if prec_bits is not None else _start_precision(D)
    for _ in range(MAX_RETRIES + 1):
        poly = _assemble(D, prec)
        if poly is not None:
            break
        prec *= 2
    else:
        raise PrecisionExhausted(f"H_{D} did not round cleanly after {MAX_RETRIES} retries")
    _verify_deuring(D, poly.coeffs)
    if prec_bits is None:
        with _memo_lock:
            _memo[D] = poly
        if cache_dir is not None:
            cache_store(D, poly, cache_dir)
    return poly


# ---------------------------------------------------------------------------
# Congruence verifier.


@dataclass(frozen=True)
class Prop23Report:
    k: int
    congruence_holds: bool


def verify_prop23(
    D: int,
    p: int,
    n: int,
    h_cap: int = 2000,
    cache_dir: str | Path | None = None,
) -> Prop23Report:
    """Check H_{D p^(2n)} = H_D^k mod p and report the exponent k.

    k is (2 p^(n-1) / u)(p - kronecker(D, p)) with u the unit group order
    for D; it must also equal the class number ratio, else VerificationFailed.
    """
    if not is_discriminant(D):
        raise ValueError(f"{D} is not a negative discriminant")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be positive")
    big_d = D * p ** (2 * n)
    h_big = class_number(big_d)
    if h_cap and h_big > h_cap:
        raise CapExceeded(f"h({big_d}) = {h_big} exceeds cap {h_cap}")
    num = 2 * p ** (n - 1) * (p - kronecker(D, p))
    u = unit_group_order(D)
    if num % u:
        raise VerificationFailed(f"exponent formula not integral for D={D}, p={p}, n={n}")
    k = num // u
    h_small = class_number(D)
    if k * h_small != h_big:
        raise VerificationFailed(
            f"exponent {k} disagrees with class number ratio {h_big}/{h_small}"
        )
    h_d = hilbert_class_polynomial(D, cache_dir=cache_dir)
    h_big_poly = hilbert_class_polynomial(big_d, cache_dir=cache_dir)
    holds = h_big_poly.reduce_mod(p) == h_d.pow_mod(k, p)
    return Prop23Report(k=k, congruence_holds=holds)


# ---------------------------------------------------------------------------
# Disk cache.

_CRC_POLY = 0xC96C5795D7870F42  # CRC-64/XZ, reflected


def _crc_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC_TABLE = _crc_table()


def crc64_xz(data: bytes) -> int:
    """CRC-64/XZ of data, the checksum of version 1 cache files."""
    crc = 0xFFFFFFFFFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFFFFFFFFFF


def _cache_path(D: int, cache_dir: str | Path) -> Path:
    return Path(cache_dir) / f"hd_{abs(D)}.txt"


def cache_store(D: int, poly: IntPolynomial, cache_dir: str | Path) -> Path:
    """Write the cache file for D atomically; returns the final path."""
    path = _cache_path(D, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    body_lines = ["HDPOLY 2", str(D), str(poly.degree)]
    body_lines.extend(str(c) for c in poly.coeffs)
    body = ("\n".join(body_lines) + "\n").encode("ascii")
    trailer = f"CRC32 {zlib.crc32(body):08x}\n".encode("ascii")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body + trailer)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def cache_load(D: int, cache_dir: str | Path) -> IntPolynomial | None:
    """Read the cached H_D, or None when absent; CorruptCache on damage."""
    path = _cache_path(D, cache_dir)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        text = raw.decode("ascii")
        lines = text.split("\n")
        while lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise CorruptCache(f"{path}: empty file")
        # the magic line names the trailer; crc64_xz is looked up at call
        # time, so a rebinding of it (tests, tracing) takes effect
        if lines[0] == "HDPOLY 2":
            tag, checksum = "CRC32 ", zlib.crc32
        elif lines[0] == "HDPOLY 1":
            tag, checksum = "CRC64 ", crc64_xz
        else:
            raise CorruptCache(f"{path}: bad magic")
        if not lines[-1].startswith(tag):
            raise CorruptCache(f"{path}: missing checksum line")
        body = raw[: raw.rindex(tag.encode("ascii"))]
        if checksum(body) != int(lines[-1].split()[1], 16):
            raise CorruptCache(f"{path}: checksum mismatch")
        file_d = int(lines[1])
        h = int(lines[2])
        if len(lines) != h + 5:  # magic, D, h, h+1 coefficients, checksum
            raise CorruptCache(f"{path}: expected {h + 5} lines, found {len(lines)}")
        coeffs = [int(s) for s in lines[3 : 3 + h + 1]]
        if file_d != D:
            raise CorruptCache(f"{path}: holds D={file_d}, expected {D}")
    except CorruptCache:
        raise
    except (ValueError, IndexError) as exc:
        raise CorruptCache(f"{path}: malformed ({exc})") from exc
    poly = IntPolynomial(tuple(coeffs))
    if poly.degree != h or h != class_number(D) or not poly.is_monic:
        raise CorruptCache(f"{path}: degree or monicity does not match h({D})")
    return poly
