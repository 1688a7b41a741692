"""Integer utilities: Kronecker symbol, primality, factoring, support tests.

Everything here works on plain Python integers and is pure; all functions are
safe to call concurrently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .errors import NotFound

# Deterministic Miller-Rabin witnesses for n < 2^64 (Sinclair/Jaeschke set).
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_RHO_BUDGET = 1 << 20  # iterations per attempt
_RHO_RESTARTS = 8  # distinct polynomials x^2 + c, c = 1..8


@dataclass(frozen=True)
class Factorization:
    """Partial factorization: prime powers found plus an unfactored cofactor.

    Invariants: primes are distinct and pass is_prime; the product of
    prime^exponent times cofactor equals |n|; cofactor is 1 or exceeds the
    square of the factoring bound.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for n >= 1, multiplicative in n.

    The n = 2 factor follows the D mod 8 rule: 0 if D is even, +1 for
    D = +-1 mod 8, -1 for D = +-3 mod 8.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    # remaining n odd: Jacobi symbol via reciprocity
    a = D % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 2^64, error < 2^-128 above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 1 << 64:
        bases = _MR_BASES_64
    else:
        # deterministic per n; 64 independent rounds give error < 4^-64
        rng = random.Random(n)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(64))
    for a in bases:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, budget: int = _RHO_BUDGET) -> int:
    """One nontrivial factor of composite n, or n itself if the budget runs out.

    Brent's cycle variant on x^2 + c with c = 1..8, `budget` steps per attempt.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, _RHO_RESTARTS + 1):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        steps = 0
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and steps < budget:
                ys = y
                m = min(128, r - k, budget - steps)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                steps += m
                k += m
                g = gcd(q, n)
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return n


def factorize(n: int, bound: int) -> Factorization:
    """Factor |n|: trial division to `bound`, then Pollard rho on the rest.

    Primes above the bound are still reported when rho (plus primality
    testing) fully splits the remainder; whatever resists the iteration
    budget is returned as the cofactor.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    if bound < 2:
        raise ValueError("bound must be >= 2")
    m = abs(n)
    found: dict[int, int] = {}

    def record(p: int) -> None:
        found[p] = found.get(p, 0) + 1

    for p in (2, 3):
        while m % p == 0:
            record(p)
            m //= p
    # wheel over 6k +- 1
    p = 5
    while p <= bound and p * p <= m:
        for q in (p, p + 2):
            if q > bound:
                break
            while m % q == 0:
                record(q)
                m //= q
        p += 6
    if 1 < m <= bound * bound:
        # remainder below bound^2 with no factor <= bound is prime
        record(m)
        m = 1

    primes, cofactor = _rho_split(m, _RHO_BUDGET)
    for p in primes:
        record(p)
    factors = tuple(sorted(found.items()))
    return Factorization(factors=factors, cofactor=cofactor)


def prime_divisors(n: int) -> list[int]:
    """Distinct primes of |n|, ascending; NotFound when rho leaves a cofactor."""
    fac = factorize(n, 1 << 16)
    if fac.cofactor != 1:
        raise NotFound(f"Pollard rho could not split {fac.cofactor}, a factor of {n}")
    return [p for p, _ in fac.factors]


def _iroot(n: int, k: int) -> int:
    """The largest r with r**k <= n, for n >= 0 and k >= 1 (Newton from above)."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(r, k) with r**k == n for the least prime k that has one, or None."""
    for k in range(2, n.bit_length() + 1):
        if is_prime(k) and (r := _iroot(n, k)) ** k == n:
            return r, k
    return None


def _rho_split(n: int, budget: int) -> tuple[list[int], int]:
    """Primes of n split off by Pollard rho at `budget` steps per attempt,
    with repeats, and the product of the composites that resisted it.

    A composite that is a perfect power r^k is split into k copies of r
    first: rho finds no factor of a prime power like q^2 within its budget
    once q is large."""
    primes: list[int] = []
    cofactor = 1
    pending = [n] if n > 1 else []
    while pending:
        v = pending.pop()
        if is_prime(v):
            primes.append(v)
        elif power := _perfect_power(v):
            r, k = power
            pending += [r] * k
        elif (d := _pollard_rho(v, budget)) == v:
            cofactor *= v
        else:
            pending += [d, v // d]
    return primes, cofactor


def is_discriminant(D: int) -> bool:
    """True iff D < 0 and D = 0 or 1 mod 4."""
    return D < 0 and D % 4 in (0, 1)


def discriminants_upto(bound: int):
    """All negative discriminants with |D| <= bound, by increasing |D|."""
    for n in range(3, bound + 1):
        if n % 4 in (0, 3):
            yield -n


def is_fundamental_discriminant(D: int) -> bool:
    """True iff D is the discriminant of a maximal imaginary quadratic order."""
    if not is_discriminant(D):
        return False
    if D % 4 == 1:
        return _is_squarefree(-D)
    m = D // 4
    return m % 4 in (2, 3) and _is_squarefree(-m)


def _is_squarefree(n: int) -> bool:
    # n positive, desk scale; trial division is enough
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 2
    return True


def multiplicative_order(a: int, p: int) -> int:
    """Least k >= 1 with a^k = 1 mod p, for prime p and p not dividing a;
    NotFound when p - 1 cannot be fully factored."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a %= p
    if a == 0:
        raise ValueError("a must be a unit mod p")
    k = p - 1
    for q in prime_divisors(p - 1):
        while k % q == 0 and pow(a, k // q, p) == 1:
            k //= q
    return k


def support_subset_int(x: int, y: int) -> bool:
    """True iff every prime dividing x divides y, without factoring.

    Strips gcd(z, y) out of z = |x| until the gcd is 1. Conventions: x = 0
    has every prime in its support (true iff y = 0); x = +-1 has empty
    support (always true).
    """
    if x == 0:
        return y == 0
    z = abs(x)
    y = abs(y)
    while True:
        g = gcd(z, y)
        if g == 1:
            break
        z //= g
    return z == 1
