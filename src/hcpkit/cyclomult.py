"""Cyclotomic polynomials and the order-versus-divisibility test.

Polynomials are built by iterated exact division of T^n - 1, staying in
integer arithmetic. Values at an integer argument use the Moebius
product over squarefree divisors instead, which survives the huge n
arising from k * p^l without ever materializing the polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .arith import factorize, is_prime, multiplicative_order
from .errors import VerificationFailed
from .intpoly import IntPolynomial


def _divisors(n: int) -> list[int]:
    fac = factorize(n, 1 << 16)
    if fac.cofactor != 1:
        raise ValueError(f"cannot fully factor {n}")
    divs = [1]
    for p, e in fac.factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of T^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    f = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in _divisors(n):
        if d < n:
            f = f.divexact(cyclotomic_polynomial(d))
    return f


def _prime_power_radical(n: int) -> int | None:
    """The prime q when n = q^e, else None."""
    fac = factorize(n, 1 << 16)
    if fac.cofactor == 1 and len(fac.factors) == 1:
        return fac.factors[0][0]
    return None


def cyclotomic_value(n: int, a: int) -> int:
    """The n-th cyclotomic polynomial evaluated at the integer a.

    For |a| >= 2 this is the exact quotient of Moebius-signed products
    of a^d - 1 over squarefree divisors; the handful of |a| <= 1 cases
    follow closed forms. Equal to cyclotomic_polynomial(n).evaluate(a)
    but usable when n is far too large to expand.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return a - 1
    if n == 2:
        return a + 1
    if a == 0:
        return 1
    if a == 1:
        q = _prime_power_radical(n)
        return q if q is not None else 1
    if a == -1:
        if n % 2:
            return 1
        m = n // 2
        if m % 2:  # n = 2m, m odd: value is the m-th polynomial at 1
            q = _prime_power_radical(m)
            return q if q is not None else 1
        if m & (m - 1) == 0:  # n a power of two, at least 4
            return 2
        return 1
    fac = factorize(n, 1 << 16)
    if fac.cofactor != 1:
        raise ValueError(f"cannot fully factor {n}")
    primes = [p for p, _ in fac.factors]
    num = 1
    den = 1
    for size in range(len(primes) + 1):
        for subset in combinations(primes, size):
            e = 1
            for p in subset:
                e *= p
            term = a ** (n // e) - 1
            if size % 2 == 0:
                num *= term
            else:
                den *= term
    q, r = divmod(num, den)
    if r:
        raise VerificationFailed("Moebius product did not divide exactly")
    return q


def lemma44_check(a: int, p: int, k: int, l_max: int = 2) -> bool:
    """Agreement between order and cyclotomic divisibility at one prime.

    Returns true when these all coincide: a has order k mod p; p divides
    the value at a of the (k p^l)-th cyclotomic polynomial for some
    l <= l_max; the same for every l <= l_max.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a % p == 0:
        raise ValueError("a must be a unit mod p")
    if k < 1 or k % p == 0:
        raise ValueError("k must be positive and coprime to p")
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    order_matches = multiplicative_order(a, p) == k
    divisible = [cyclotomic_value(k * p**ell, a) % p == 0 for ell in range(l_max + 1)]
    return order_matches == any(divisible) == all(divisible)


def cyclotomic_congruence_check(k: int, p: int, l: int) -> bool:
    """Whether the (k p^l)-th cyclotomic polynomial is the k-th raised to
    (p-1) p^(l-1), as polynomials mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1 or k % p == 0:
        raise ValueError("k must be positive and coprime to p")
    if l < 1:
        raise ValueError("l must be positive")
    lhs = cyclotomic_polynomial(k * p**l).reduce_mod(p)
    rhs = cyclotomic_polynomial(k).pow_mod((p - 1) * p ** (l - 1), p)
    return lhs == rhs
