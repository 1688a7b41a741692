"""Cyclotomic polynomials and the order-versus-divisibility test.

Polynomials and values both come from one Moebius product over the
squarefree e | n: a power series in integer arithmetic for the former, an
exact integer quotient for the latter, which survives the huge n arising
from k * p^l. Both raise NotFound when n cannot be fully factored.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import is_prime, multiplicative_order, prime_divisors
from .errors import VerificationFailed
from .intpoly import IntPolynomial


def _squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """(e, mu(e)) for every squarefree e dividing n, starting with (1, 1)."""
    out = [(1, 1)]
    for q in prime_divisors(n):
        out += [(e * q, -mu) for e, mu in out]
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, prod (1 - T^(n/e))^mu(e) cut at degree
    phi(n) for n > 1; NotFound when n cannot be fully factored."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return IntPolynomial((-1, 1))
    divisors = _squarefree_divisors(n)
    phi = sum(mu * (n // e) for e, mu in divisors)
    c = [1] + [0] * phi
    for e, mu in divisors:
        d = n // e
        if mu > 0:  # times 1 - T^d
            for i in range(phi, d - 1, -1):
                c[i] -= c[i - d]
        else:  # divided by 1 - T^d
            for i in range(d, phi + 1):
                c[i] += c[i - d]
    return IntPolynomial(tuple(c))


def cyclotomic_value(n: int, a: int) -> int:
    """The n-th cyclotomic polynomial evaluated at the integer a.

    For |a| >= 2 this is the exact quotient of Moebius-signed products of
    a^(n/e) - 1; at a = 1 it is q when n = q^k, else 1, and a = 0, -1
    reduce to that. Equal to cyclotomic_polynomial(n).evaluate(a) but usable
    when n is far too large to expand. NotFound when n cannot be factored.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return a - 1
    if n == 2:
        return a + 1
    if a == 0 or (a == -1 and n % 2):
        return 1
    if a == -1:
        # Phi_2m(-1) = Phi_m(1) for odd m > 1; Phi_n(-1) = Phi_n(1) when 4 | n
        n, a = (n // 2 if n % 4 else n), 1
    divisors = _squarefree_divisors(n)
    if a == 1:
        return divisors[1][0] if len(divisors) == 2 else 1
    num = den = 1
    for e, mu in divisors:
        if mu > 0:
            num *= a ** (n // e) - 1
        else:
            den *= a ** (n // e) - 1
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
