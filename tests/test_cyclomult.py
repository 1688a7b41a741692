"""Cyclotomic polynomials, their values, and order-divisibility checks."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol
from sympy import cyclotomic_poly as sympy_cyclotomic

import hcpkit.cyclomult
from hcpkit.arith import Factorization, factorize, multiplicative_order
from hcpkit.cyclomult import (
    cyclotomic_congruence_check,
    cyclotomic_polynomial,
    cyclotomic_value,
    lemma44_check,
)
from hcpkit.errors import NotFound, VerificationFailed
from hcpkit.intpoly import IntPolynomial

T = Symbol("T")


def sympy_coeffs(n):
    return tuple(Poly(sympy_cyclotomic(n, T), T).all_coeffs()[::-1])


class TestPolynomial:
    # past 120: many distinct primes (210 ... 2310) and high prime powers
    @pytest.mark.parametrize(
        "n", list(range(1, 121)) + [128, 210, 243, 330, 420, 462, 625, 1155, 2310]
    )
    def test_matches_reference_construction(self, n):
        assert cyclotomic_polynomial(n).coeffs == sympy_coeffs(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 80))
    def test_product_over_divisors(self, n):
        prod = IntPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        expected = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
        assert prod == expected

    def test_degree_is_totient(self):
        from sympy import totient

        for n in range(1, 60):
            assert cyclotomic_polynomial(n).degree == totient(n)


class TestValue:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 90), a=st.integers(-30, 30))
    def test_agrees_with_expanded_polynomial(self, n, a):
        assert cyclotomic_value(n, a) == cyclotomic_polynomial(n).evaluate(a)

    @pytest.mark.parametrize("a", [-1, 0, 1])
    def test_closed_forms_match_sympy(self, a):
        # covers n = 2 q^e, 4 * odd and every power of two below 400
        for n in range(1, 401):
            assert cyclotomic_value(n, a) == sympy_cyclotomic(n, a), n

    def test_large_index_without_expansion(self):
        # p divides the value at the (k p^l)-th index exactly when k is
        # the order; the expanded polynomial would have ~29000 terms
        assert multiplicative_order(2, 7) == 3
        assert cyclotomic_value(3 * 7**5, 2) % 7 == 0
        assert cyclotomic_value(5 * 7**5, 2) % 7 != 0

    def test_product_formula_for_values(self):
        for a in (2, 3, -2, 5):
            for n in (1, 2, 6, 12, 30):
                prod = 1
                for d in range(1, n + 1):
                    if n % d == 0:
                        prod *= cyclotomic_value(d, a)
                assert prod == a**n - 1

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            cyclotomic_value(0, 2)

    def test_inexact_moebius_quotient_raises(self, monkeypatch):
        # with every mu negated, n = 6 and a = 2 give (2^3 - 1)(2^2 - 1) / (2^6 - 1)(2 - 1) = 21/63
        divisors = hcpkit.cyclomult._squarefree_divisors
        monkeypatch.setattr(
            hcpkit.cyclomult, "_squarefree_divisors", lambda n: [(e, -mu) for e, mu in divisors(n)]
        )
        with pytest.raises(VerificationFailed, match="did not divide exactly"):
            cyclotomic_value(6, 2)


@pytest.fixture
def factorize_leaves_cofactor(monkeypatch):
    """Every hcpkit module's `factorize` hands its largest prime power back
    as an unfactored cofactor, as Pollard rho does when its budget runs out."""

    def partial(n, bound):
        fac = factorize(n, bound)
        (q, e), rest = fac.factors[-1], fac.factors[:-1]
        return Factorization(factors=rest, cofactor=fac.cofactor * q**e)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hcpkit" and hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", partial)
    cyclotomic_polynomial.cache_clear()
    yield
    cyclotomic_polynomial.cache_clear()


class TestIncompleteFactorization:
    """A cofactor left by Pollard rho is NotFound, never a wrong answer."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cyclotomic_value(9, 1),
            lambda: cyclotomic_value(18, -1),
            lambda: cyclotomic_value(12, 2),
            lambda: cyclotomic_polynomial(12),
            lambda: multiplicative_order(2, 11),
            lambda: lemma44_check(2, 11, 10),
        ],
        ids=["value_at_1", "value_at_minus_1", "value_at_2", "polynomial", "order", "lemma44"],
    )
    def test_raises_not_found(self, factorize_leaves_cofactor, call):
        with pytest.raises(NotFound):
            call()


class TestPrimePowerArguments:
    # the least prime above 2^48: rho alone cannot split its square
    Q = 281474976710677

    def test_value_at_1(self, time_limit):
        with time_limit(5):
            assert cyclotomic_value(self.Q**2, 1) == self.Q

    def test_value_at_minus_1(self, time_limit):
        with time_limit(5):
            assert cyclotomic_value(2 * self.Q**2, -1) == self.Q


class TestLemma44:
    def test_known_order_case(self):
        # 2 has order 3 mod 7
        assert multiplicative_order(2, 7) == 3
        assert lemma44_check(2, 7, 3)
        assert lemma44_check(2, 7, 1)  # order is not 1; no divisibility either
        assert lemma44_check(2, 7, 2)

    def test_full_small_grid(self):
        for p in (2, 3, 5, 7, 11):
            for a in range(1, p):
                for k in range(1, p):
                    if (p - 1) % k == 0 and k % p != 0:
                        assert lemma44_check(a, p, k)

    def test_order_candidates_off_the_divisor_lattice(self):
        # k that cannot be an order mod p still satisfies the equivalence
        assert lemma44_check(2, 7, 4)
        assert lemma44_check(3, 11, 7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lemma44_check(2, 6, 1)
        with pytest.raises(ValueError):
            lemma44_check(7, 7, 1)
        with pytest.raises(ValueError):
            lemma44_check(2, 3, 3)  # k not coprime to p
        with pytest.raises(ValueError):
            lemma44_check(2, 7, 3, l_max=-1)


class TestCongruence:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 10])
    def test_holds_on_grid(self, p, k):
        if k % p == 0:
            return
        for l in (1, 2):
            assert cyclotomic_congruence_check(k, p, l)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cyclotomic_congruence_check(2, 4, 1)
        with pytest.raises(ValueError):
            cyclotomic_congruence_check(3, 3, 1)
        with pytest.raises(ValueError):
            cyclotomic_congruence_check(2, 3, 0)
