"""Integer arithmetic layer against sympy and direct definitions."""

from __future__ import annotations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hcpkit.arith import (
    _iroot,
    _perfect_power,
    _pollard_rho,
    _rho_split,
    factorize,
    is_discriminant,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    multiplicative_order,
    prime_divisors,
    support_subset_int,
)


class TestKronecker:
    @given(st.integers(-200, 200), st.integers(1, 199).map(lambda n: 2 * n + 1))
    def test_matches_jacobi_for_odd_positive_n(self, a, n):
        assert kronecker(a, n) == sympy.jacobi_symbol(a, n)

    @pytest.mark.parametrize(
        "a,n,expected",
        [
            (-3, 2, -1),
            (-4, 2, 0),
            (-7, 2, 1),
            (-15, 2, 1),
            (-20, 7, 1),
            (-11, 7, -1),
            (5, 2, -1),
            (17, 2, 1),
            (-8, 2, 0),
            (-23, 2, 1),
            (-15, 4, 1),
            (12, 1, 1),
        ],
    )
    def test_even_denominator_values(self, a, n, expected):
        assert kronecker(a, n) == expected

    @pytest.mark.parametrize("n", [0, -1, -7])
    def test_rejects_nonpositive_denominator(self, n):
        with pytest.raises(ValueError):
            kronecker(3, n)

    @given(st.integers(-300, 300), st.integers(1, 60), st.integers(1, 60))
    def test_multiplicative_in_lower_argument(self, a, m, n):
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


class TestIsPrime:
    @given(st.integers(-10, 100000))
    def test_small_range_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    @given(st.integers(10**10, 10**13))
    @settings(max_examples=60)
    def test_large_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (561, False),  # Carmichael
            (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
            (2**61 - 1, True),
            (2**67 - 1, False),
            (2**89 - 1, True),
            ((1 << 64) - 59, True),
        ],
    )
    def test_adversarial(self, n, expected):
        assert is_prime(n) is expected


class TestFactorize:
    @given(st.integers(2, 10**9))
    @settings(max_examples=120)
    def test_complete_factorization_matches_sympy(self, n):
        fac = factorize(n, 1 << 16)
        assert fac.cofactor == 1
        assert dict(fac.factors) == sympy.factorint(n)

    @given(st.integers(2, 10**9))
    @settings(max_examples=40)
    def test_value_reconstructs(self, n):
        fac = factorize(n, 1 << 16)
        prod = fac.cofactor
        for p, e in fac.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n

    def test_semiprime_beyond_trial_bound_still_resolves(self):
        n = 1000003 * 1000033
        fac = factorize(n, 10)
        assert fac.cofactor == 1
        assert fac.factors == ((1000003, 1), (1000033, 1))

    def test_rho_hands_n_back_when_its_budget_runs_out(self, time_limit):
        # two 41-bit primes need about 2^20 rho steps, far past 1000
        n = 1099511627791 * 1099511627803
        with time_limit(10):
            assert _pollard_rho(n, 1000) == n
            assert _rho_split(n * (2**61 - 1), 1000) == ([], n * (2**61 - 1))

    @pytest.mark.parametrize("n,p", [(25, 5), (35, 5), (49, 7), (55, 5), (65, 5)])
    def test_rho_backtracks_when_a_batch_overshoots(self, n, p):
        # at c = 1 the batched gcd reaches n, and Brent's one-step backtrack finds p
        assert _pollard_rho(n) == p

    def test_rho_split_reports_every_prime_with_repeats(self):
        primes, cofactor = _rho_split(1000003**2 * 1000033, 1 << 16)
        assert sorted(primes) == [1000003, 1000003, 1000033]
        assert cofactor == 1


class TestPrimeDivisors:
    @given(st.integers(2, 10**9))
    @settings(max_examples=60)
    def test_matches_sympy(self, n):
        assert prime_divisors(n) == sympy.primefactors(n)


Q48 = 281474976710677  # the least prime above 2^48
R48 = 281474976711749  # a prime just above it; Q48 * R48 is 98 bits


class TestPerfectPowers:
    """Rho cannot split q^k for a 48-bit q within its budget; the
    perfect-power test ahead of it must."""

    def test_prime_square(self, time_limit):
        with time_limit(5):
            assert prime_divisors(Q48 * Q48) == [Q48]

    def test_prime_cube_beside_a_small_prime(self, time_limit):
        with time_limit(5):
            fac = factorize(7 * Q48**3, 1 << 16)
        assert fac.factors == ((7, 1), (Q48, 3))
        assert fac.cofactor == 1

    def test_power_of_a_semiprime(self):
        primes, cofactor = _rho_split((1000003 * 1000033) ** 2, 1 << 16)
        assert sorted(primes) == [1000003, 1000003, 1000033, 1000033]
        assert cofactor == 1

    def test_semiprime_is_not_a_perfect_power(self):
        # rho still hands this one back: multiplicative_order at p = 2qr + 1
        # keeps raising NotFound rather than returning a wrong order
        assert _perfect_power(Q48 * R48) is None

    @given(st.integers(2, 10**30), st.integers(2, 12))
    @settings(max_examples=80)
    def test_power_found_with_least_prime_exponent(self, r, k):
        found = _perfect_power(r**k)
        assert found is not None
        root, e = found
        assert root**e == r**k
        assert e == min(sympy.primefactors(sympy.perfect_power(r**k)[1]))

    @given(st.integers(0, 10**60), st.integers(1, 20))
    @settings(max_examples=150)
    def test_iroot_is_the_floor_root(self, n, k):
        r = _iroot(n, k)
        assert r**k <= n < (r + 1) ** k


class TestDiscriminantPredicates:
    @given(st.integers(-500, 10))
    def test_is_discriminant_definition(self, d):
        assert is_discriminant(d) == (d < 0 and d % 4 in (0, 1))

    @given(st.integers(-2000, -1))
    @settings(max_examples=200)
    def test_fundamental_matches_definition(self, d):
        if not is_discriminant(d):
            assert not is_fundamental_discriminant(d)
            return
        if d % 4 == 1:
            expected = sympy.factorint(-d)
            assert is_fundamental_discriminant(d) == all(e == 1 for e in expected.values())
        else:
            m = d // 4
            sq = all(e == 1 for e in sympy.factorint(-m).values())
            assert is_fundamental_discriminant(d) == (sq and m % 4 in (2, 3))

    def test_known_fundamentals(self):
        assert is_fundamental_discriminant(-4)
        assert is_fundamental_discriminant(-15)
        assert not is_fundamental_discriminant(-12)
        assert not is_fundamental_discriminant(-27)


class TestMultiplicativeOrder:
    @given(st.integers(2, 2000), st.sampled_from([p for p in range(2, 500) if sympy.isprime(p)]))
    @settings(max_examples=150)
    def test_matches_sympy_for_prime_modulus(self, a, p):
        if a % p == 0:
            with pytest.raises(ValueError):
                multiplicative_order(a, p)
            return
        assert multiplicative_order(a, p) == sympy.n_order(a, p)

    @pytest.mark.parametrize("n", [1, 4, 75, 100])
    def test_rejects_composite_modulus(self, n):
        with pytest.raises(ValueError):
            multiplicative_order(2, n)


def _support(n: int) -> set[int]:
    return set(sympy.factorint(abs(n)).keys())


class TestSupportSubsetInt:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=300)
    def test_matches_factorization_oracle(self, x, y):
        if x == 0 and y == 0:
            return
        if x == 0:
            expected = y == 0
        elif y == 0:
            expected = True
        else:
            expected = _support(x) <= _support(y)
        assert support_subset_int(x, y) == expected

    @given(st.integers(2, 1000), st.integers(1, 5), st.integers(1, 5))
    def test_shared_base_powers(self, b, i, j):
        assert support_subset_int(b**i, b**j)

    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (1, 7, True),
            (-1, 7, True),
            (7, 1, False),
            (0, 5, False),
            (5, 0, True),
            (12, 6, True),
            (6, 12, True),
            (10, 4, False),
        ],
    )
    def test_conventions(self, x, y, expected):
        assert support_subset_int(x, y) is expected
