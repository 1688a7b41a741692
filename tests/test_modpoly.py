"""Modular polynomial recovery and the bivariate integer container."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hcpkit import modpoly
from hcpkit.errors import UnsupportedLevel, VerificationFailed
from hcpkit.modfunc import j_tau
from hcpkit.modpoly import (
    BivarIntPolynomial,
    kronecker_congruence_check,
    modular_polynomial,
)

# Classical expansions, transcribed from the literature.  Phi_2 is given in
# full; Phi_3 likewise.  Both are symmetric, monic of degree N+1 in each
# variable, and have the -X^N Y^N cross term.
PHI2_TERMS = {
    (3, 0): 1,
    (0, 3): 1,
    (2, 2): -1,
    (2, 1): 1488,
    (1, 2): 1488,
    (2, 0): -162000,
    (0, 2): -162000,
    (1, 1): 40773375,
    (1, 0): 8748000000,
    (0, 1): 8748000000,
    (0, 0): -157464000000000,
}

PHI3_TERMS = {
    (4, 0): 1,
    (0, 4): 1,
    (3, 3): -1,
    (3, 2): 2232,
    (2, 3): 2232,
    (3, 1): -1069956,
    (1, 3): -1069956,
    (3, 0): 36864000,
    (0, 3): 36864000,
    (2, 2): 2587918086,
    (2, 1): 8900222976000,
    (1, 2): 8900222976000,
    (2, 0): 452984832000000,
    (0, 2): 452984832000000,
    (1, 1): -770845966336000000,
    (1, 0): 1855425871872000000000,
    (0, 1): 1855425871872000000000,
}


class TestContainer:
    def test_zero_coefficients_dropped(self):
        poly = BivarIntPolynomial({(0, 0): 0, (1, 2): 0, (2, 1): 5})
        assert poly.coeffs == {(2, 1): 5}

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(TypeError):
            BivarIntPolynomial({(1, 0): 2.5})
        assert BivarIntPolynomial({(1, 0): True}).coeffs == {(1, 0): 1}

    def test_empty_poly_conventions(self):
        zero = BivarIntPolynomial({})
        assert zero.degree_x == -1
        assert zero.degree_y == -1
        assert zero.evaluate(3, 4) == 0
        assert zero.coefficient(0, 0) == 0

    def test_coefficient_lookup_defaults_to_zero(self):
        poly = BivarIntPolynomial({(1, 1): 7})
        assert poly.coefficient(1, 1) == 7
        assert poly.coefficient(0, 5) == 0

    def test_evaluate_matches_direct_sum(self):
        poly = BivarIntPolynomial({(2, 0): 3, (1, 1): -4, (0, 2): 5, (0, 0): -11})
        for x in range(-3, 4):
            for y in range(-3, 4):
                assert poly.evaluate(x, y) == 3 * x * x - 4 * x * y + 5 * y * y - 11

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.integers(-10**6, 10**6),
            max_size=12,
        ),
        st.integers(-9, 9),
        st.integers(-9, 9),
    )
    def test_evaluate_property(self, coeffs, x, y):
        poly = BivarIntPolynomial(coeffs)
        expected = sum(v * x**i * y**j for (i, j), v in coeffs.items())
        assert poly.evaluate(x, y) == expected

    def test_symmetry_predicate(self):
        assert BivarIntPolynomial({(1, 2): 4, (2, 1): 4}).is_symmetric()
        assert not BivarIntPolynomial({(1, 2): 4, (2, 1): 5}).is_symmetric()
        assert BivarIntPolynomial({(2, 2): -1}).is_symmetric()

    def test_reduce_mod_drops_multiples(self):
        poly = BivarIntPolynomial({(1, 0): 6, (0, 1): 7, (0, 0): -5})
        assert poly.reduce_mod(3) == {(0, 1): 1, (0, 0): 1}

    def test_equality_and_hash(self):
        a = BivarIntPolynomial({(1, 0): 1, (0, 1): -1})
        b = BivarIntPolynomial({(0, 1): -1, (1, 0): 1, (5, 5): 0})
        assert a == b
        assert hash(a) == hash(b)


class TestModularPolynomial:
    def test_level_one_is_difference(self):
        assert modular_polynomial(1) == BivarIntPolynomial({(1, 0): 1, (0, 1): -1})

    def test_level_two_classical(self):
        assert modular_polynomial(2) == BivarIntPolynomial(PHI2_TERMS)

    def test_level_three_classical(self):
        assert modular_polynomial(3) == BivarIntPolynomial(PHI3_TERMS)

    @pytest.mark.parametrize("level", [2, 3, 5, 7])
    def test_shape(self, level):
        phi = modular_polynomial(level)
        assert phi.degree_x == level + 1
        assert phi.degree_y == level + 1
        assert phi.coefficient(level + 1, 0) == 1
        assert phi.coefficient(0, level + 1) == 1
        assert phi.coefficient(level, level) == -1
        assert phi.is_symmetric()

    @pytest.mark.parametrize("level", [2, 3, 5, 7])
    def test_functional_equation_off_grid(self, level):
        # tau away from the sampling line used during interpolation
        prec = 512
        phi = modular_polynomial(level)
        with mp.workprec(prec + 16):
            tau = mp.mpc("0.13", "1.21")
            x = j_tau(tau, prec)
            y = j_tau(level * tau, prec)
            value = abs(phi.evaluate(x, y))
            scale = (1 + abs(x)) ** (level + 1) * (1 + abs(y)) ** (level + 1)
            assert value < scale * mp.ldexp(1, -(prec - 64))

    def test_rejects_unsupported_levels(self):
        for level in (0, 4, 6, 11, 13):
            with pytest.raises(UnsupportedLevel):
                modular_polynomial(level)

    def test_cached_instance_reused(self):
        assert modular_polynomial(2) is modular_polynomial(2)


# OEIS A000521: q j(q) = 1 + 744 q + 196884 q^2 + ...
QJ_HEAD = [
    1,
    744,
    196884,
    21493760,
    864299970,
    20245856256,
    333202640600,
    4252023300096,
    44656994071935,
    401490886656000,
]


class TestExactConstruction:
    def test_q_series_of_j(self):
        assert modpoly._qj(10) == QJ_HEAD

    # A wrong coefficient from q^2 on makes some e_d fail to be a polynomial
    # in j. One at q^1 (the 744) only shifts j by a constant, which every
    # identity inside the construction tolerates: the result stays symmetric
    # and keeps the Kronecker congruence, so QJ_HEAD alone guards it.
    @pytest.mark.parametrize("index", [2, 5, 9])
    @pytest.mark.parametrize("level", [2, 3, 5, 7])
    def test_corrupted_series_is_caught(self, monkeypatch, level, index):
        real = modpoly._qj

        def corrupted(n):
            c = real(n)
            c[index] += 1
            return c

        monkeypatch.setattr(modpoly, "_qj", corrupted)
        modular_polynomial.cache_clear()
        try:
            with pytest.raises(VerificationFailed):
                modular_polynomial(level)
        finally:
            modular_polynomial.cache_clear()


# Whether a 5- or 7-isogenous pair can be equal at a one-class j value is
# decided by whether the principal form of that discriminant represents the
# level.  Worked out by hand over x^2 + bxy + cy^2.
PHI5_DIAGONAL = {
    0: False,        # x^2+xy+y^2 = 5 has no solution
    1728: True,      # 1+4
    -3375: False,
    8000: False,
    54000: False,
    -32768: True,    # (3^2+11)/4
    287496: True,    # 1+4*1
    -884736: True,   # (1^2+19)/4
    16581375: False,
    -12288000: False,
}

PHI7_DIAGONAL = {
    0: True,         # 1+2+4
    1728: False,
    -3375: True,     # 1-2+8
    8000: False,
    54000: True,     # 4+3
    -32768: False,
    287496: False,
    -884736: True,   # 1+1+5
    16581375: True,  # 0+7*1
    -12288000: True, # 0+0+7
}


class TestDiagonalFingerprint:
    @pytest.mark.parametrize("level,table", [(5, PHI5_DIAGONAL), (7, PHI7_DIAGONAL)])
    def test_self_isogenous_one_class_values(self, level, table):
        phi = modular_polynomial(level)
        for j, vanishes in table.items():
            assert (phi.evaluate(j, j) == 0) == vanishes, (level, j)

    def test_level_two_diagonal_factors(self):
        # Phi_2(X, X) = -(X-1728)(X-8000)(X+3375)^2
        phi = modular_polynomial(2)
        for x in range(-20, 21):
            expected = -(x - 1728) * (x - 8000) * (x + 3375) ** 2
            assert phi.evaluate(x, x) == expected

    def test_known_isogenous_pairs(self):
        # 2i over i, and sqrt(-7) over its half-integer companion
        phi2 = modular_polynomial(2)
        assert phi2.evaluate(287496, 1728) == 0
        assert phi2.evaluate(1728, 287496) == 0
        assert phi2.evaluate(16581375, -3375) == 0
        assert phi2.evaluate(54000, 0) == 0
        phi3 = modular_polynomial(3)
        assert phi3.evaluate(-12288000, 0) == 0


class TestKroneckerCongruence:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_holds_for_supported_primes(self, p):
        assert kronecker_congruence_check(p)

    def test_rejects_composite_level(self):
        with pytest.raises(ValueError):
            kronecker_congruence_check(4)

    def test_rejects_unsupported_prime(self):
        with pytest.raises(UnsupportedLevel):
            kronecker_congruence_check(11)

    def test_phi2_mod_2_explicitly(self):
        assert modular_polynomial(2).reduce_mod(2) == {
            (3, 0): 1,
            (0, 3): 1,
            (2, 2): 1,
            (1, 1): 1,
        }
