"""Shared CM points of polynomial maps and gcd growth under scaling."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hcpkit.arith import discriminants_upto
from hcpkit.classpoly import hilbert_class_polynomial
from hcpkit.errors import CapExceeded, NotFound, PreconditionFailed
from hcpkit.ffexperiments import (
    compose_mod_p,
    find_common_cm_point,
    gcd_degree_growth,
    gcd_ffchar0,
)
from hcpkit.finitefield import FqPoly, fq_context
from hcpkit.intpoly import IntPolynomial

F2 = fq_context(2, 1)
X2 = FqPoly.x(F2)


class TestDiscriminantStream:
    def test_first_few(self):
        assert list(discriminants_upto(16)) == [-3, -4, -7, -8, -11, -12, -15, -16]

    def test_all_are_discriminants(self):
        for D in discriminants_upto(100):
            assert D < 0 and D % 4 in (0, 1)


class TestFindCommonCmPoint:
    def test_frobenius_fixed_point(self):
        # A = X, B = X^2: alpha = 0 works at the first Frobenius power,
        # and j = 0 is supersingular in characteristic 2
        found = find_common_cm_point(X2, X2 * X2, 2)
        assert found.alpha.encoding == 0
        assert found.k == 1
        assert found.D == -3

    def test_quadratic_extension_point(self):
        # X - (X+1)^2 = X^2 + X + 1 over F_2: roots are the cube roots of
        # unity in F_4, ordinary, lying on the discriminant -15 locus
        found = find_common_cm_point(X2, X2 + FqPoly(F2, [1]), 2)
        assert found.alpha.field is fq_context(2, 2)
        assert found.alpha.encoding == 2
        assert found.k == 1
        assert found.D == -15

    def test_p_power_core_shifts_k(self):
        # A = X^2 strips to core X with one Frobenius factor absorbed
        found = find_common_cm_point(X2 * X2, X2 * X2, 2)
        assert found.k == 2
        assert found.D == -3

    def test_not_found_when_extensions_excluded(self):
        with pytest.raises(NotFound):
            find_common_cm_point(X2, X2 + FqPoly(F2, [1]), 2, m_max=1)

    def test_preconditions(self):
        f3 = fq_context(3, 1)
        with pytest.raises(PreconditionFailed):
            find_common_cm_point(X2, FqPoly.x(f3), 2)
        with pytest.raises(PreconditionFailed):
            find_common_cm_point(X2, X2, 3)
        with pytest.raises(PreconditionFailed):
            find_common_cm_point(FqPoly(F2, [1]), X2, 2)


class TestComposeModP:
    def test_matches_manual_composition(self):
        f5 = fq_context(5, 1)
        h = hilbert_class_polynomial(-4)  # X - 1728
        a = FqPoly(f5, [0, 0, 1])
        assert compose_mod_p(h, a) == FqPoly(f5, [2, 0, 1])

    def test_empty_polynomial(self):
        f5 = fq_context(5, 1)
        assert compose_mod_p(IntPolynomial(()), FqPoly.x(f5)).is_zero


class TestGcdDegreeGrowth:
    def test_seed_example_scales_with_class_number(self):
        rows = gcd_degree_growth(X2, X2 * X2, -3, 2, 3)
        assert [r.k for r in rows] == [0, 1, 2, 3]
        assert [r.h for r in rows] == [1, 1, 2, 4]
        assert all(r.ratio == Fraction(1) for r in rows)
        assert [r.deg_gcd for r in rows] == [1, 1, 2, 4]
        assert all(r.bound_ok for r in rows)

    def test_constant_seed_gcd_rejected(self):
        with pytest.raises(PreconditionFailed):
            gcd_degree_growth(X2, X2 + FqPoly(F2, [1]), -3, 2, 1)

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            gcd_degree_growth(X2, X2 * X2, -3, 2, 3, h_cap=3)

    def test_field_mismatch_rejected(self):
        with pytest.raises(PreconditionFailed):
            gcd_degree_growth(X2, X2, -3, 5, 1)


class TestCharZeroGcd:
    def test_identical_inputs_return_class_polynomial(self):
        x = IntPolynomial((0, 1))
        assert gcd_ffchar0(x, x, -15, -15) == hilbert_class_polynomial(-15)

    def test_distinct_linear_polynomials_are_coprime(self):
        x = IntPolynomial((0, 1))
        g = gcd_ffchar0(x, x, -3, -4)
        assert g.degree == 0

    def test_composed_square_map(self):
        # H_{-4}(X^2) = X^2 - 1728 shares no root with H_{-3}(X^2) = X^2
        xsq = IntPolynomial((0, 0, 1))
        assert gcd_ffchar0(xsq, xsq, -4, -3).degree == 0
        # but shares both roots with itself
        g = gcd_ffchar0(xsq, xsq, -4, -4)
        assert g == IntPolynomial((-1728, 0, 1))

    def test_rejects_constant_map(self):
        with pytest.raises(PreconditionFailed):
            gcd_ffchar0(IntPolynomial((5,)), IntPolynomial((0, 1)), -3, -4)
