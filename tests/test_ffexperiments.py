"""Shared CM points of polynomial maps and gcd growth under scaling."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hcpkit.arith import discriminants_upto
from hcpkit.classpoly import hilbert_class_polynomial
from hcpkit.errors import CapExceeded, NotFound, PreconditionFailed
from hcpkit.ffexperiments import (
    _char_power,
    _extract_p_power,
    compose_mod_p,
    find_common_cm_point,
    gcd_degree_growth,
    gcd_ffchar0,
)
from hcpkit.finitefield import FqPoly, fq_context
from hcpkit.intpoly import IntPolynomial

F2 = fq_context(2, 1)
X2 = FqPoly.x(F2)
F4 = fq_context(2, 2)
X4 = FqPoly.x(F4)


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

    def test_base_field_is_an_extension(self):
        # the same map over F_4: roots are searched in F_4 alone, up to m_max
        found = find_common_cm_point(X4, X4 + FqPoly(F4, [1]), 2)
        assert found.alpha.field is F4
        assert found.alpha.encoding == 2
        assert (found.k, found.D) == (1, -15)
        with pytest.raises(NotFound):
            find_common_cm_point(X4, X4 + FqPoly(F4, [1]), 2, m_max=1)

    def test_supersingular_value_beyond_the_discriminant_bound(self):
        # alpha = 0 gives j = 0, supersingular in characteristic 2, and no
        # discriminant has |D| <= 2
        with pytest.raises(NotFound, match=r"no discriminant with \|D\| <= 2"):
            find_common_cm_point(X2, X2 * X2, 2, ss_disc_bound=2)

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


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1)])
class TestFrobeniusPowers:
    def polys(self, p, m):
        field = fq_context(p, m)
        g = field.gen() + 1
        yield FqPoly(field, [g, 1])
        yield FqPoly(field, [0, g, 0, g * g, 2])
        yield FqPoly(field, [1, 0, 0, 0, 0, 0, 0, g])

    def test_char_power_matches_repeated_multiplication(self, p, m):
        for f in self.polys(p, m):
            power = FqPoly(f.field, [1])
            for _ in range(p * p):
                power = power * f
            assert _char_power(f, 2) == power

    def test_extract_inverts_char_power(self, p, m):
        for f in self.polys(p, m):
            assert _extract_p_power(f) == (f, 0)
            for n in (1, 2):
                assert _extract_p_power(_char_power(f, n)) == (f, n)

    def test_zero_and_constants(self, p, m):
        field = fq_context(p, m)
        assert _char_power(FqPoly(field), 1).is_zero
        c = FqPoly(field, [field.gen()])
        assert _char_power(c, 1) == FqPoly(field, [field.gen() ** p])
        assert _extract_p_power(c) == (c, 0)


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
        with pytest.raises(PreconditionFailed, match="characteristic 2 differs from 5"):
            gcd_degree_growth(X2, X2, -3, 5, 1)
        with pytest.raises(PreconditionFailed, match="must share a field"):
            gcd_degree_growth(X2, X4, -3, 2, 1)


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
