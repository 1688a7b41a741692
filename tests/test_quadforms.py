"""Reduced form enumeration against the analytic class number formula."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcpkit.arith import is_discriminant, is_fundamental_discriminant, kronecker
from hcpkit.quadforms import QuadForm, class_number, inv_a_sum, reduced_forms, unit_group_order

# Complete list: the thirteen discriminants with a single form class.
CLASS_NUMBER_ONE = (-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163)

KNOWN_H = {
    -15: 2,
    -20: 2,
    -23: 3,
    -24: 2,
    -31: 3,
    -32: 2,
    -35: 2,
    -36: 2,
    -39: 4,
    -40: 2,
    -47: 5,
    -48: 2,
    -52: 2,
    -56: 4,
    -59: 3,
    -63: 4,
    -71: 7,
    -84: 4,
    -95: 8,
}


def dirichlet_class_number(D: int) -> int:
    """h(D) = w/(2|D|) * |sum_{k<|D|} (D/k) k| for fundamental D."""
    w = unit_group_order(D)
    total = sum(kronecker(D, k) * k for k in range(1, -D))
    return abs(total) * w // (2 * -D)


discriminants = st.integers(-400, -3).filter(is_discriminant)


class TestClassNumber:
    @pytest.mark.parametrize("D", CLASS_NUMBER_ONE)
    def test_class_number_one_list(self, D):
        assert class_number(D) == 1

    def test_no_other_h1_below_400(self):
        ones = [D for D in range(-400, 0) if is_discriminant(D) and class_number(D) == 1]
        assert sorted(ones) == sorted(CLASS_NUMBER_ONE)

    @pytest.mark.parametrize("D,h", sorted(KNOWN_H.items()))
    def test_known_values(self, D, h):
        assert class_number(D) == h

    @given(discriminants)
    @settings(max_examples=80)
    def test_matches_dirichlet_formula_for_fundamental(self, D):
        if is_fundamental_discriminant(D):
            assert class_number(D) == dirichlet_class_number(D)

    def test_rejects_non_discriminants(self):
        for bad in (0, 5, -5, -6, 4):
            with pytest.raises(ValueError):
                class_number(bad)


class TestReducedForms:
    @given(discriminants)
    @settings(max_examples=100)
    def test_forms_are_reduced_with_right_discriminant(self, D):
        forms = reduced_forms(D)
        assert len(forms) == len(set(forms)) == class_number(D)
        for f in forms:
            assert f.b * f.b - 4 * f.a * f.c == D
            assert abs(f.b) <= f.a <= f.c
            if abs(f.b) == f.a or f.a == f.c:
                assert f.b >= 0

    @given(discriminants)
    @settings(max_examples=60)
    def test_principal_form_present(self, D):
        if D % 4 == 0:
            principal = QuadForm(1, 0, -D // 4)
        else:
            principal = QuadForm(1, 1, (1 - D) // 4)
        assert principal in reduced_forms(D)

    def test_minus_15_forms(self):
        assert set(reduced_forms(-15)) == {QuadForm(1, 1, 4), QuadForm(2, 1, 2)}


def reduced_forms_by_a(D: int) -> tuple[tuple[int, int, int], ...]:
    """Reference enumeration: every a up to sqrt(|D|/3), every -a < b <= a."""
    out = []
    for a in range(1, isqrt(-D // 3) + 1):
        b0 = -a + 1
        if (b0 - D) % 2:
            b0 += 1
        for b in range(b0, a + 1, 2):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
    out.sort(key=lambda f: (f[0], f[1]))
    return tuple(out)


class TestAgainstReference:
    def test_every_discriminant_to_3000(self):
        for D in range(-3, -3001, -1):
            if is_discriminant(D):
                forms = reduced_forms(D)
                assert forms == reduced_forms_by_a(D), D
                assert all(type(f) is QuadForm for f in forms)

    @pytest.mark.parametrize("D", [-9375, -12500, -36015, -48020])
    def test_non_fundamental_grid_points(self, D):
        assert reduced_forms(D) == reduced_forms_by_a(D)

    def test_fields_and_discriminant(self):
        f = QuadForm(2, 1, 2)
        assert (f.a, f.b, f.c) == (2, 1, 2)
        assert f.discriminant() == -15


class TestInvASum:
    def test_frozen_values(self):
        assert inv_a_sum(-3) == Fraction(1)
        assert inv_a_sum(-15) == Fraction(3, 2)
        assert inv_a_sum(-23) == Fraction(2)

    @given(discriminants)
    @settings(max_examples=60)
    def test_matches_forms(self, D):
        assert inv_a_sum(D) == sum(Fraction(1, f.a) for f in reduced_forms(D))


class TestUnitGroupOrder:
    def test_values(self):
        assert unit_group_order(-3) == 6
        assert unit_group_order(-4) == 4
        for D in (-7, -8, -11, -12, -15, -163):
            assert unit_group_order(D) == 2
