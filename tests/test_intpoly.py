"""Exact integer polynomial arithmetic cross-checked against sympy."""

from __future__ import annotations

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcpkit.intpoly import IntPolynomial

T = sympy.symbols("T")

coeff_lists = st.lists(st.integers(-50, 50), min_size=0, max_size=8)


def to_sympy(p: IntPolynomial):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], T, domain="ZZ")


def from_sympy(p) -> IntPolynomial:
    return IntPolynomial(tuple(reversed([int(c) for c in p.all_coeffs()])))


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).coeffs == ()

    def test_zero_degree_conventions(self):
        zero = IntPolynomial(())
        assert zero.is_zero
        assert zero.degree == -1
        assert IntPolynomial((7,)).degree == 0

    def test_non_integer_coefficients_rejected(self):
        # a float would otherwise be truncated to (1, 2)
        with pytest.raises(TypeError):
            IntPolynomial((1.5, 2.9))
        assert IntPolynomial((True, sympy.Integer(3))).coeffs == (1, 3)


class TestRingOps:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=200)
    def test_add_mul_match_sympy(self, a, b):
        pa, pb = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        assert to_sympy(pa + pb) == to_sympy(pa).add(to_sympy(pb))
        assert to_sympy(pa * pb) == to_sympy(pa).mul(to_sympy(pb))
        assert to_sympy(pa - pb) == to_sympy(pa).sub(to_sympy(pb))

    @given(coeff_lists, st.integers(0, 4))
    @settings(max_examples=60)
    def test_pow(self, a, e):
        pa = IntPolynomial(tuple(a))
        assert to_sympy(pa**e) == to_sympy(pa).pow(e)

    @given(coeff_lists, st.integers(-30, 30))
    @settings(max_examples=120)
    def test_evaluate_horner(self, a, x):
        pa = IntPolynomial(tuple(a))
        assert pa.evaluate(x) == to_sympy(pa).eval(x)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=80)
    def test_compose(self, a, b):
        pa, pb = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        expected = to_sympy(pa).compose(to_sympy(pb)) if pa.degree >= 0 else to_sympy(pa)
        assert to_sympy(pa.compose(pb)) == expected


class TestDivision:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=120)
    def test_divmod_exact_on_products(self, a, b):
        pa, pb = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        if pb.is_zero:
            return
        prod = pa * pb
        q, r = prod.divmod_exact(pb)
        assert r.is_zero
        assert q == pa or (pa.is_zero and q.is_zero)

    def test_divmod_exact_rejects_fractional_quotient(self):
        with pytest.raises(ValueError):
            IntPolynomial((1, 1)).divmod_exact(IntPolynomial((0, 2)))

    def test_divexact_known(self):
        # (T^2 - 1) / (T - 1) = T + 1
        num = IntPolynomial((-1, 0, 1))
        assert num.divexact(IntPolynomial((-1, 1))).coeffs == (1, 1)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=100)
    def test_gcd_matches_sympy(self, a, b):
        pa, pb = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        if pa.is_zero and pb.is_zero:
            return
        ours = pa.gcd(pb)
        theirs = sympy.gcd(to_sympy(pa).as_expr(), to_sympy(pb).as_expr())
        assert to_sympy(ours).as_expr() == sympy.Poly(theirs, T).as_expr()

    def test_gcd_content_and_sign(self):
        a = IntPolynomial((-2, 0, 2))  # 2T^2 - 2
        b = IntPolynomial((-4, 4))  # 4T - 4
        assert a.gcd(b).coeffs == (-2, 2)


class TestContent:
    @given(coeff_lists)
    @settings(max_examples=80)
    def test_content_primitive_split(self, a):
        pa = IntPolynomial(tuple(a))
        if pa.is_zero:
            return
        c = pa.content()
        prim = pa.primitive_part()
        assert c > 0
        assert prim.leading > 0
        assert prim * (c if pa.leading > 0 else -c) == pa
        assert prim.content() == 1


class TestModular:
    @given(coeff_lists, st.integers(2, 97))
    @settings(max_examples=80)
    def test_reduce_mod(self, a, p):
        pa = IntPolynomial(tuple(a))
        red = pa.reduce_mod(p)
        assert all(0 <= c < p for c in red.coeffs)
        assert (pa - red).evaluate(1) % p == 0
        for x in (0, 1, 2, 5):
            assert red.evaluate(x) % p == pa.evaluate(x) % p

    def test_pow_mod_freshman_dream(self):
        # (T + a)^p = T^p + a mod p
        for p in (2, 3, 5, 7):
            for a in range(p):
                lhs = IntPolynomial((a, 1)).pow_mod(p, p)
                assert lhs == IntPolynomial((a,) + (0,) * (p - 1) + (1,)).reduce_mod(p)

    @given(coeff_lists, st.integers(0, 12), st.sampled_from([1, 11]))
    @example([3, -1, 2], 0, 11)
    @example([3, -1, 2], 0, 1)
    @example([], 0, 11)
    @settings(max_examples=60)
    def test_pow_mod_matches_direct(self, a, e, p):
        base = IntPolynomial(tuple(a))
        assert base.pow_mod(e, p) == (base**e).reduce_mod(p)

    def test_pow_mod_rejects_negative_power_and_nonpositive_modulus(self):
        base = IntPolynomial((1, 1))
        with pytest.raises(ValueError, match="negative power"):
            base.pow_mod(-1, 5)
        for p in (0, -3):
            with pytest.raises(ValueError, match="modulus must be positive"):
                base.pow_mod(2, p)

