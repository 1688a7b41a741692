"""Arithmetic in the golden-ratio ring and the conjugate-support verifier."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcpkit.arith import support_subset_int
from hcpkit.classpoly import hilbert_class_polynomial
from hcpkit.errors import CapExceeded
from hcpkit.qfield import (
    H_M15_ROOT,
    H_M15_ROOT_CONJ,
    PHI,
    SQRT5,
    QuadIntEl,
    divmod_euclid,
    euclidean_gcd,
    evaluate_at,
    support_subset,
    verify_thm54,
)


def elements(max_size=10**6):
    # u and v must share parity; a+b and a-b always do
    pair = st.tuples(st.integers(-max_size, max_size), st.integers(-max_size, max_size))
    return pair.map(lambda ab: QuadIntEl(ab[0] + ab[1], ab[0] - ab[1]))


# ---------------------------------------------------------------------------
# The element-by-element arithmetic the int-pair helpers replaced, kept as
# their oracle. It builds every intermediate as a QuadIntEl and uses none of
# the operators that now run on pairs.


def ref_mul(x, y):
    return QuadIntEl((x.u * y.u + 5 * x.v * y.v) // 2, (x.u * y.v + x.v * y.u) // 2)


def ref_round_nearest(a, b):
    if b < 0:
        a, b = -a, -b
    return (2 * a + b) // (2 * b)


def ref_divmod(x, d):
    num = ref_mul(x, d.conjugate())
    n = d.norm()
    s = ref_round_nearest(num.v, n)
    r = ref_round_nearest(num.u - num.v, 2 * n)
    q = QuadIntEl(2 * r + s, s)
    qd = ref_mul(q, d)
    return q, QuadIntEl(x.u - qd.u, x.v - qd.v)


def ref_gcd(x, y):
    while not y.is_zero:
        x, y = y, ref_divmod(x, y)[1]
    return x


def ref_divexact(x, d):
    num = ref_mul(x, d.conjugate())
    n = d.norm()
    if num.u % n or num.v % n:
        raise ValueError("inexact division")
    return QuadIntEl(num.u // n, num.v // n)


def ref_support_subset(x, y):
    if x.is_zero:
        return y.is_zero
    if x.is_unit or y.is_zero:
        return True
    if y.is_unit:
        return False
    z = x
    while not (g := ref_gcd(z, y)).is_unit:
        z = ref_divexact(z, g)
    return z.is_unit


def ref_evaluate(coeffs, x):
    acc = QuadIntEl(0, 0)
    for c in reversed(tuple(coeffs)):
        acc = ref_mul(acc, x)
        acc = QuadIntEl(acc.u + 2 * int(c), acc.v)
    return acc


# zero, units of both signs and norms, small primes of each kind, and the
# H_{-15} root pair the verifier evaluates at
SPECIAL = [
    QuadIntEl(0, 0),
    QuadIntEl(2, 0),
    QuadIntEl(-2, 0),
    PHI,
    -PHI,
    PHI.conjugate(),
    QuadIntEl(7, 3),  # phi^4
    QuadIntEl(-11, 5),  # -phi^(-5)
    SQRT5,
    QuadIntEl(8, 2),  # norm 11
    QuadIntEl(-8, 2),
    QuadIntEl(6, 0),
    H_M15_ROOT,
    H_M15_ROOT_CONJ,
]


def oracle_elements(max_size=10**6):
    """Special elements, plain ones with coordinates of either sign, and
    products of both, so that gcds and supports are often nontrivial."""
    special = st.sampled_from(SPECIAL)
    plain = elements(max_size)
    factor = st.one_of(special, elements(50))
    product = st.lists(factor, min_size=2, max_size=5).map(
        lambda fs: functools.reduce(ref_mul, fs)
    )
    return st.one_of(special, plain, product)


class TestAgainstElementArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(x=oracle_elements(), d=oracle_elements())
    def test_divmod(self, x, d):
        if d.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod_euclid(x, d)
            return
        assert divmod_euclid(x, d) == ref_divmod(x, d)

    @settings(max_examples=300, deadline=None)
    @given(x=oracle_elements(), y=oracle_elements())
    def test_gcd(self, x, y):
        if x.is_zero and y.is_zero:
            with pytest.raises(ValueError):
                euclidean_gcd(x, y)
            return
        assert euclidean_gcd(x, y) == ref_gcd(x, y)

    @settings(max_examples=300, deadline=None)
    @given(x=oracle_elements(), y=oracle_elements())
    def test_support_subset(self, x, y):
        assert support_subset(x, y) == ref_support_subset(x, y)
        assert support_subset(y, x) == ref_support_subset(y, x)

    @settings(max_examples=200, deadline=None)
    @given(x=oracle_elements(), d=oracle_elements(100))
    def test_divexact(self, x, d):
        if d.is_zero:
            with pytest.raises(ZeroDivisionError):
                x.divexact(d)
            return
        try:
            want = ref_divexact(x, d)
        except ValueError:
            with pytest.raises(ValueError):
                x.divexact(d)
        else:
            assert x.divexact(d) == want
        assert ref_mul(x, d).divexact(d) == x

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-(10**12), 10**12), max_size=8),
        x=oracle_elements(),
    )
    def test_evaluate(self, coeffs, x):
        assert evaluate_at(coeffs, x) == ref_evaluate(coeffs, x)

    def test_verifier_on_every_one_mod_eight_discriminant(self, cache_dir):
        # the verifier's report, recomputed with the element arithmetic
        for D in range(-7, -801, -8):
            coeffs = hilbert_class_polynomial(D, cache_dir=cache_dir).coeffs
            x = ref_evaluate(coeffs, H_M15_ROOT)
            y = ref_evaluate(coeffs, H_M15_ROOT_CONJ)
            report = verify_thm54(D, cache_dir=cache_dir)
            assert (report.forward, report.backward) == (
                ref_support_subset(x, y),
                ref_support_subset(y, x),
            ), D


class TestElementArithmetic:
    def test_rejects_mixed_parity(self):
        with pytest.raises(ValueError):
            QuadIntEl(1, 2)

    def test_named_constants(self):
        assert PHI.norm() == -1
        assert PHI.is_unit
        assert SQRT5.norm() == -5
        assert SQRT5 * SQRT5 == QuadIntEl.from_int(5)
        assert PHI * PHI == PHI + 1  # phi^2 = phi + 1

    @settings(max_examples=80, deadline=None)
    @given(x=elements(), y=elements(), z=elements())
    def test_ring_identities(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x - x == QuadIntEl.from_int(0)

    @settings(max_examples=80, deadline=None)
    @given(x=elements(), y=elements())
    def test_norm_and_conjugate(self, x, y):
        assert x.norm() * y.norm() == (x * y).norm()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x * x.conjugate() == QuadIntEl.from_int(x.norm())
        assert x + x.conjugate() == QuadIntEl.from_int(x.trace())

    def test_integer_coercion(self):
        x = QuadIntEl(3, 1)
        assert x + 2 == QuadIntEl(7, 1)
        assert 2 + x == QuadIntEl(7, 1)
        assert 3 * x == QuadIntEl(9, 3)
        assert 5 - x == QuadIntEl(7, -1)

    def test_divexact(self):
        a = QuadIntEl(7, 1) * QuadIntEl(4, 2)
        assert a.divexact(QuadIntEl(4, 2)) == QuadIntEl(7, 1)
        with pytest.raises(ValueError):
            QuadIntEl.from_int(7).divexact(QuadIntEl.from_int(2))
        with pytest.raises(ZeroDivisionError):
            PHI.divexact(QuadIntEl.from_int(0))


class TestEuclideanStructure:
    @settings(max_examples=150, deadline=None)
    @given(x=elements(), d=elements(10**4))
    def test_division_shrinks_norm(self, x, d):
        if d.is_zero:
            return
        q, r = divmod_euclid(x, d)
        assert q * d + r == x
        assert abs(r.norm()) < abs(d.norm())

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod_euclid(PHI, QuadIntEl.from_int(0))

    @settings(max_examples=60, deadline=None)
    @given(x=elements(10**4), y=elements(10**4))
    def test_gcd_divides_both(self, x, y):
        if x.is_zero and y.is_zero:
            return
        g = euclidean_gcd(x, y)
        assert not g.is_zero
        if not x.is_zero:
            x.divexact(g)
        if not y.is_zero:
            y.divexact(g)

    @settings(max_examples=60, deadline=None)
    @given(g=elements(100), a=elements(100), b=elements(100))
    def test_common_factor_divides_gcd(self, g, a, b):
        if g.is_zero or (a.is_zero and b.is_zero):
            return
        d = euclidean_gcd(g * a, g * b)
        assert divmod_euclid(d, g)[1].is_zero

    def test_gcd_of_zeros_undefined(self):
        with pytest.raises(ValueError):
            euclidean_gcd(QuadIntEl.from_int(0), QuadIntEl.from_int(0))

    def test_gcd_with_zero_returns_other(self):
        x = QuadIntEl(7, 1)
        assert euclidean_gcd(x, QuadIntEl.from_int(0)) == x


class TestSupportSubset:
    def test_degenerate_conventions(self):
        zero = QuadIntEl.from_int(0)
        six = QuadIntEl.from_int(6)
        assert support_subset(zero, zero)
        assert not support_subset(zero, six)
        assert support_subset(six, zero)
        assert support_subset(PHI, six)
        assert not support_subset(six, PHI)
        assert support_subset(PHI, QuadIntEl.from_int(1))

    def test_split_prime_asymmetry(self):
        pi = QuadIntEl(8, 2)  # 4 + sqrt5, norm 11
        eleven = QuadIntEl.from_int(11)
        assert pi.norm() == 11
        assert support_subset(pi, eleven)
        assert not support_subset(eleven, pi)
        assert support_subset(pi * pi, pi)

    def test_ramified_prime(self):
        five = QuadIntEl.from_int(5)
        assert support_subset(SQRT5, five)
        assert support_subset(five, SQRT5)

    def test_inert_primes(self):
        three = QuadIntEl.from_int(3)
        assert support_subset(three, QuadIntEl.from_int(9))
        assert support_subset(three, QuadIntEl.from_int(6))
        assert not support_subset(QuadIntEl.from_int(6), three)

    def test_agrees_with_rational_version_on_integers(self):
        rng = random.Random(915)
        for _ in range(300):
            x = rng.randrange(-(10**6), 10**6)
            y = rng.randrange(-(10**6), 10**6)
            assert support_subset(
                QuadIntEl.from_int(x), QuadIntEl.from_int(y)
            ) == support_subset_int(x, y)


class TestEvaluationPair:
    def test_default_pair_is_conjugate_root_pair(self):
        poly = hilbert_class_polynomial(-15)
        assert evaluate_at(poly.coeffs, H_M15_ROOT).is_zero
        assert evaluate_at(poly.coeffs, H_M15_ROOT_CONJ).is_zero
        assert H_M15_ROOT.conjugate() == H_M15_ROOT_CONJ
        assert H_M15_ROOT.norm() == -121287375
        assert H_M15_ROOT.trace() == -191025

    def test_shifted_norm_factors(self):
        # H_{-7} = X + 3375 evaluated at the default point
        shifted = H_M15_ROOT + 3375
        assert shifted.norm() == -754606125
        assert -754606125 == -(3**6) * 5**3 * 7**2 * 13**2

    def test_evaluate_matches_horner_by_hand(self):
        x = QuadIntEl(3, 1)
        assert evaluate_at([2, 0, 1], x) == x * x + 2
        assert evaluate_at([], x).is_zero


class TestConjugateSupportVerifier:
    @pytest.mark.parametrize("D", [-7, -15, -23, -31, -63])
    def test_holds_on_one_mod_eight(self, D):
        report = verify_thm54(D)
        assert report.forward
        assert report.backward
        assert report.both

    def test_fails_off_the_congruence_class(self):
        # H_{-3} = X: the value is the evaluation point itself, whose
        # split-prime part (norm has 11^3) is invisible to its conjugate
        report = verify_thm54(-3)
        assert not report.forward
        assert not report.backward
        assert not report.both

    def test_custom_pair(self):
        two = QuadIntEl.from_int(2)
        three = QuadIntEl.from_int(3)
        equal = verify_thm54(-3, j_pair=(two, two))
        assert equal.both
        mixed = verify_thm54(-3, j_pair=(two, three))
        assert not mixed.forward
        assert not mixed.backward

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            verify_thm54(-23, h_cap=2)
