"""Finite fields, root finding, and supersingular machinery."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcpkit.classpoly
import hcpkit.finitefield
from hcpkit.arith import discriminants_upto, is_fundamental_discriminant, kronecker
from hcpkit.classpoly import hilbert_class_polynomial
from hcpkit.errors import (
    FieldMismatch,
    FieldTooLarge,
    NotFound,
    NotInert,
    SupersingularInput,
    VerificationFailed,
)
from hcpkit.finitefield import (
    FqPoly,
    _distinct_roots,
    _fp_divmod,
    _fp_is_irreducible,
    _fp_mul,
    _fp_pow,
    _fp_strip,
    _supersingular_factors,
    _verify_deuring,
    deuring_discriminants,
    fq_context,
    frobenius_trace,
    lift_poly,
    michel_counts,
    poly_gcd,
    poly_pow_mod,
    roots_in,
    supersingular_polynomial,
)
from hcpkit.intpoly import IntPolynomial
from hcpkit.quadforms import class_number


class TestFieldConstruction:
    def test_rejects_composite_characteristic(self):
        for p in (1, 4, 6, 9):
            with pytest.raises(ValueError):
                fq_context(p, 1)

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            fq_context(5, 0)

    def test_contexts_are_cached(self):
        assert fq_context(5, 2) is fq_context(5, 2)

    def test_canonical_moduli(self):
        assert fq_context(2, 2).modulus == (1, 1, 1)
        assert fq_context(3, 2).modulus == (1, 0, 1)
        assert fq_context(5, 2).modulus == (2, 0, 1)

    def test_generator_satisfies_modulus(self):
        for p, m in [(2, 4), (3, 3), (5, 2), (7, 2)]:
            field = fq_context(p, m)
            g = field.gen()
            acc = field.zero()
            power = field.one()
            for c in field.modulus:
                acc = acc + power * c
                power = power * g
            assert acc.is_zero

    def test_encoding_round_trip(self):
        field = fq_context(3, 3)
        for enc in range(field.q):
            assert field.from_encoding(enc).encoding == enc
        with pytest.raises(ValueError):
            field.from_encoding(27)
        with pytest.raises(ValueError):
            field.from_encoding(-1)

    def test_element_rejects_non_integer_coordinates(self):
        # a float would otherwise be truncated to 3
        field = fq_context(5, 1)
        with pytest.raises(TypeError):
            field.element([3.9])
        assert field.element([True]) == field.one()

    def test_prime_subfield_embedding(self):
        field = fq_context(7, 2)
        for n in range(7):
            assert field.from_int(n).encoding == n

    def test_multiplicative_generator(self):
        f7 = fq_context(7, 1)
        g = f7.multiplicative_generator()
        assert g.encoding == 3  # least primitive root mod 7
        f4 = fq_context(2, 2)
        assert f4.multiplicative_generator().encoding == 2

    def test_generator_has_full_order(self):
        for p, m in [(2, 3), (5, 2), (11, 1)]:
            field = fq_context(p, m)
            g = field.multiplicative_generator()
            seen = set()
            x = field.one()
            for _ in range(field.q - 1):
                x = x * g
                seen.add(x.encoding)
            assert len(seen) == field.q - 1


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (7, 1)])
class TestFieldAxioms:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ring_identities(self, p, m, data):
        field = fq_context(p, m)
        enc = st.integers(0, field.q - 1)
        a = field.from_encoding(data.draw(enc))
        b = field.from_encoding(data.draw(enc))
        c = field.from_encoding(data.draw(enc))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == field.zero()
        assert (a + b) ** p == a**p + b**p  # Frobenius is additive

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_inverses(self, p, m, data):
        field = fq_context(p, m)
        a = field.from_encoding(data.draw(st.integers(1, field.q - 1)))
        assert a * a.inverse() == field.one()
        assert a / a == field.one()
        assert a ** (field.q - 1) == field.one()

    def test_zero_has_no_inverse(self, p, m):
        field = fq_context(p, m)
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()

    def test_negative_power_rejected(self, p, m):
        with pytest.raises(ValueError, match="negative exponent"):
            fq_context(p, m).one() ** -1


def draw_poly(data, field, **sizes) -> FqPoly:
    encodings = data.draw(st.lists(st.integers(0, field.q - 1), **sizes))
    return FqPoly(field, [field.from_encoding(e) for e in encodings])


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (7, 1)])
class TestOneRepresentation:
    """Every constructor yields the same element for the same residue."""

    def test_padded_coordinates_equal_the_integer(self, p, m):
        field = fq_context(p, m)
        for c in range(-p, 2 * p):
            e = field.element([c, 0][:m])
            assert e == field.from_int(c)
            assert hash(e) == hash(field.from_int(c))

    def test_coordinates_reduce_mod_p(self, p, m):
        field = fq_context(p, m)
        assert field.element([p, 0][:m]) == field.zero()
        assert field.element([p, 0][:m]).is_zero

    def test_too_many_coordinates_rejected(self, p, m):
        field = fq_context(p, m)
        with pytest.raises(ValueError):
            field.element([1] * (m + 1))
        with pytest.raises(ValueError):
            field.element([0] * (m + 1))

    def test_encoding_round_trip(self, p, m):
        field = fq_context(p, m)
        for enc in range(field.q):
            assert field.from_encoding(enc).encoding == enc

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_coefficients_rebuild_the_polynomial(self, p, m, data):
        field = fq_context(p, m)
        poly = draw_poly(data, field, max_size=8)
        assert FqPoly(field, poly.coeffs) == poly
        assert hash(FqPoly(field, poly.coeffs)) == hash(poly)


class TestPolynomials:
    def test_trailing_zeros_trimmed(self):
        field = fq_context(5, 1)
        poly = FqPoly(field, [1, 2, 0, 0])
        assert poly.degree == 1
        assert FqPoly(field, [0]).is_zero

    def test_int_coefficients_coerced(self):
        field = fq_context(5, 1)
        assert FqPoly(field, [7, -1]) == FqPoly(field, [2, 4])

    def test_non_integer_coefficients_rejected(self):
        # a float would otherwise be truncated, making X + 2
        with pytest.raises(TypeError):
            FqPoly(fq_context(5, 1), [2.7, 1])

    def test_mixed_field_coefficients_rejected(self):
        f5 = fq_context(5, 1)
        f25 = fq_context(5, 2)
        with pytest.raises(FieldMismatch):
            FqPoly(f5, [f25.one()])
        with pytest.raises(FieldMismatch):
            FqPoly.x(f5) + FqPoly.x(f25)
        with pytest.raises(FieldMismatch, match="elements of different fields"):
            f5.one() + f25.one()
        with pytest.raises(FieldMismatch, match="elements of different fields"):
            FqPoly.x(f5) * f25.one()
        with pytest.raises(FieldMismatch, match="argument from a different field"):
            FqPoly.x(f5).evaluate(f25.one())
        with pytest.raises(FieldMismatch, match="polynomials over different fields"):
            poly_gcd(FqPoly.x(f5), FqPoly(f25))  # a zero g, so no division checks it

    def test_division_by_zero_poly(self):
        field = fq_context(5, 1)
        with pytest.raises(ZeroDivisionError):
            divmod(FqPoly.x(field), FqPoly(field))

    @pytest.mark.parametrize("p,m", [(7, 1), (3, 2), (2, 3)])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_divmod_identity(self, p, m, data):
        field = fq_context(p, m)
        fp = draw_poly(data, field, max_size=8)
        gp = draw_poly(data, field, min_size=1, max_size=5)
        if gp.is_zero:
            return
        q, r = divmod(fp, gp)
        assert q * gp + r == fp
        assert r.is_zero or r.degree < gp.degree

    @pytest.mark.parametrize("p,m", [(7, 1), (3, 2), (2, 3)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_gcd_divides_both(self, p, m, data):
        field = fq_context(p, m)
        fp = draw_poly(data, field, min_size=1, max_size=6)
        gp = draw_poly(data, field, min_size=1, max_size=6)
        d = poly_gcd(fp, gp)
        if d.is_zero:
            assert fp.is_zero and gp.is_zero
            return
        assert d.leading == field.one()
        assert (fp % d).is_zero
        assert (gp % d).is_zero

    def test_gcd_of_known_product(self):
        field = fq_context(7, 1)
        x = FqPoly.x(field)
        one = FqPoly(field, [1])
        a = (x - 2 * one) * (x - 3 * one)
        b = (x - 2 * one) * (x - 5 * one)
        assert poly_gcd(a, b) == x - 2 * one

    def test_pow_mod_matches_repeated_multiplication(self):
        field = fq_context(5, 1)
        x = FqPoly.x(field)
        mod = FqPoly(field, [2, 0, 1])
        base = FqPoly(field, [1, 3])
        acc = FqPoly(field, [1])
        for e in range(8):
            assert poly_pow_mod(base, e, mod) == acc % mod
            acc = acc * base

    def test_pow_mod_over_an_extension_field(self):
        field = fq_context(3, 2)
        g = field.gen()
        mod = FqPoly(field, [g, 0, 1, g * g])  # g^2 X^3 + X^2 + g, not monic
        base = FqPoly(field, [1, g])
        acc = FqPoly(field, [1])
        for e in range(12):
            assert poly_pow_mod(base, e, mod) == (acc % mod if e else acc)
            acc = acc * base
        # X^(q^3) = X modulo X^3 - X - (g + 1), irreducible over F_9 since
        # the trace of g + 1 to F_3 is nonzero (Artin-Schreier)
        cubic = FqPoly(field, [-(g + 1), -1, 0, 1])
        assert roots_in(cubic, 2) == []
        assert poly_pow_mod(FqPoly.x(field), field.q, cubic) != FqPoly.x(field)
        x = FqPoly.x(field)
        assert poly_pow_mod(x, field.q**3, cubic) == x

    def test_pow_mod_rejects_negative_exponent(self):
        field = fq_context(5, 1)
        with pytest.raises(ValueError):
            poly_pow_mod(FqPoly.x(field), -1, FqPoly(field, [1, 1]))

    def test_evaluate(self):
        field = fq_context(11, 1)
        poly = FqPoly(field, [3, 0, 1, 4])  # 4x^3 + x^2 + 3
        for n in range(11):
            x = field.from_int(n)
            assert poly.evaluate(x) == field.from_int(4 * n**3 + n**2 + 3)

    def test_lift_poly_preserves_values(self):
        f5 = fq_context(5, 1)
        f25 = fq_context(5, 2)
        poly = FqPoly(f5, [1, 2, 3])
        lifted = lift_poly(poly, f25)
        for n in range(5):
            assert lifted.evaluate(f25.from_int(n)).encoding == poly.evaluate(f5.from_int(n)).encoding

    def test_lift_poly_rejects_cross_characteristic(self):
        with pytest.raises(FieldMismatch):
            lift_poly(FqPoly.x(fq_context(3, 1)), fq_context(5, 2))


# roots_in outputs pinned from the earlier FqElement-per-coefficient
# implementation: (p, k, coefficient encodings over F_{p^k}, target degree m,
# [(root encoding, multiplicity)]). Prime-field rows first (repeated roots,
# empty root sets, roots only upstairs), then F_{p^k} coefficients with
# repeated roots, then seeded random polynomials.
ROOTS_TABLE = [
    (7, 1, [2, 2, 2, 3, 0, 1], 1, [(2, 2), (3, 1)]),
    (7, 1, [1, 0, 1], 1, []),
    (7, 1, [1, 0, 1], 2, [(7, 1), (42, 1)]),
    (5, 1, [1, 1, 0, 1], 3, [(5, 1), (44, 1), (106, 1)]),
    (5, 1, [1, 1, 0, 1], 2, []),
    (3, 1, [0, 0, 0, 1, 0, 2, 0, 1], 2, [(0, 3), (3, 2), (6, 2)]),
    (3, 1, [0, 0, 0, 1, 0, 2, 0, 1], 1, [(0, 3)]),
    (2, 1, [1, 1, 0, 0, 1], 4, [(2, 1), (3, 1), (4, 1), (5, 1)]),
    (2, 1, [1, 1, 1], 4, [(6, 1), (7, 1)]),
    (2, 1, [1, 1, 0, 1], 4, []),
    (2, 1, [0, 0, 1, 1, 1, 1], 1, [(0, 2), (1, 3)]),
    (11, 1, [3], 1, []),
    (13, 1, [8, 1], 2, [(5, 1)]),
    (3, 2, [8, 5, 4, 4, 7, 7, 1], 2, [(1, 1), (4, 1), (5, 2), (7, 2)]),
    (2, 4, [11, 8, 6, 6, 1, 14, 5, 1], 4, [(3, 3), (6, 1), (7, 1), (9, 1), (14, 1)]),
    (5, 3, [73, 18, 79, 21, 45, 1], 3, [(17, 2), (101, 1)]),
    (2, 3, [2, 2, 1, 1], 3, [(1, 1), (6, 2)]),
    (7, 2, [6, 12, 29, 35, 44, 1], 2, [(2, 1), (5, 1), (10, 2), (48, 1)]),
    (3, 2, [5, 1, 7, 8, 2], 2, []),
    (3, 2, [0, 4, 4, 2, 1], 2, [(0, 1)]),
    (2, 4, [4, 3, 2, 7, 10], 4, [(10, 1)]),
    (2, 4, [2, 3, 15, 0, 14], 4, [(1, 1)]),
    (5, 2, [17, 3, 22, 6], 2, []),
    (5, 2, [20, 18, 1, 19], 2, []),
    (3, 3, [10, 17, 22, 4], 3, [(5, 1), (11, 1), (12, 1)]),
    (3, 3, [3, 18, 1, 2, 22, 25], 3, []),
    (2, 4, [7, 15, 15, 13, 6, 0, 12], 4, [(1, 1)]),
    (2, 4, [6, 6, 0, 4, 3, 9, 7], 4, [(11, 1), (13, 1)]),
    (7, 2, [2, 0, 23, 23, 46], 2, []),
    (7, 2, [13, 7, 48, 37, 4, 39, 15], 2, [(5, 1), (24, 1), (28, 1), (30, 1)]),
]


class TestRoots:
    @pytest.mark.parametrize("p,k,encs,m,expected", ROOTS_TABLE)
    def test_pinned_table(self, p, k, encs, m, expected):
        field = fq_context(p, k)
        f = FqPoly(field, [field.from_encoding(e) for e in encs])
        assert [(r.encoding, mult) for r, mult in roots_in(f, m)] == expected

    def test_prime_field_multiplicities(self):
        field = fq_context(7, 1)
        x = FqPoly.x(field)
        one = FqPoly(field, [1])
        f = (x - 2 * one) * (x - 2 * one) * (x - 3 * one)
        assert [(r.encoding, m) for r, m in roots_in(f, 1)] == [(2, 2), (3, 1)]

    def test_brute_force_oracle_small_extension(self):
        field = fq_context(5, 1)
        rng = random.Random(20260822)
        target = fq_context(5, 2)
        for _ in range(25):
            coeffs = [rng.randrange(5) for _ in range(rng.randrange(2, 7))]
            f = FqPoly(field, coeffs)
            if f.is_zero:
                continue
            lifted = lift_poly(f, target)
            expected = []
            for e in target.elements():
                mult = 0
                h = lifted
                lin = FqPoly(target, [-e, target.one()])
                while not h.is_zero and (divmod(h, lin)[1]).is_zero:
                    h = h // lin
                    mult += 1
                if mult and not lifted.evaluate(e).is_zero:
                    raise AssertionError("oracle inconsistency")
                if mult:
                    expected.append((e.encoding, mult))
            got = [(r.encoding, m) for r, m in roots_in(f, 2)]
            assert got == sorted(expected)

    def test_quadratic_nonresidue_splits_upstairs(self):
        field = fq_context(5, 1)
        f = FqPoly(field, [-2, 0, 1])  # x^2 - 2, irreducible over F_5
        assert roots_in(f, 1) == []
        found = roots_in(f, 2)
        assert len(found) == 2
        (r1, m1), (r2, m2) = found
        assert m1 == m2 == 1
        assert (r1 * r1).encoding == 2
        assert r1 + r2 == fq_context(5, 2).zero()

    def test_large_odd_field_splitting(self):
        # order 5^6 exceeds the exhaustive-scan threshold
        target = fq_context(5, 6)
        g = target.multiplicative_generator()
        r0, r1, r2 = g, g**7, g**319
        x = FqPoly.x(target)
        lin = lambda r: x - FqPoly(target, [r])
        f = lin(r0) * lin(r0) * lin(r1) * lin(r2)
        got = roots_in(f, 6)
        assert sorted(((r.encoding, m) for r, m in got)) == sorted(
            [(r0.encoding, 2), (r1.encoding, 1), (r2.encoding, 1)]
        )

    def test_large_char2_field_splitting(self):
        # char 2 takes the trace-map splitting branch
        target = fq_context(2, 13)
        g = target.multiplicative_generator()
        roots = [g, g**100, g**1000, g**5000]
        x = FqPoly.x(target)
        f = FqPoly(target, [1])
        for r in roots:
            f = f * (x - FqPoly(target, [r]))
        got = roots_in(f, 13)
        assert sorted(r.encoding for r, _ in got) == sorted(r.encoding for r in roots)
        assert all(m == 1 for _, m in got)

    def test_splitting_gives_up_when_every_draw_fails(self):
        # (X - 1)(X - 2) over F_5 with the shift 1: 2 and 3 are both
        # non-squares, so (X + 1)^2 - 1 shares no factor with it
        class SameShift:
            def randrange(self, *args):
                return 1

        field = fq_context(5, 1)
        g = FqPoly(field, [2, -3, 1])
        with pytest.raises(NotFound, match="failed to converge"):
            _distinct_roots(g, SameShift())

    def test_rejects_zero_polynomial(self):
        field = fq_context(5, 1)
        with pytest.raises(ValueError):
            roots_in(FqPoly(field), 1)


def ss_count_formula(p):
    if p in (2, 3):
        return 1
    base = p // 12
    return base + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def primes_upto(n):
    sieve = [True] * (n + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, n + 1, i):
                sieve[j] = False
    return [i for i, f in enumerate(sieve) if f]


SS_TABLE_SHA256 = "6796064dce0d552f607162d1932e4924a280ff6055fd3f7fb0f0ca140e312024"


class TestSupersingular:
    def test_tiny_characteristics(self):
        for p in (2, 3):
            field = fq_context(p, 1)
            assert supersingular_polynomial(p) == FqPoly.x(field)

    def test_frozen_small_primes(self):
        assert supersingular_polynomial(7) == FqPoly(fq_context(7, 1), [1, 1])
        assert supersingular_polynomial(11) == FqPoly(fq_context(11, 1), [0, -1, 1])
        assert supersingular_polynomial(13) == FqPoly(fq_context(13, 1), [8, 1])

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            supersingular_polynomial(10)

    def test_pinned_table_below_600(self):
        # sha256 of "p:c_0,c_1,...\n" over every prime p < 600, coefficients
        # constant first, pinned from an independent construction: the
        # squarefree part of the resultant of the Legendre Hasse polynomial
        # with the j(lambda) cover
        table = "".join(
            f"{p}:{','.join(str(c.encoding) for c in supersingular_polynomial(p).coeffs)}\n"
            for p in primes_upto(599)
        )
        assert hashlib.sha256(table.encode()).hexdigest() == SS_TABLE_SHA256

    @pytest.mark.parametrize("p", [1009, 1013, 1051, 1019])  # 1, 5, 7, 11 mod 12
    def test_large_prime_degree_and_splitting(self, p):
        ss = supersingular_polynomial(p)
        assert ss.degree == ss_count_formula(p)
        # X^(p^2) = X mod ss: ss is squarefree and splits over F_{p^2}
        coeffs = tuple(c.encoding for c in ss.coeffs)
        assert _fp_pow((0, 1), p * p, p, coeffs) == (0, 1)

    @pytest.mark.parametrize("p", primes_upto(200))
    def test_count_formula(self, p):
        ss = supersingular_polynomial(p)
        assert ss.leading == fq_context(p, 1).one()
        assert ss.degree == ss_count_formula(p)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_splits_simply_over_quadratic_extension(self, p):
        ss = supersingular_polynomial(p)
        found = roots_in(ss, 2)
        assert len(found) == ss.degree
        assert all(m == 1 for _, m in found)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
    def test_roots_have_trace_divisible_by_p(self, p):
        for r, _ in roots_in(supersingular_polynomial(p), 2):
            assert frobenius_trace(r) % p == 0

    @pytest.mark.parametrize("p", [11, 13, 23, 157, 173, 199, 179])
    def test_prime_field_detection_agrees_with_counting(self, p):
        ss = supersingular_polynomial(p)
        field = fq_context(p, 1)
        for j in field.elements():
            vanishes = ss.evaluate(j).is_zero
            assert vanishes == (frobenius_trace(j) % p == 0)


def brute_trace_char_gt3_prime(p, j):
    if j % p == 0:
        a, b = 0, 1
    elif j % p == 1728 % p:
        a, b = 1, 0
    else:
        k = j * pow(1728 - j, -1, p) % p
        a, b = 3 * k % p, 2 * k % p
    total = 0
    for x in range(p):
        fx = (x * x * x + a * x + b) % p
        if fx:
            total += 1 if pow(fx, (p - 1) // 2, p) == 1 else -1
    return -total


class TestFrobeniusTrace:
    @pytest.mark.parametrize("j", [0, 1728, 5, 23, 77])
    def test_prime_field_matches_character_sum(self, j):
        p = 101
        field = fq_context(p, 1)
        assert frobenius_trace(field.from_int(j)) == brute_trace_char_gt3_prime(p, j)

    def test_char2_matches_exhaustive_count(self):
        field = fq_context(2, 4)
        for j0 in field.elements():
            if j0.is_zero:
                continue  # j = 0 is supersingular in char 2
            a6 = j0.inverse()
            affine = 0
            for x in field.elements():
                for y in field.elements():
                    if y * y + x * y == x * x * x + a6:
                        affine += 1
            assert frobenius_trace(j0) == field.q + 1 - (affine + 1)

    def test_char3_matches_exhaustive_count(self):
        field = fq_context(3, 2)
        for j0 in field.elements():
            if j0.is_zero:
                continue
            a6 = -j0.inverse()
            affine = 0
            for x in field.elements():
                for y in field.elements():
                    if y * y == x * x * x + x * x + a6:
                        affine += 1
            assert frobenius_trace(j0) == field.q + 1 - (affine + 1)

    @pytest.mark.parametrize("m", [1, 2])
    def test_char3_j0_matches_exhaustive_count(self, m):
        # j = 0 in characteristic 3 is y^2 = x^3 + x
        field = fq_context(3, m)
        squares = [y * y for y in field.elements()]
        affine = sum(squares.count(x * x * x + x) for x in field.elements())
        assert frobenius_trace(field.zero()) == field.q + 1 - (affine + 1)

    def test_hasse_bound_everywhere_small(self):
        for p, m in [(5, 2), (7, 1), (2, 5)]:
            field = fq_context(p, m)
            for j in field.elements():
                t = frobenius_trace(j)
                assert t * t <= 4 * field.q

    def test_field_cap_enforced(self):
        field = fq_context(2, 21)
        with pytest.raises(FieldTooLarge):
            frobenius_trace(field.one())


class TestDeuring:
    def test_rejects_supersingular_j(self):
        with pytest.raises(SupersingularInput):
            deuring_discriminants(fq_context(5, 1).zero())

    def test_known_small_cases(self):
        # the vanishing discriminant is forced by which H_D(j) hits 0 mod p
        assert deuring_discriminants(fq_context(3, 1).from_int(2)) == [-8]
        assert abs(frobenius_trace(fq_context(3, 1).from_int(2))) == 2
        assert deuring_discriminants(fq_context(5, 1).from_int(2)) == [-11]
        assert abs(frobenius_trace(fq_context(5, 1).from_int(2))) == 3
        assert deuring_discriminants(fq_context(7, 1).from_int(2)) == [-12]
        assert abs(frobenius_trace(fq_context(7, 1).from_int(2))) == 4

    def test_wrong_trace_finds_no_discriminant(self, monkeypatch):
        # j = 2 over F_5 has trace +-3; with trace 1 the only candidate is
        # -19, and H_-19(2) = 2 + 884736 = 3 mod 5
        monkeypatch.setattr(hcpkit.finitefield, "frobenius_trace", lambda j0: 1)
        with pytest.raises(NotFound, match="no discriminant vanishes at j0"):
            deuring_discriminants(fq_context(5, 1).from_int(2))

    def test_cm_j_values_recover_their_order(self):
        assert -4 in deuring_discriminants(fq_context(13, 1).from_int(1728 % 13))
        assert -3 in deuring_discriminants(fq_context(7, 1).zero())
        assert -8 in deuring_discriminants(fq_context(17, 1).from_int(8000 % 17))


# the primes dividing the order of the Monster group (Ogg)
OGG = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71)


class TestSupersingularSplit:
    @pytest.mark.parametrize("p", primes_upto(200))
    def test_roots_in_f_p_times_quadratic_factors(self, p):
        factors = _supersingular_factors(p)
        product: tuple[int, ...] = (1,)
        for g in factors:
            assert g[-1] == 1 and len(g) in (2, 3) and _fp_is_irreducible(g, p)
            product = _fp_mul(product, g, p)
        ss = supersingular_polynomial(p)
        assert product == tuple(c.encoding for c in ss.coeffs)
        in_fp = [r.encoding for r, _ in roots_in(ss, 1)]
        assert sorted(-g[0] % p for g in factors if len(g) == 2) == in_fp
        assert all(len(g) == 2 for g in factors) == (p in OGG)


def strip_by_division(f, g, p):
    """(f / g^m, m) for the largest m, one _fp_divmod at a time."""
    m, (quot, rem) = 0, _fp_divmod(f, g, p)
    while not rem:
        f, m, (quot, rem) = quot, m + 1, _fp_divmod(quot, g, p)
    return f, m


class TestFpStrip:
    @pytest.mark.parametrize(
        "p,g",
        [(2, (0, 1)), (2, (1, 1)), (2, (1, 1, 1)), (37, (0, 1)), (37, (29, 1)), (37, (31, 31, 1))],
        ids=["2-X", "2-X+1", "2-X^2+X+1", "37-X", "37-X-8", "37-X^2+31X+31"],
    )
    def test_matches_repeated_division(self, p, g):
        rng = random.Random(p * 1000 + g[0] * 10 + len(g))
        for _ in range(40):
            k = rng.randrange(6)
            u = tuple(rng.randrange(p) for _ in range(rng.randrange(10))) + (1,)
            f = _fp_mul(_fp_pow(g, k, p), u, p)
            quot, m = _fp_strip(f, g, p)
            assert (quot, m) == strip_by_division(f, g, p)
            assert m >= k and _fp_mul(quot, _fp_pow(g, m, p), p) == f


def linear_power(r: int, m: int, p: int) -> tuple[int, ...]:
    return _fp_pow((-r % p, 1), m, p)


class TestVerifyDeuring:
    def test_accepts_every_pinned_prime_kind(self):
        # p = 2, 3, 5, 7, 11, 13 and 17, in turn
        for D in (-3, -15, -23, -71, -311, -479, -2999):
            _verify_deuring(D, hilbert_class_polynomial(D).coeffs)

    @pytest.mark.parametrize(
        "D,p",
        [
            (-12, 3),  # 2 divides the conductor 2
            (-63, 5),  # 3 divides the conductor 3; 2 splits
            (-36, 2),  # 2 ramifies and does not divide the conductor 3
            (-23, 5),  # 2 and 3 split
        ],
    )
    def test_prime_is_the_least_non_split_one_prime_to_the_conductor(self, D, p):
        h = class_number(D)
        wrong = (1,) + (0,) * (h - 1) + (1,)  # X^h + 1: -1 is not supersingular mod p
        with pytest.raises(VerificationFailed, match=f"mod {p} does not divide"):
            _verify_deuring(D, wrong)
        _verify_deuring(D, hilbert_class_polynomial(D).coeffs)

    @pytest.mark.parametrize("coeffs", [(3375, 1, 0), (3375, 2), (3375,)])
    def test_rejects_wrong_degree_or_leading_coefficient(self, coeffs):
        with pytest.raises(VerificationFailed, match="not monic of degree"):
            _verify_deuring(-7, coeffs)

    def test_quadratic_factors_at_p_37(self):
        # ss_37 = (X - 8)(X^2 + 31X + 31); the primes of the check at -7328
        # are 5 and 37, and H_{-7328} mod 37 uses both factors
        p = 37
        lin, quad = _supersingular_factors(p)
        assert (lin, quad) == ((29, 1), (31, 31, 1))
        coeffs = hilbert_class_polynomial(-7328).coeffs
        _verify_deuring(-7328, coeffs)
        rest, m = _fp_strip(tuple(c % p for c in coeffs), lin, p)
        assert m == 18 and _fp_strip(rest, quad, p) == ((1,), 17)
        # X^2 - 2 is irreducible mod 37, but not supersingular
        good = _fp_mul(linear_power(8, 600, p), _fp_pow(quad, 2, p), p)
        for other in ((-2 % p, 0, 1), _fp_mul(linear_power(1, 1, p), linear_power(2, 1, p), p)):
            rest, m = _fp_strip(_fp_mul(good, other, p), lin, p)
            assert m == 600 and _fp_strip(rest, quad, p) == (other, 2)


class TestMichelCounts:
    def test_frozen_histograms(self):
        f49 = fq_context(7, 2)
        assert michel_counts(-8, 7) == {f49.from_int(6): 1}
        assert michel_counts(-15, 7) == {f49.from_int(6): 2}
        f4 = fq_context(2, 2)
        assert michel_counts(-3, 2) == {f4.zero(): 1}
        f25 = fq_context(5, 2)
        assert michel_counts(-23, 5) == {f25.zero(): 3}

    def test_rejects_split_or_ramified_prime(self):
        with pytest.raises(NotInert):
            michel_counts(-15, 2)  # kronecker(-15, 2) = +1
        with pytest.raises(NotInert):
            michel_counts(-15, 3)  # ramified

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError):
            michel_counts(-12, 5)

    @pytest.mark.parametrize("D,p", [(-20, 11), (-23, 5), (-31, 3), (-47, 5)])
    def test_multiplicities_sum_to_class_number(self, D, p):
        counts = michel_counts(D, p)
        assert sum(counts.values()) == class_number(D)
        ss = lift_poly(supersingular_polynomial(p), fq_context(p, 2))
        for r in counts:
            assert ss.evaluate(r).is_zero

    def test_agrees_with_roots_of_the_lifted_class_polynomial(self):
        # reference oracle: the general root finder on H_D over F_{p^2}; 37
        # and 43 do not divide the Monster's order (OGG), so some of their
        # supersingular j lie outside F_p and have quadratic minimal polynomials
        for D in filter(is_fundamental_discriminant, discriminants_upto(400)):
            h = hilbert_class_polynomial(D)
            for p in (2, 3, 5, 7, 11, 13, 37, 43):
                if kronecker(D, p) != -1:
                    continue
                expected = roots_in(FqPoly(fq_context(p, 1), h.coeffs), 2)
                assert list(michel_counts(D, p).items()) == expected, (D, p)

    def test_each_factor_is_stripped_once(self, monkeypatch):
        # ss_37 = (X - 8)(X^2 + 31X + 31): the quadratic factor has two
        # conjugate roots in F_{37^2}, but its multiplicity is found once
        hilbert_class_polynomial(-8)  # memoized, so no Deuring check strips below
        strips = []
        strip = hcpkit.finitefield._fp_strip

        def counted(f, g, p):
            strips.append((g, p))
            return strip(f, g, p)

        monkeypatch.setattr(hcpkit.finitefield, "_fp_strip", counted)
        michel_counts(-8, 37)
        assert strips == [((29, 1), 37), ((31, 31, 1), 37)]

    def test_non_supersingular_factor_raises(self, monkeypatch):
        # H_{-23} with its constant term moved by one has roots mod 5 that
        # are not supersingular; a histogram of them must not come back
        h = hilbert_class_polynomial(-23)
        bad = IntPolynomial((h.coeffs[0] + 1,) + h.coeffs[1:])
        monkeypatch.setattr(hcpkit.classpoly, "hilbert_class_polynomial", lambda D, **kw: bad)
        with pytest.raises(ArithmeticError, match=r"H_-23 mod 5"):
            michel_counts(-23, 5)
