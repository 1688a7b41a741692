"""Reduced binary quadratic forms, class numbers, and the precision sum.

A form (a, b, c) has discriminant b^2 - 4ac < 0 and a > 0. Reduced means
|b| <= a <= c with b >= 0 whenever |b| = a or a = c. Only primitive forms
(gcd(a, b, c) = 1) are enumerated, so the count is the class number h(D)
of the order of discriminant D, fundamental or not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .arith import is_discriminant


class QuadForm(NamedTuple):
    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


@lru_cache(maxsize=None)
def reduced_forms(D: int) -> tuple[QuadForm, ...]:
    """All primitive reduced forms of discriminant D, sorted by (a, b)."""
    if not is_discriminant(D):
        raise ValueError("D must be a negative discriminant")
    out = []
    # 0 <= b <= a <= c forces 3b^2 <= |D|; a runs over the divisors of ac up to sqrt(ac)
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        ac = (b * b - D) // 4
        for a in range(max(b, 1), isqrt(ac) + 1):
            c, r = divmod(ac, a)
            if r or gcd(a, b, c) != 1:
                continue
            out.append(QuadForm(a, b, c))
            if 0 < b < a < c:
                out.append(QuadForm(a, -b, c))
    out.sort()
    return tuple(out)


def class_number(D: int) -> int:
    """h(D): the number of primitive reduced forms of discriminant D."""
    return len(reduced_forms(D))


def inv_a_sum(D: int) -> Fraction:
    """Sum of 1/a over the reduced forms, exact; drives working precision."""
    return sum((Fraction(1, f.a) for f in reduced_forms(D)), Fraction(0))


def unit_group_order(D: int) -> int:
    """Order of the unit group of the order of discriminant D: 6, 4 or 2."""
    if not is_discriminant(D):
        raise ValueError("D must be a negative discriminant")
    if D == -3:
        return 6
    if D == -4:
        return 4
    return 2
