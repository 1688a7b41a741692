"""Experiment drivers, record serialization, and support scans."""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import pytest
from sympy import Symbol, factor_list, Poly

from hcpkit.classpoly import hilbert_class_polynomial
from hcpkit.errors import NotFound, PreconditionFailed
from hcpkit.harness import (
    CSV_HEADER,
    ExperimentRecord,
    format_value,
    gcd_growth_rational,
    ordinary_scan,
    singular_moduli,
    support_scan_cyclotomic,
    support_scan_modular,
    support_scan_multiplicative,
    support_subset_poly,
    write_csv,
    write_json,
)
from hcpkit.intpoly import IntPolynomial


class TestRecordSerialization:
    def test_csv_row_layout(self):
        rec = ExperimentRecord(
            "demo", {"a": 2, "b": 4}, D=-15, h=2, value=Fraction(3, 2), passed=True
        )
        assert rec.as_csv_row() == ["demo", "-15", "2", "a=2", "b=4", "3/2", "true"]

    def test_empty_slots(self):
        rec = ExperimentRecord("demo")
        assert rec.as_csv_row() == ["demo", "", "", "", "", "", ""]

    def test_failed_flag_and_single_param(self):
        rec = ExperimentRecord("demo", {"n": 7}, value=13, passed=False)
        assert rec.as_csv_row() == ["demo", "", "", "n=7", "", "13", "false"]

    def test_float_value_round_trips(self):
        v = 1.8378095820549942
        rec = ExperimentRecord("demo", value=v)
        assert float(rec.as_csv_row()[5]) == v

    def test_format_value(self):
        assert format_value(Fraction(7, 3)) == "7/3"
        assert format_value(0.5) == "0.5"
        assert format_value("w") == "w"

    def test_csv_writer_output(self):
        buf = io.StringIO()
        recs = [
            ExperimentRecord("one", {"k": 1}, D=-3, h=1, value=2, passed=True),
            ExperimentRecord("two", value=""),
        ]
        write_csv(recs, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == CSV_HEADER
        assert rows[1] == ["one", "-3", "1", "k=1", "", "2", "true"]
        assert rows[2] == ["two", "", "", "", "", "", ""]

    def test_json_writer_output(self):
        buf = io.StringIO()
        recs = [ExperimentRecord("one", {"k": 1}, D=-3, h=1, value=Fraction(1, 2), passed=True)]
        write_json(recs, buf)
        data = json.loads(buf.getvalue())
        assert data == [
            {
                "experiment": "one",
                "parameters": {"k": 1},
                "D": -3,
                "h": 1,
                "value": "1/2",
                "pass": True,
            }
        ]

    def test_json_keeps_numbers_native(self):
        obj = ExperimentRecord("demo", {"x": 1.5, "s": "t"}, value=7).as_json_obj()
        assert obj["parameters"] == {"x": 1.5, "s": "t"}
        assert obj["value"] == 7


class TestSingularModuli:
    def test_full_table(self):
        assert singular_moduli() == {
            0: -3,
            1728: -4,
            -3375: -7,
            8000: -8,
            -32768: -11,
            54000: -12,
            287496: -16,
            -884736: -19,
            -12288000: -27,
            16581375: -28,
            -884736000: -43,
            -147197952000: -67,
            -262537412640768000: -163,
        }


class TestGcdGrowthRational:
    def test_frozen_small_run(self):
        recs = gcd_growth_rational(2, 4, 2, 120)
        assert len(recs) == 13  # 12 inert fundamental discriminants + summary
        body, summary = recs[:-1], recs[-1]
        assert [r.D for r in body] == [
            -3, -11, -19, -35, -43, -51, -59, -67, -83, -91, -107, -115,
        ]
        assert summary.experiment == "gcd-growth-summary"
        assert summary.value == max(r.value for r in body)
        assert summary.value == pytest.approx(1.8378095820549942, rel=1e-12)
        assert summary.passed is True
        best = max(body, key=lambda r: r.value)
        assert (best.D, best.h) == (-59, 3)

    def test_rows_recomputable(self):
        for rec in gcd_growth_rational(2, 4, 2, 60)[:-1]:
            poly = hilbert_class_polynomial(rec.D)
            g = math.gcd(abs(poly.evaluate(2)), abs(poly.evaluate(4)))
            assert rec.value == math.log(g) / rec.h

    def test_max_monotone_in_cap(self):
        caps = [40, 80, 120]
        bests = [gcd_growth_rational(2, 4, 2, cap)[-1].value for cap in caps]
        assert bests == sorted(bests)

    def test_sink_sees_every_record(self):
        seen = []
        recs = gcd_growth_rational(2, 4, 2, 40, sink=seen.append)
        assert seen == recs

    def test_rejects_ordinary_endpoint(self):
        # 1 mod 2 is the ordinary residue; 0 is the supersingular one
        with pytest.raises(PreconditionFailed):
            gcd_growth_rational(3, 4, 2, 40)

    def test_rejects_singular_modulus_endpoint(self):
        # 8000 is supersingular mod 2 but is itself a one-class j value
        with pytest.raises(PreconditionFailed):
            gcd_growth_rational(8000, 4, 2, 40)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(PreconditionFailed):
            gcd_growth_rational(2, 4, 6, 40)


# driver, arguments, experiment name, grid key of a record, the grid keys in
# order, and the two parameter slots expected at a key
SCAN_CASES = [
    pytest.param(
        support_scan_modular,
        (0, 1728, 8),
        "support-modular",
        lambda r: r.D,
        [-3, -4, -7, -8],
        lambda D: ["j=0", "j2=1728"],
        id="modular",
    ),
    pytest.param(
        support_scan_cyclotomic,
        (2, 4, 8),
        "support-cyclotomic",
        lambda r: r.parameters["n"],
        list(range(1, 9)),
        lambda n: [f"n={n}", "ab=2,4"],
        id="cyclotomic",
    ),
    pytest.param(
        support_scan_multiplicative,
        (2, 3, 4),
        "support-multiplicative",
        lambda r: r.parameters["n"],
        [1, 2, 3, 4],
        lambda n: [f"n={n}", "ab=2,3"],
        id="multiplicative",
    ),
]


class TestSupportScans:
    def test_modular_self_scan_is_empty(self):
        assert support_scan_modular(2, 2, 50) == []

    def test_modular_frozen_violations(self):
        assert support_scan_modular(0, 1728, 8) == [(-3, 5), (-7, 5), (-8, 5)]

    @pytest.mark.parametrize("driver, args, experiment, key, keys, slots", SCAN_CASES)
    def test_records_carry_witness(self, driver, args, experiment, key, keys, slots):
        seen = []
        violations = driver(*args, sink=seen.append)
        assert violations
        assert [key(r) for r in seen] == keys
        assert all(r.experiment == experiment for r in seen)
        assert [(key(r), r.value) for r in seen if r.passed is False] == violations
        assert all(r.passed is True and r.value == "" for r in seen if r.passed is not False)

    def test_cyclotomic_frozen_violations(self):
        assert support_scan_cyclotomic(2, 4, 8) == [(2, 3), (4, 5), (6, 3), (8, 17)]

    def test_cyclotomic_ignored_primes_drop_violations(self):
        assert support_scan_cyclotomic(2, 4, 8, S=(3,)) == [(4, 5), (8, 17)]

    def test_multiplicative_cube_is_clean(self):
        # b = a^3 makes a^n - 1 divide b^n - 1 for every n
        assert support_scan_multiplicative(2, 8, 20) == []

    def test_multiplicative_frozen_violations(self):
        assert support_scan_multiplicative(2, 3, 4) == [(2, 3), (3, 7), (4, 3)]

    @pytest.mark.parametrize("driver, args, experiment, key, keys, slots", SCAN_CASES)
    def test_scan_record_parameters_fit_two_slots(self, driver, args, experiment, key, keys, slots):
        seen = []
        driver(*args, sink=seen.append)
        assert [r.as_csv_row()[3:5] for r in seen] == [slots(k) for k in keys]

    def test_rejects_zero_base(self):
        with pytest.raises(PreconditionFailed):
            support_scan_cyclotomic(0, 4, 5)
        with pytest.raises(PreconditionFailed):
            support_scan_multiplicative(2, 0, 5)

    def test_power_insensitivity_of_divisibility(self):
        # a prime hitting H_D(j) with p coprime to D also hits the
        # discriminant scaled by p^2
        for p, D, j in [(5, -11, 2), (3, -8, 2), (7, -12, 2)]:
            assert hilbert_class_polynomial(D).evaluate(j) % p == 0
            assert hilbert_class_polynomial(D * p * p).evaluate(j) % p == 0


T = Symbol("T")


def to_sympy(poly):
    return Poly(list(reversed(poly.coeffs)), T)


class TestSupportSubsetPoly:
    def test_conventions(self):
        zero = IntPolynomial(())
        five = IntPolynomial((5,))
        x = IntPolynomial((0, 1))
        with pytest.raises(PreconditionFailed):
            support_subset_poly(zero, zero)
        assert not support_subset_poly(zero, x)
        assert support_subset_poly(x, zero)
        assert support_subset_poly(five, x)
        assert not support_subset_poly(x, five)

    def test_squarefree_part_semantics(self):
        x = IntPolynomial((0, 1))
        xp1 = IntPolynomial((1, 1))
        f = x * x * xp1
        assert support_subset_poly(f, x * xp1)
        assert support_subset_poly(x * xp1, f)
        assert not support_subset_poly(f, x)

    def test_content_is_ignored(self):
        a = IntPolynomial((0, 6))  # 6T
        b = IntPolynomial((5, 5))  # 5T + 5
        assert not support_subset_poly(a, b)
        assert support_subset_poly(a, IntPolynomial((0, 35)))

    POOL = [
        IntPolynomial((-1, 1)),
        IntPolynomial((2, 1)),
        IntPolynomial((1, 0, 1)),
    ]

    def test_pool_elements_irreducible(self):
        for poly in self.POOL:
            sp = to_sympy(poly).as_expr()
            (_, factors) = factor_list(sp)
            assert len(factors) == 1 and factors[0][1] == 1

    def test_against_constructed_factorizations(self):
        import itertools

        def build(exps):
            out = IntPolynomial((1,))
            for base, e in zip(self.POOL, exps):
                for _ in range(e):
                    out = out * base
            return out

        grids = list(itertools.product([0, 1, 2], repeat=3))
        for ea in grids:
            for eb in grids:
                sa = {i for i, e in enumerate(ea) if e}
                sb = {i for i, e in enumerate(eb) if e}
                assert support_subset_poly(build(ea), build(eb)) == (sa <= sb), (ea, eb)


class TestOrdinaryScan:
    def test_frozen_scan(self):
        assert ordinary_scan(2, 30) == [
            (3, -8),
            (5, -11),
            (7, -12),
            (11, -7),
            (13, -51),
            (17, -59),
            (19, -12),
            (23, -76),
        ]

    def test_supersingular_primes_skipped(self):
        qs = [q for q, _ in ordinary_scan(2, 30)]
        assert 2 not in qs and 29 not in qs

    def test_divisibility_recomputable(self):
        for q, D in ordinary_scan(2, 30):
            assert hilbert_class_polynomial(D).evaluate(2) % q == 0

    def test_rejects_singular_modulus(self):
        for j in (0, 1728, -3375):
            with pytest.raises(PreconditionFailed):
                ordinary_scan(j, 10)

    def test_tight_cap_fails(self):
        with pytest.raises(NotFound):
            ordinary_scan(2, 10, per_prime_D_cap=4)

    def test_records_flow_to_sink(self):
        seen = []
        out = ordinary_scan(2, 12, sink=seen.append)
        assert [(r.parameters["q"], r.D) for r in seen] == out
        assert all(r.passed for r in seen)
