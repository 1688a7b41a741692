"""Tests of the benchmark itself: percentiles, self time, fault injection.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from hcpkit import classpoly, modfunc  # noqa: E402
from hcpkit.intpoly import IntPolynomial  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench.checks import INTEGRAL_J, check_hd, digest, load_refs  # noqa: E402
from perfbench.stats import percentile, samples_beyond, tail_permille  # noqa: E402
from perfbench.tracing import Tracer, outermost, self_times  # noqa: E402
from perfbench.workloads import HdCold, systematic_sample  # noqa: E402


# -- percentile rule --------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (99, None), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    assert tail_permille(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_nearest_rank_percentile():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 500) == 50.0
    assert percentile(values, 900) == 90.0
    assert samples_beyond(100, 900) == 10
    assert percentile([7.0], 900) == 7.0


# -- sampling ---------------------------------------------------------------


def test_systematic_sample_takes_one_per_block_at_one_offset():
    population = list(range(100))
    picks = systematic_sample(population, 10, random.Random(3))
    assert [v // 10 for v in picks] == list(range(10))
    assert len({v % 10 for v in picks}) == 1
    assert picks == systematic_sample(population, 10, random.Random(3))
    assert systematic_sample(population, 200, random.Random(3)) == population


# -- self time --------------------------------------------------------------


def span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("d", 2.0, 3.0, 1),
        span("c", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0, -1), span("b", 1.0, 5.0, 0), span("c", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == 4.0


def test_transparent_span_hands_children_to_its_parent():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("t", 1.0, 9.0, 0),
        span("b", 2.0, 4.0, 1),
        span("c", 5.0, 6.0, 1),
    ]
    assert self_times(spans, transparent={"t"}) == [7.0, 0.0, 2.0, 1.0]


def test_recursive_spans_count_once_in_inclusive_time():
    spans = [span("f", 0.0, 4.0, -1), span("f", 1.0, 2.0, 0), span("g", 2.0, 3.0, 0)]
    assert outermost(spans) == [True, False, True]


def test_tracer_restores_every_rebound_name():
    j_tau = modfunc.j_tau
    evaluate = IntPolynomial.evaluate
    tracer = Tracer()
    tracer.install()
    try:
        assert classpoly.j_tau is modfunc.j_tau is not j_tau
    finally:
        tracer.restore()
    assert classpoly.j_tau is modfunc.j_tau is j_tau
    assert IntPolynomial.evaluate is evaluate
    assert "divmod" not in vars(sys.modules["hcpkit.cyclomult"])


# -- correctness gate -------------------------------------------------------


def test_structural_checks_do_not_need_digests():
    refs = {"hd": {}}
    assert "degree" in check_hd(-15, (-121287375, 191025, 1), 3, refs)
    assert "monic" in check_hd(-15, (-121287375, 191025, 2), 2, refs)
    assert "not j" in check_hd(-7, (INTEGRAL_J[-7], 1), 1, refs)
    assert "no reference" in check_hd(-7, (-INTEGRAL_J[-7], 1), 1, refs)


def test_reference_digest_of_small_class_polynomial():
    refs = load_refs()
    assert refs["hd"]["-15"] == digest((-121287375, 191025, 1))
    assert check_hd(-15, (-121287375, 191025, 1), 2, refs) is None


@pytest.mark.parametrize("delta", [1, -1])
def test_perturbed_coefficient_fails_the_item_and_the_command(monkeypatch, capsys, delta):
    target = -75  # h = 2, from the acceptance #2 grid
    assemble = classpoly._assemble

    def perturbed(D, prec):
        poly = assemble(D, prec)
        if D != target or poly is None:
            return poly
        coeffs = list(poly.coeffs)
        coeffs[1] += delta
        return IntPolynomial(tuple(coeffs))

    monkeypatch.setattr(classpoly, "_assemble", perturbed)
    monkeypatch.setattr(HdCold, "BAND_COUNTS", (4, 2, 0))
    monkeypatch.setattr(HdCold, "POWER_DISCRIMINANTS", (target,))
    code = run.main(["--workload", "hd_cold", "--seed", "5", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 7
    assert result["failed"] == 1


def test_without_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cyclo_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
