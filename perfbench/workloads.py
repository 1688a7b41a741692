"""The four workloads and the item log they report into.

A workload draws its inputs from the seed in ``setup`` and then runs
passes of timed items against the public hcpkit API; one item is one
timed call, or one record a harness driver hands to its sink. Every pass
first clears the in-process caches the workload does not mean to measure,
so each pass does the work a fresh process would do on the same inputs.
"""

from __future__ import annotations

import functools
import math
import os
import random
import shutil
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import hcpkit
from hcpkit import classpoly, cyclomult, harness, quadforms

from .checks import check_hd, histogram_digest
from .tracing import CALL, SINK

# The lru caches are held by their original objects, which tracing leaves
# in place, so they can be cleared while tracing is installed.
_REDUCED_FORMS = quadforms.reduced_forms
_CYCLOTOMIC_POLYNOMIAL = cyclomult.cyclotomic_polynomial
_SINGULAR_MODULI = harness._singular_moduli


def forget_class_polynomials() -> None:
    """Empty the H_D memo and the reduced-forms cache behind class_number."""
    classpoly._memo.clear()
    _REDUCED_FORMS.cache_clear()


def systematic_sample(population: list, count: int, rng: random.Random) -> list:
    """One member from each of `count` contiguous, near-equal blocks of the
    population, at the same seeded offset in every block. On a population
    sorted by cost, every seed then draws nearly the same cost profile, so
    the percentiles of a pass move little from seed to seed while the
    inputs change."""
    n = len(population)
    if count >= n:
        return list(population)
    offset = rng.random()
    return [population[int((i + offset) * n / count)] for i in range(count)]


def fundamental_upto(bound: int) -> list[int]:
    return [-n for n in range(3, bound + 1) if hcpkit.is_fundamental_discriminant(-n)]


def by_cost(discriminants) -> list[int]:
    """Discriminants ordered by class number, then by |D|."""
    return sorted(discriminants, key=lambda D: (hcpkit.class_number(D), -D))


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def primes_below(bound: int) -> list[int]:
    return [p for p in range(2, bound) if all(p % q for q in range(2, math.isqrt(p) + 1))]


class ItemLog:
    """Item times and failures across the passes of one run."""

    def __init__(self, tracer=None) -> None:
        self.seconds: list[float] = []
        self.ok: list[bool] = []
        self.failures: list[str] = []
        self.pass_starts: list[int] = []
        self.tracer = tracer

    def new_pass(self) -> None:
        self.pass_starts.append(len(self.seconds))

    def per_pass(self) -> list[list[float]]:
        """Item seconds, one list per pass."""
        bounds = [*self.pass_starts, len(self.seconds)]
        return [self.seconds[a:b] for a, b in zip(bounds, bounds[1:])]

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _untraced(self):
        return self.tracer.pausing() if self.tracer is not None else nullcontext()

    def add(self, seconds: float, problem: str | None) -> None:
        self.seconds.append(seconds)
        self.ok.append(problem is None)
        if problem is not None:
            self.failures.append(problem)
        if self.tracer is not None:
            self.tracer.item += 1

    def fail_last(self, problem: str) -> None:
        """Mark the latest item failed, for a check on a driver's return value."""
        if self.ok and self.ok[-1]:
            self.ok[-1] = False
        self.failures.append(problem)

    def call(self, what: str, fn, *args, check, **kwargs) -> None:
        """Time one call into the library; check its result untimed."""
        with self._span(CALL):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # a raising item is a failed item; the run goes on
                self.add(perf_counter() - start, f"{what}: {type(exc).__name__}: {exc}")
                return
            seconds = perf_counter() - start
        with self._untraced():
            problem = check(result)
        self.add(seconds, None if problem is None else f"{what}: {problem}")

    def scan(self, what: str, fn, *args, check_record, check_result, **kwargs) -> None:
        """Call a harness driver; each record it hands to the sink is one
        item, timed from the previous record or from the start of the call."""
        last = perf_counter()

        def sink(rec) -> None:
            nonlocal last
            now = perf_counter()
            with self._span(SINK), self._untraced():
                problem = check_record(rec)
                self.add(now - last, None if problem is None else f"{what}: {problem}")
            last = perf_counter()

        with self._span(CALL):
            last = perf_counter()
            try:
                result = fn(*args, sink=sink, **kwargs)
            except Exception as exc:  # a raising driver fails the item in progress
                self.add(perf_counter() - last, f"{what}: {type(exc).__name__}: {exc}")
                return
        with self._untraced():
            problem = check_result(result)
        if problem is not None:
            self.fail_last(f"{what}: {problem}")


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, refs: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.refs = refs

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, log: ItemLog) -> None:
        raise NotImplementedError

    def _check_memo_hd(self, *discriminants: int) -> str | None:
        """Check the H_D a driver used, as the memo now serves it."""
        for D in discriminants:
            poly = hcpkit.hilbert_class_polynomial(D)
            problem = check_hd(D, poly.coeffs, self.h[D], self.refs)
            if problem is not None:
                return problem
        return None


class HdCold(Workload):
    """Fresh H_D assembly: empty memo and an empty cache directory per pass."""

    name = "hd_cold"
    D_BOUND = 3000
    BANDS = ((1, 10), (11, 40), (41, 120))
    # 101 items with p50 inside the middle band and p90 inside the top one
    BAND_COUNTS = (30, 50, 20)
    # D p^(2n) from the acceptance #2 grid with h = 50, the cheapest in the top band
    POWER_DISCRIMINANTS = (-9375, -12500)

    def setup(self) -> None:
        forget_class_polynomials()
        rng = random.Random(self.seed)
        bands = [[] for _ in self.BANDS]
        for D in by_cost(fundamental_upto(self.D_BOUND)):
            h = hcpkit.class_number(D)
            for members, (lo, hi) in zip(bands, self.BANDS):
                if lo <= h <= hi:
                    members.append(D)
        picks = []
        for members, count in zip(bands, self.BAND_COUNTS):
            picks += systematic_sample(members, count, rng)
        picks.append(rng.choice(self.POWER_DISCRIMINANTS))
        rng.shuffle(picks)
        self.inputs = picks
        self.h = {D: hcpkit.class_number(D) for D in picks}

    def run_pass(self, log: ItemLog) -> None:
        forget_class_polynomials()
        cache_dir = fresh_dir(self.workdir / "cold")
        for D in self.inputs:
            stored = len(os.listdir(cache_dir))
            log.call(
                f"H_{D}",
                hcpkit.hilbert_class_polynomial,
                D,
                cache_dir=cache_dir,
                check=functools.partial(self._check, D, cache_dir, stored),
            )
        shutil.rmtree(cache_dir)

    def _check(self, D: int, cache_dir: Path, stored: int, poly) -> str | None:
        problem = check_hd(D, poly.coeffs, self.h[D], self.refs)
        if problem is None and len(os.listdir(cache_dir)) != stored + 1:
            problem = "no cache file written"
        return problem


class HdWarmScan(Workload):
    """Experiment drivers over a full disk cache, memo empty each pass."""

    name = "hd_warm_scan"
    GCD_ABP = (2, 4, 2)  # a, b, p of acceptance #6
    GCD_D_CAP = 1000
    GCD_H_CAP = 10
    THM54_BOUND = 800
    THM54_COUNT = 33
    PROP23_H_CAP = 20  # largest h(D p^(2n)) taken from the acceptance #2 grid

    def setup(self) -> None:
        forget_class_polynomials()
        _SINGULAR_MODULI.cache_clear()
        rng = random.Random(self.seed)
        p = self.GCD_ABP[2]
        self.gcd_ds = [
            D
            for D in fundamental_upto(self.GCD_D_CAP)
            if hcpkit.kronecker(D, p) == -1 and hcpkit.class_number(D) <= self.GCD_H_CAP
        ]
        ones = by_cost(range(-7, -self.THM54_BOUND - 1, -8))  # D = 1 mod 8
        calls = [("thm54", (D,)) for D in systematic_sample(ones, self.THM54_COUNT, rng)]
        calls += [("prop23", point) for point in prop23_grid(self.PROP23_H_CAP)]
        rng.shuffle(calls)
        self.calls = calls
        needed = set(self.gcd_ds)
        for kind, point in calls:
            needed.add(point[0])
            if kind == "prop23":
                needed.add(point[4])
        self.h = {D: hcpkit.class_number(D) for D in needed}
        self.cache_dir = fresh_dir(self.workdir / "warm")
        for D in sorted(needed, reverse=True):
            hcpkit.hilbert_class_polynomial(D, cache_dir=self.cache_dir)
        hcpkit.singular_moduli()  # lru-cached by the library; warm it once
        self.cached_files = len(os.listdir(self.cache_dir))
        forget_class_polynomials()

    def run_pass(self, log: ItemLog) -> None:
        forget_class_polynomials()
        a, b, p = self.GCD_ABP
        log.scan(
            "gcd_growth_rational",
            hcpkit.gcd_growth_rational,
            a,
            b,
            p,
            self.GCD_D_CAP,
            h_cap=self.GCD_H_CAP,
            cache_dir=self.cache_dir,
            check_record=self._check_gcd_record,
            check_result=self._check_gcd_result,
        )
        for kind, point in self.calls:
            if kind == "thm54":
                D = point[0]
                log.call(
                    f"verify_thm54({D})",
                    hcpkit.verify_thm54,
                    D,
                    cache_dir=self.cache_dir,
                    check=functools.partial(self._check_thm54, D),
                )
            else:
                D, q, n, k, big_d = point
                log.call(
                    f"verify_prop23({D}, {q}, {n})",
                    hcpkit.verify_prop23,
                    D,
                    q,
                    n,
                    cache_dir=self.cache_dir,
                    check=functools.partial(self._check_prop23, point),
                )
        if len(os.listdir(self.cache_dir)) != self.cached_files:
            log.fail_last("a warm pass wrote to the disk cache")

    def _check_gcd_record(self, rec) -> str | None:
        expected = self.refs["gcd_growth"]
        if rec.experiment == "gcd-growth":
            want = expected.get(str(rec.D))
            if want is None or not math.isclose(rec.value, want, rel_tol=1e-12, abs_tol=1e-12):
                return f"r_{rec.D} = {rec.value!r}, reference {want!r}"
            return self._check_memo_hd(rec.D)
        best = max(expected[str(D)] for D in self.gcd_ds)
        p = self.GCD_ABP[2]
        if not math.isclose(rec.value, best, rel_tol=1e-12):
            return f"summary {rec.value!r}, expected max {best!r}"
        if rec.passed != (best >= 0.5 * math.log(p) / (p - 1)):
            return f"summary verdict {rec.passed}"
        return None

    def _check_gcd_result(self, records) -> str | None:
        if len(records) != len(self.gcd_ds) + 1:
            return f"{len(records)} records, expected {len(self.gcd_ds) + 1}"
        return None

    def _check_thm54(self, D: int, report) -> str | None:
        if not (report.forward and report.backward):
            return f"support pair {report}"
        return self._check_memo_hd(D)

    def _check_prop23(self, point, report) -> str | None:
        D, _, _, k, big_d = point
        if report.k != k or not report.congruence_holds:
            return f"{report}, expected k = {k} and the congruence"
        return self._check_memo_hd(D, big_d)


def prop23_grid(h_cap: int) -> list[tuple[int, int, int, int, int]]:
    """(D, p, n, k, D p^(2n)) over the acceptance #2 grid, h(D p^(2n)) <= h_cap;
    k from the closed class number formula, as acceptance #2 computes it."""
    out = []
    for D in (-3, -4, -7, -8, -11, -15, -20):
        for p in (2, 3, 5, 7):
            if D % (p * p) == 0:
                continue
            for n in (1, 2):
                big_d = D * p ** (2 * n)
                if hcpkit.class_number(big_d) > h_cap:
                    continue
                numerator = p ** (n - 1) * (p - hcpkit.kronecker(D, p))
                k = numerator // (hcpkit.unit_group_order(D) // 2)
                out.append((D, p, n, k, big_d))
    return out


class InertHist(Workload):
    """michel_counts at inert small primes, H_D served from the memo."""

    name = "inert_hist"
    D_BOUND = 800
    ITEM_COUNT = 240
    PRIMES = (2, 3, 5, 7, 11, 13)  # acceptance #5

    def setup(self) -> None:
        forget_class_polynomials()
        rng = random.Random(self.seed)
        # Item costs hinge on how many distinct roots H_D has mod p, which
        # neither h nor p predicts; the F_{p^2} operation count pinned in
        # refs.json does, so the items are sampled in that order.
        work = self.refs["michel_work"]
        population = sorted(
            (
                (D, p)
                for D in fundamental_upto(self.D_BOUND)
                for p in self.PRIMES
                if hcpkit.kronecker(D, p) == -1
            ),
            key=lambda item: (work[f"{item[0]},{item[1]}"], item),
        )
        items = systematic_sample(population, self.ITEM_COUNT, rng)
        rng.shuffle(items)
        self.items = items
        ds = sorted({D for D, _ in items}, reverse=True)
        self.h = {D: hcpkit.class_number(D) for D in ds}
        for D in ds:
            hcpkit.hilbert_class_polynomial(D)
        self.supersingular = {
            p: {root.encoding for root, _ in hcpkit.roots_in(hcpkit.supersingular_polynomial(p), 2)}
            for p in self.PRIMES
        }

    def run_pass(self, log: ItemLog) -> None:
        for D, p in self.items:
            log.call(
                f"michel_counts({D}, {p})",
                hcpkit.michel_counts,
                D,
                p,
                check=functools.partial(self._check, D, p),
            )

    def _check(self, D: int, p: int, counts) -> str | None:
        if sum(counts.values()) != self.h[D]:
            return f"multiplicities sum to {sum(counts.values())}, h = {self.h[D]}"
        if any(root.encoding not in self.supersingular[p] for root in counts):
            return "a root is not supersingular"
        want = self.refs["michel"].get(f"{D},{p}")
        if histogram_digest(counts) != want:
            return f"histogram digest {histogram_digest(counts)} != reference {want}"
        return None


class CycloGrid(Workload):
    """Order versus cyclotomic divisibility, the prime-power congruence and
    the two integer support scans; no class polynomial work."""

    name = "cyclo_grid"
    LEMMA44_P_BOUND = 40
    CONGRUENCE_K = 20
    CONGRUENCE_P = (2, 3, 5)
    SCANS = (
        ("support_scan_cyclotomic", 2, 4, 50),
        ("support_scan_multiplicative", 2, 8, 200),
    )

    def setup(self) -> None:
        _CYCLOTOMIC_POLYNOMIAL.cache_clear()
        rng = random.Random(self.seed)
        calls = []
        for p in primes_below(self.LEMMA44_P_BOUND):
            for a in range(1, p):
                calls += [("lemma44_check", (a, p, k)) for k in divisors(p - 1)]
        for k in range(1, self.CONGRUENCE_K + 1):
            for p in self.CONGRUENCE_P:
                if k % p:
                    calls += [("cyclotomic_congruence_check", (k, p, l)) for l in (1, 2)]
        rng.shuffle(calls)
        self.calls = calls
        self.violations = {
            name: {n: w for n, w in self.refs["scans"][name]} for name, *_ in self.SCANS
        }

    def run_pass(self, log: ItemLog) -> None:
        _CYCLOTOMIC_POLYNOMIAL.cache_clear()
        for name, args in self.calls:
            kwargs = {"l_max": 2} if name == "lemma44_check" else {}
            log.call(f"{name}{args}", getattr(hcpkit, name), *args, check=_expect_true, **kwargs)
        for name, a, b, n_max in self.SCANS:
            violations = self.violations[name]
            log.scan(
                f"{name}({a}, {b}, {n_max})",
                getattr(hcpkit, name),
                a,
                b,
                n_max,
                check_record=functools.partial(_check_scan_record, violations),
                check_result=functools.partial(_check_scan_result, violations),
            )


def _expect_true(result) -> str | None:
    return None if result is True else f"returned {result!r}"


def _check_scan_record(violations: dict, rec) -> str | None:
    n = rec.parameters["n"]
    if n in violations:
        if rec.passed is not False or rec.value != violations[n]:
            return f"n = {n}: {rec.passed}, {rec.value!r}; reference witness {violations[n]}"
    elif rec.passed is not True:
        return f"n = {n}: {rec.passed}, {rec.value!r}; reference: no violation"
    return None


def _check_scan_result(violations: dict, result) -> str | None:
    if dict(result) != violations or len(result) != len(violations):
        return f"violations {result!r} differ from the reference"
    return None


WORKLOADS = {w.name: w for w in (HdCold, HdWarmScan, InertHist, CycloGrid)}
