"""Regenerate perfbench/refs.json, the pinned references of the benchmark.

    python3 perfbench/make_refs.py

Computes, with the library in src/, every value the benchmark checks
against: a digest of each H_D over the populations the workloads sample
from, each michel_counts histogram, each gcd-growth value and the two
support-scan fingerprints; and the operation count of each michel_counts
item, by which inert_hist orders its population before sampling. Rerun it only on purpose: the references are
meant to hold the outputs of the commit that introduced the benchmark,
so that a later change to the library cannot move them unnoticed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import hcpkit  # noqa: E402

from perfbench.checks import REFS_PATH, digest, histogram_digest  # noqa: E402
from perfbench.run import git_commit  # noqa: E402
from perfbench.tracing import COUNTED, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CycloGrid,
    HdCold,
    HdWarmScan,
    InertHist,
    fundamental_upto,
    prop23_grid,
)


def main() -> None:
    population = set(fundamental_upto(HdCold.D_BOUND))
    population.update(HdCold.POWER_DISCRIMINANTS)
    population.update(range(-7, -HdWarmScan.THM54_BOUND - 1, -8))
    for D, _, _, _, big_d in prop23_grid(HdWarmScan.PROP23_H_CAP):
        population.update((D, big_d))
    hd = {}
    for i, D in enumerate(sorted(population, reverse=True)):
        hd[str(D)] = digest(hcpkit.hilbert_class_polynomial(D).coeffs)
        if i % 100 == 0:
            print(f"H_D: {i} of {len(population)}", file=sys.stderr)

    michel = {}
    for D in fundamental_upto(InertHist.D_BOUND):
        for p in InertHist.PRIMES:
            if hcpkit.kronecker(D, p) == -1:
                michel[f"{D},{p}"] = histogram_digest(hcpkit.michel_counts(D, p))

    # F_{p^2} operations per item, the cost inert_hist orders its population by; counted
    # once every field context and supersingular polynomial is cached
    michel_work = {}
    tracer = Tracer()
    tracer.install()
    try:
        for key in michel:
            D, p = map(int, key.split(","))
            tracer.counts.clear()
            hcpkit.michel_counts(D, p)
            michel_work[key] = sum(tracer.counts[name] for *_, name in COUNTED)
    finally:
        tracer.restore()

    a, b, p = HdWarmScan.GCD_ABP
    records = hcpkit.gcd_growth_rational(a, b, p, HdWarmScan.GCD_D_CAP, h_cap=HdWarmScan.GCD_H_CAP)
    gcd_growth = {str(r.D): r.value for r in records if r.experiment == "gcd-growth"}

    scans = {name: getattr(hcpkit, name)(a, b, n_max) for name, a, b, n_max in CycloGrid.SCANS}

    refs = {
        "commit": git_commit(ROOT),
        "hd": hd,
        "michel": michel,
        "michel_work": michel_work,
        "gcd_growth": gcd_growth,
        "scans": scans,
    }
    with open(REFS_PATH, "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFS_PATH}: {len(hd)} H_D, {len(michel)} histograms", file=sys.stderr)


if __name__ == "__main__":
    main()
