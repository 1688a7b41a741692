"""Run one hcpkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hd_cold --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``. The
run sets the workload up at least three times (``setup_s`` is the median), then
runs whole passes for up to ``--seconds`` (at least one). With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it runs untraced
passes for half the time as the overhead baseline, then traced passes,
and prints the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
every item was correct, 1 when any item failed its check, and 2 when the
run could not be made (no result is printed then).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set up at least SETUP_MIN times and until SETUP_SECONDS have gone by, so
# that the median of a set-up of a few milliseconds is steady too: the
# host's speed drifts over seconds, and a shorter window samples one moment.
SETUP_MIN = 3
SETUP_MAX = 500
SETUP_SECONDS = 1.0
WORKLOAD_NAMES = ("hd_cold", "hd_warm_scan", "inert_hist", "cyclo_grid")
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class RunError(Exception):
    """The run could not be made; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import hcpkit from this checkout's src/, and nowhere else."""
    if not (SRC / "hcpkit" / "__init__.py").is_file():
        raise RunError(f"no hcpkit sources under {SRC}")
    # run as a script, this directory heads sys.path; keep its module
    # names from shadowing anything the library imports
    here = Path(__file__).resolve().parent
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != here]
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import hcpkit

    if Path(hcpkit.__file__).resolve().parent != SRC / "hcpkit":
        raise RunError(f"hcpkit was imported from {hcpkit.__file__}, not from {SRC}")
    return hcpkit


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_passes(workload, log, seconds: float) -> int:
    """Whole passes while the next one, as long as the slowest so far, would
    end within `seconds`; at least one. Returns the pass count."""
    start = perf_counter()
    passes = 0
    longest = 0.0
    while True:
        gc.collect()  # garbage of the previous pass is not this pass's cost
        begun = perf_counter()
        log.new_pass()
        workload.run_pass(log)
        passes += 1
        longest = max(longest, perf_counter() - begun)
        if perf_counter() - start + longest > seconds:
            return passes


def end_to_end(log, setup_times: list[float]) -> dict[str, float]:
    """Rate and percentiles over every item of the run. Pooled over the
    whole run, they follow the host's speed averaged over the run, which
    moves less from run to run than any one pass does."""
    from statistics import median

    from perfbench.stats import percentile

    return {
        "setup_s": median(setup_times),
        "items_per_s": len(log.seconds) / sum(log.seconds),
        "item_ms_p50": percentile(log.seconds, 500) * 1000,
        "item_ms_p90": percentile(log.seconds, 900) * 1000,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(workload, seconds: float, hcpkit):
    """Untraced passes for half the time as the baseline, then traced passes."""
    from perfbench.tracing import Tracer, aggregate, layer_metrics
    from perfbench.workloads import ItemLog

    baseline = ItemLog()
    baseline_passes = run_passes(workload, baseline, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        log = ItemLog(tracer)
        passes = run_passes(workload, log, seconds)
    finally:
        tracer.restore()
    overhead = (sum(log.seconds) / passes) / (sum(baseline.seconds) / baseline_passes)
    agg = aggregate(tracer, hcpkit.class_number)
    return [baseline, log], tracer, passes, layer_metrics(agg, passes, overhead), agg


def report_layers(agg: dict, metrics: dict, passes: int) -> list[str]:
    from perfbench.tracing import LAYERS

    library = agg["library"] / passes
    lines = [f"self-time shares of {library:.4f} s library time per pass ({passes} traced passes):"]
    for layer in (*LAYERS, "unattributed"):
        share = metrics[f"layer.{layer}.share"]
        lines.append(f"  {layer:<13} {share:7.2%}  ({share * library:.4f} s of {library:.4f} s)")
    inclusive = agg["inclusive"]
    claims = (
        ("j_tau about 93% of H_D assembly", "claim.j_tau_of_assemble", 0.93,
         inclusive.get("classpoly._assemble", 0.0)),
        ("divmod about 68% of the cyclotomic checks", "claim.divmod_of_cyclotomic_checks", 0.68,
         inclusive.get("cyclomult.lemma44_check", 0.0)
         + inclusive.get("cyclomult.cyclotomic_congruence_check", 0.0)),
        ("CRC the main cost of a cache read", "claim.crc_of_cache_load", None,
         inclusive.get("classpoly.cache_load", 0.0) if agg["counts"]["classpoly.cache_load.bytes"] else 0.0),
    )
    lines.append("ROADMAP baseline claims on this machine:")
    for text, key, expected, base in claims:
        share = metrics[key]
        if base <= 0:
            verdict = "not exercised by this workload"
        elif expected is None:
            verdict = "holds" if share > 0.5 else "does not hold"
        else:
            verdict = "holds" if abs(share - expected) <= 0.05 else "does not hold"
        lines.append(
            f"  {text}: measured {share:.2%} of {base / passes:.4f} s per pass -> {verdict}"
        )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        hcpkit = import_library()
        from perfbench.checks import load_refs
        from perfbench.stats import samples_beyond, tail_permille
        from perfbench.tracing import PER_LAYER
        from perfbench.workloads import WORKLOADS, ItemLog
    except (RunError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX
        ):
            gc.collect()
            start = perf_counter()
            try:
                workload = WORKLOADS[args.workload](args.seed, workdir, load_refs())
                workload.setup()
            except Exception:  # without inputs there is no run to report
                traceback.print_exc()
                print("error: set-up failed", file=sys.stderr)
                return 2
            setup_times.append(perf_counter() - start)
        if args.trace:
            logs, tracer, passes, metrics, agg = traced(workload, args.seconds, hcpkit)
            units = dict(PER_LAYER)
        else:
            log = ItemLog()
            passes = run_passes(workload, log, args.seconds)
            logs = [log]
            metrics = end_to_end(log, setup_times)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = sum(len(log.seconds) for log in logs)
    failed = sum(log.failed for log in logs)
    failures = [problem for log in logs for problem in log.failures]
    lines = [
        f"hcpkit benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}",
        "env " + json.dumps(env, sort_keys=True),
        f"{sum(len(log.pass_starts) for log in logs)} passes, {n} items, {failed} failed; "
        f"{len(setup_times)} set-ups took "
        f"{min(setup_times):.4f} to {max(setup_times):.4f} s",
    ]
    if args.trace:
        lines += report_layers(agg, metrics, passes)
        with gzip.open(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz", "wt") as fh:
            json.dump({"env": env, "spans": tracer.spans}, fh)
    else:
        tail = tail_permille(n)
        samples = f"{n} items of {passes} passes"
        lines += [
            f"  setup_s      {metrics['setup_s']:.4f} s (median of {len(setup_times)} set-ups)",
            f"  items_per_s  {metrics['items_per_s']:.4f} 1/s ({samples} over "
            f"{sum(log.seconds):.4f} s of item time)",
            f"  item_ms_p50  {metrics['item_ms_p50']:.4f} ms (over {samples})",
            f"  item_ms_p90  {metrics['item_ms_p90']:.4f} ms (over {samples}; "
            f"{samples_beyond(n, 900)} beyond it; highest percentile "
            f"with >= 10 beyond: {'none' if tail is None else f'p{tail / 10:g}'})",
            f"  fail_frac    {failed / n:.4f} ({failed} of {n} items)",
            f"  peak_rss_mb  {metrics['peak_rss_mb']:.4f} MB",
        ]
    lines += [f"  FAILED {problem}" for problem in failures[:20]]
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(
        result,
        env=env,
        setup_times=setup_times,
        passes=[{"items": len(p), "item_s": sum(p)} for log in logs for p in log.per_pass()],
        failures=failures,
    )
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
