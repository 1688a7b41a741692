"""Order statistics for item times."""

from __future__ import annotations

# Candidate tail percentiles in tenths of a percent, lowest first.
TAIL_PERMILLE = (900, 990, 999)
MIN_BEYOND = 10


def samples_beyond(n: int, permille: int) -> int:
    """Samples strictly above the nearest-rank percentile of n samples."""
    rank = -(-permille * n // 1000)  # ceil without floating point
    return n - max(rank, 1)


def tail_permille(n: int) -> int | None:
    """The highest candidate percentile with at least MIN_BEYOND of n
    samples above it, in tenths of a percent; None when even p90 has fewer."""
    best = None
    for permille in TAIL_PERMILLE:
        if samples_beyond(n, permille) >= MIN_BEYOND:
            best = permille
    return best


def percentile(values: list[float], permille: int) -> float:
    """Nearest-rank percentile; permille is in tenths of a percent."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = -(-permille * len(ordered) // 1000)
    return ordered[max(rank, 1) - 1]
