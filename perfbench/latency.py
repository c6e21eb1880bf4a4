"""Op latency percentiles for the closed-loop timings.

Each workload repeats one fixed list of deterministic ops per pass, so the
spread of one op's times across passes is machine noise, while the spread
across ops is the workload's own.  Percentiles are therefore taken over the
ops' mean times across passes, one value per distinct op, and the tail rule
counts distinct ops: its percentile depends on the workload, not on how
many passes fitted into the run.  The mean, not the median, summarises the
repeats because the host's speed switches between slow and fast spells
lasting seconds: a median flips with whichever spell covered more of the
run, while the mean weighs them by their share.
"""

from __future__ import annotations

import statistics

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of ``n`` values beyond it."""
    best = None
    for q in TAIL_LADDER:
        if n * (1000 - round(10 * q)) >= 1000 * TAIL_MIN_BEYOND:   # exact in tenths
            best = q
    return best


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def per_op_means(samples) -> list:
    """Sorted mean seconds of each op key in ``(key, seconds)`` samples."""
    by_key: dict = {}
    for key, seconds in samples:
        by_key.setdefault(key, []).append(seconds)
    return sorted(statistics.fmean(values) for values in by_key.values())


def latency_summary(samples) -> dict:
    """p50 and tail (ms) over per-op means, with the tail's percentile.

    With fewer than twenty distinct ops no percentile has ten beyond it; the
    tail then falls back to the p50 and ``tail_q`` says so.
    """
    values = per_op_means(samples)
    q = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50_ms": 1000.0 * percentile(values, 50.0),
        "tail_q": q if q is not None else 50.0,
        "tail_ms": 1000.0 * percentile(values, q if q is not None else 50.0),
    }
