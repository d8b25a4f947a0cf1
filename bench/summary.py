"""Order statistics used by the benchmark's end-to-end metrics.

A timing is reported as its median and as a tail: the highest percentile
that leaves at least ten samples beyond it.  Both are taken over every
sample of a run.  A run repeats a fixed corpus ("pass") and makes at least
a fixed number of passes, so it has at least a fixed number of samples;
the tail percentile is set by that number alone.  More passes repeat the
same inputs, so the percentile names the same inputs whatever number of
passes a run makes, and still leaves at least ten samples beyond it.  A
failed operation enters every timing as +inf, so it counts as missing any
latency limit.
"""

from __future__ import annotations

import math

#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10


def tail_percentile(samples: int) -> float:
    """Highest percentile with ``TAIL_BEYOND`` of ``samples`` samples beyond it.

    Never below the median: with fewer than ``2 * TAIL_BEYOND`` samples no
    percentile at or above the median qualifies, and the median is reported
    as the tail (the result states the percentile used).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    return max(50.0, 100.0 * (samples - TAIL_BEYOND) / samples)


def _rank(count: int, pct: float) -> int:
    return max(1, math.ceil(pct / 100.0 * count - 1e-9))


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def timing(values, min_samples: int) -> dict:
    """Median and tail of ``values`` (seconds; failures given as +inf).

    ``min_samples`` is the number of samples every run of the workload has
    at least; it fixes the tail percentile.  Both figures are nearest-rank
    percentiles, so each is a sample and the tail is never below the
    median.  ``beyond_tail`` counts the samples ranked above the tail; a
    sample of equal value may be among them.
    """
    pct = tail_percentile(min_samples)
    tail = nearest_rank(values, pct)
    beyond = len(values) - _rank(len(values), pct)
    return {
        "p50": nearest_rank(values, 50.0),
        "tail": tail,
        "tail_pct": round(pct, 3),
        "samples": len(values),
        "beyond_tail": beyond,
    }


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] its children cover.

    ``children`` holds (start, end) intervals; overlaps are merged so time
    covered twice is subtracted once, and parts outside the span are ignored.
    """
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(a, start), min(b, end)) for a, b in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered
