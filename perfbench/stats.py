"""Summaries of timing samples: the median and the highest percentile that
still has at least ten samples beyond it, always reported with the count."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple

TAIL_MIN_BEYOND = 10


class Summary(NamedTuple):
    n: int
    p50: float
    tail_pct: int | None  # None when fewer than 21 samples support a tail
    tail: float | None


def summarize(samples) -> Summary:
    """Median and the highest nearest-rank percentile above 50 with at least
    ten samples strictly beyond its rank."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return Summary(n, statistics.median(xs), pct, xs[rank - 1])
    return Summary(n, statistics.median(xs), None, None)


def describe(summary: Summary, unit: str) -> str:
    text = f"p50 {summary.p50:.4f} {unit}"
    if summary.tail_pct is not None:
        text += f", p{summary.tail_pct} {summary.tail:.4f} {unit}"
    return text + f" (n={summary.n})"
