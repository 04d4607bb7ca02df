"""Latency summaries -- the repo's one timing facility.

Lives in the observability layer (PR 7) so there is exactly one place
that turns raw latency samples into aggregate statistics: the
evaluation figures (``repro.eval``), the benchmarks, and the obs dump
all summarize through here.

For live instruments prefer a
:class:`repro.obs.registry.Histogram` -- it is bounded and mergeable
across processes; :func:`summarize_latencies` is for offline sample
lists where exact percentiles are wanted.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = ["LatencySummary", "nearest_rank", "summarize_latencies"]


def nearest_rank(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample.

    Returns the smallest sample value such that at least ``fraction``
    of the sample is at or below it: index ``ceil(fraction * n) - 1``.
    The previously used ``int(fraction * n)`` lands one past the
    nearest rank whenever ``fraction * n`` is an integer -- for 20
    samples it reported the maximum as the p95 instead of the 19th
    value.  Empty samples summarize to 0.0.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    index = max(math.ceil(fraction * n) - 1, 0)
    return sorted_values[min(index, n - 1)]


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate statistics of a latency sample, in seconds."""

    count: int
    mean: float
    median: float
    p95: float
    maximum: float

    @property
    def mean_ms(self) -> float:
        return self.mean * 1e3

    @property
    def p95_ms(self) -> float:
        return self.p95 * 1e3


def summarize_latencies(samples: Sequence[float]) -> LatencySummary:
    """Summarize a non-empty sequence of latencies."""
    if not samples:
        raise ValueError("cannot summarize an empty latency sample")
    ordered = sorted(samples)
    return LatencySummary(
        count=len(ordered),
        mean=statistics.fmean(ordered),
        median=ordered[len(ordered) // 2],
        p95=nearest_rank(ordered, 0.95),
        maximum=ordered[-1],
    )
