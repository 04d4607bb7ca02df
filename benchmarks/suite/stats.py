"""Window summaries, percentiles and the host stamp.

A metric's value is the median of its per-window (or per-repeat)
values; ``q1``/``q3``/``n_samples`` travel beside it so a reader -- and
``run.py --compare`` -- can tell a shift from the spread of one run.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from typing import Sequence

import numpy

from repro.obs.timing import nearest_rank

#: A percentile is only reported when at least this many samples lie
#: beyond it; below that it is one or two outliers, not a percentile.
MIN_BEYOND = 10


def summarize(values: Sequence[float]) -> dict[str, float | int]:
    """Median and quartiles of per-window values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n_samples": len(values),
    }


def percentile(sorted_values: Sequence[float], fraction: float) -> float | None:
    """Nearest-rank percentile, or ``None`` when the sample is too small."""
    n = len(sorted_values)
    if n - math.ceil(fraction * n) < MIN_BEYOND:
        return None
    return nearest_rank(sorted_values, fraction)


def host_stamp() -> dict[str, object]:
    """What a bench number is only admissible with (ROADMAP aim 1)."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
