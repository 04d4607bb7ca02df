"""Non-binary (score-weighted) similarity -- the paper's extension.

Section 2.1: "For the sake of simplicity, we only consider binary
ratings ...  This rating can be easily extended to the non-binary
case [47]."  Reference [47] is GroupLens, whose classic metric is the
Pearson correlation over co-rated items.

These metrics operate on *wire-format profiles* -- the ``{item key:
value}`` dicts that personalization jobs already carry -- so a widget
can switch to weighted scoring without any server or protocol change:
pass :func:`payload_cosine` or :func:`payload_pearson` as the
``payload_similarity`` hook of :class:`repro.core.client.HyRecWidget`.

Binary compatibility: on 0/1 profiles, :func:`payload_cosine` treats
the dislikes as zero-weight and reduces to the liked-set cosine of
:mod:`repro.core.similarity`, so flipping the hook on is safe even
before a deployment starts collecting star ratings.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

PayloadMetric = Callable[[Mapping[str, float], Mapping[str, float]], float]


def payload_cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Weighted cosine over sparse score vectors, in [0, 1].

    Values act as vector components (a 5-star opinion weighs five
    times a 1-star one); items missing from a profile contribute 0.
    """
    if not a or not b:
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = 0.0
    for item, value in small.items():
        other = large.get(item)
        if other is not None:
            dot += value * other
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def payload_pearson(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """GroupLens-style Pearson correlation over co-rated items.

    Computed on the intersection only (the [47] convention), mapped
    from [-1, 1] to [0, 1] so it can drive Algorithm 1's ranking
    directly (ties and bounds behave like the other metrics).  Fewer
    than two co-rated items, or zero variance on either side, score 0
    -- no evidence, no similarity.
    """
    if not a or not b:
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    shared = [item for item in small if item in large]
    if len(shared) < 2:
        return 0.0
    mean_a = sum(a[item] for item in shared) / len(shared)
    mean_b = sum(b[item] for item in shared) / len(shared)
    cov = var_a = var_b = 0.0
    for item in shared:
        da = a[item] - mean_a
        db = b[item] - mean_b
        cov += da * db
        var_a += da * da
        var_b += db * db
    # Two square roots, not one of the product: var_a * var_b can
    # underflow to 0.0 while each variance is a positive subnormal.
    denominator = math.sqrt(var_a) * math.sqrt(var_b)
    if denominator == 0.0:
        return 0.0
    correlation = cov / denominator
    # Rounding can push a perfect (anti-)correlation a few ulps past
    # +/-1 (e.g. -1.0000000000000002), which would leak outside the
    # documented [0, 1] range after the affine map.  Clamp first.
    correlation = max(-1.0, min(1.0, correlation))
    return (correlation + 1.0) / 2.0


_PAYLOAD_METRICS: dict[str, PayloadMetric] = {
    "payload-cosine": payload_cosine,
    "payload-pearson": payload_pearson,
}


def get_payload_metric(name: str) -> PayloadMetric:
    """Look up a weighted metric by name."""
    try:
        return _PAYLOAD_METRICS[name]
    except KeyError:
        raise KeyError(
            f"unknown payload metric {name!r}; "
            f"available: {', '.join(sorted(_PAYLOAD_METRICS))}"
        ) from None
