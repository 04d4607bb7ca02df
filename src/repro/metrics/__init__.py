"""Evaluation metrics (Section 5.1, "Metrics").

* :mod:`repro.metrics.view_similarity` -- average profile similarity
  between each user and her neighbors, and the global-knowledge upper
  bound ("ideal KNN") it is normalized against (Figures 3-4).
* :mod:`repro.metrics.recommendation_quality` -- the hit-counting
  protocol of [37]: replay the 20% test tail, count recommendations
  that contain the item the user is about to like (Figure 6).
* :mod:`repro.metrics.convergence` -- time-series bucketing for the
  candidate-set size curves (Figure 5).
* latency summaries for the systems experiments (Figures 7-9, 12-13)
  live in :mod:`repro.obs.timing` (the observability layer) and are
  re-exported here.
* :mod:`repro.metrics.bandwidth` -- byte formatting and per-widget
  traffic summaries (Figure 10, Section 5.6).
"""

from repro.metrics.view_similarity import (
    ideal_view_similarity,
    ideal_view_similarity_per_user,
    view_similarity_of_table,
    view_similarity_per_user,
)
from repro.metrics.recommendation_quality import (
    QualityProtocol,
    QualityResult,
    RecommenderAdapter,
)
from repro.metrics.convergence import bucket_series, SeriesPoint
from repro.obs.timing import LatencySummary, summarize_latencies
from repro.metrics.bandwidth import format_bytes

__all__ = [
    "ideal_view_similarity",
    "ideal_view_similarity_per_user",
    "view_similarity_of_table",
    "view_similarity_per_user",
    "QualityProtocol",
    "QualityResult",
    "RecommenderAdapter",
    "bucket_series",
    "SeriesPoint",
    "LatencySummary",
    "summarize_latencies",
    "format_bytes",
]
