"""Ablations on HyRec's design choices, A1-A3 (the "Paper ↔ module
map" in ``docs/engines.md`` lists them).

* **A1 -- random injection**: the Sampler's k random users are what
  guarantees eventual convergence (Section 3.1: "adding random users
  to the sample prevents this search from getting stuck into a local
  optimum").  Removing them should hurt final view similarity.
* **A2 -- two-hop candidates**: ``KNN(Nu)`` is what makes convergence
  *fast* ("compute similarities with all the 2-hop neighbors at once,
  leading to faster convergence", Section 2.4).  Removing it should
  slow convergence even if the end point survives thanks to randoms.
* **A3 -- similarity metric**: the paper uses cosine "but any other
  metric could be used"; this ablation swaps in Jaccard and overlap
  and reports view similarity (against the matching ideal) and
  recommendation quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import HyRecConfig
from repro.core.system import HyRecSystem
from repro.datasets import load_dataset, time_split
from repro.eval.common import format_rows
from repro.eval.fig6 import HyRecQualityAdapter
from repro.metrics.recommendation_quality import QualityProtocol
from repro.metrics.view_similarity import (
    ideal_view_similarity,
    view_similarity_of_table,
)


@dataclass
class SamplerAblationResult:
    """Final view similarity per sampler variant."""

    scale: float
    ideal: float
    view_similarity: dict[str, float] = field(default_factory=dict)

    def format_report(self) -> str:
        rows = []
        for name, value in self.view_similarity.items():
            share = value / self.ideal if self.ideal > 0 else 0.0
            rows.append([name, f"{value:.4f}", f"{share * 100:.1f}%"])
        rows.append(["Ideal upper bound", f"{self.ideal:.4f}", "100.0%"])
        return format_rows(
            ["Sampler variant", "view similarity", "% of ideal"],
            rows,
            title=f"Ablation A1/A2 -- sampler components (scale={self.scale})",
        )


def run_sampler_ablation(
    scale: float = 0.08, seed: int = 0, k: int = 10, dataset: str = "ML1"
) -> SamplerAblationResult:
    """Replay with each sampler variant; compare final view similarity."""
    trace = load_dataset(dataset, scale=scale, seed=seed)
    variants = {
        "full (2-hop + random)": HyRecConfig(k=k),
        "no random injection": HyRecConfig(k=k, num_random=0),
        "no two-hop": HyRecConfig(k=k, include_two_hop=False),
        "random only": HyRecConfig(k=k, include_two_hop=False, num_random=2 * k),
    }
    result = SamplerAblationResult(scale=scale, ideal=0.0)
    liked_final: dict[int, frozenset[int]] = {}
    for name, config in variants.items():
        system = HyRecSystem(config, seed=seed)
        system.replay(trace)
        liked_final = system.server.profiles.liked_sets()
        result.view_similarity[name] = view_similarity_of_table(
            liked_final, system.server.knn_table.as_dict()
        )
    result.ideal = ideal_view_similarity(liked_final, k=k)
    return result


@dataclass
class SimilarityAblationResult:
    """View similarity and quality@10 per similarity metric."""

    scale: float
    view_similarity: dict[str, float] = field(default_factory=dict)
    ideal: dict[str, float] = field(default_factory=dict)
    quality_at_10: dict[str, int] = field(default_factory=dict)

    def format_report(self) -> str:
        rows = []
        for name in self.view_similarity:
            rows.append(
                [
                    name,
                    f"{self.view_similarity[name]:.4f}",
                    f"{self.ideal[name]:.4f}",
                    str(self.quality_at_10[name]),
                ]
            )
        return format_rows(
            ["Metric", "view sim", "ideal (same metric)", "quality@10"],
            rows,
            title=f"Ablation A3 -- similarity metrics (scale={self.scale})",
        )


def run_similarity_ablation(
    scale: float = 0.08, seed: int = 0, k: int = 10, dataset: str = "ML1"
) -> SimilarityAblationResult:
    """Swap the widget's similarity metric; measure quality effects."""
    trace = load_dataset(dataset, scale=scale, seed=seed)
    train, test = time_split(trace)
    protocol = QualityProtocol(n_max=10)
    result = SimilarityAblationResult(scale=scale)

    from repro.core.similarity import get_metric

    for metric_name in ("cosine", "jaccard", "overlap"):
        system = HyRecSystem(HyRecConfig(k=k, metric=metric_name), seed=seed)
        system.replay(trace)
        liked = system.server.profiles.liked_sets()
        result.view_similarity[metric_name] = view_similarity_of_table(
            liked,
            system.server.knn_table.as_dict(),
            metric=get_metric(metric_name),
        )
        result.ideal[metric_name] = ideal_view_similarity(
            liked, k=k, metric=metric_name
        )

        quality_system = HyRecQualityAdapter(
            HyRecSystem(HyRecConfig(k=k, r=10, metric=metric_name), seed=seed)
        )
        quality = protocol.run(quality_system, train, test)
        result.quality_at_10[metric_name] = quality.hits_at[10]
    return result
