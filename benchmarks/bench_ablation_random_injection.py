"""Bench A1/A2 -- sampler-component ablation.

The claims under test (ablations A1-A2 of :mod:`repro.eval.ablations`,
listed in the "Paper ↔ module map" in ``docs/engines.md``):

* dropping the k random users (A1) removes the escape from local
  optima: final view similarity must not beat the full sampler's;
* dropping the two-hop component (A2) slows the epidemic search:
  again no better than the full sampler;
* the full sampler is the best variant overall, and random-only is
  the weakest informed variant.
"""

from conftest import attach_report, run_once

from repro.eval.ablations import run_sampler_ablation


def test_sampler_component_ablation(benchmark):
    result = run_once(benchmark, run_sampler_ablation, scale=0.1, seed=0)
    attach_report(benchmark, result)

    full = result.view_similarity["full (2-hop + random)"]
    no_random = result.view_similarity["no random injection"]
    no_two_hop = result.view_similarity["no two-hop"]
    random_only = result.view_similarity["random only"]

    assert full > 0
    assert full <= result.ideal + 1e-9
    for name, value in result.view_similarity.items():
        assert value <= full * 1.02, name  # nothing beats the full recipe
    # Both components carry weight: the crippled variants lose measurably.
    assert min(no_random, no_two_hop, random_only) < full * 0.98

    benchmark.extra_info["view_similarity"] = {
        name: round(value, 4) for name, value in result.view_similarity.items()
    }
    benchmark.extra_info["ideal"] = round(result.ideal, 4)
