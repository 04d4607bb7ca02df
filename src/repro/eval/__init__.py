"""Experiment harness: one module per table/figure of Section 5.

Every experiment function returns a structured result object with a
``format_report()`` method printing the same rows/series the paper
plots, so that ``benchmarks/`` can both time the experiment and show
its output.  All experiments accept ``scale`` (workload size factor)
and ``seed``; the defaults are chosen so the whole suite finishes on
a laptop.

The "Paper ↔ module map" in ``docs/engines.md`` is the experiment
index: which module reproduces each table and figure.
"""

from repro.eval.common import liked_sets_of_trace, liked_sets_of_profiles
from repro.eval.table2 import Table2Result, run_table2
from repro.eval.table3 import Table3Result, run_table3
from repro.eval.fig3_fig4 import Fig3Result, Fig4Result, run_fig3, run_fig4
from repro.eval.fig5 import Fig5Result, run_fig5
from repro.eval.fig6 import Fig6Result, run_fig6
from repro.eval.fig7 import Fig7Result, run_fig7
from repro.eval.fig8_fig9 import Fig8Result, Fig9Result, run_fig8, run_fig9
from repro.eval.fig10 import Fig10Result, run_fig10
from repro.eval.fig11_13 import (
    Fig11Result,
    Fig12Result,
    Fig13Result,
    run_fig11,
    run_fig12,
    run_fig13,
)
from repro.eval.p2p_bandwidth import P2PBandwidthResult, run_p2p_bandwidth
from repro.eval.ablations import (
    SamplerAblationResult,
    SimilarityAblationResult,
    run_sampler_ablation,
    run_similarity_ablation,
)
from repro.eval.churn import ChurnAblationResult, run_churn_ablation
from repro.eval.tivo_comparison import TivoComparisonResult, run_tivo_comparison
from repro.eval.privacy import PrivacyResult, run_privacy_attack

__all__ = [
    "liked_sets_of_trace",
    "liked_sets_of_profiles",
    "Table2Result",
    "run_table2",
    "Table3Result",
    "run_table3",
    "Fig3Result",
    "Fig4Result",
    "run_fig3",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "Fig9Result",
    "run_fig8",
    "run_fig9",
    "Fig10Result",
    "run_fig10",
    "Fig11Result",
    "Fig12Result",
    "Fig13Result",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "P2PBandwidthResult",
    "run_p2p_bandwidth",
    "SamplerAblationResult",
    "SimilarityAblationResult",
    "run_sampler_ablation",
    "run_similarity_ablation",
    "ChurnAblationResult",
    "run_churn_ablation",
    "TivoComparisonResult",
    "run_tivo_comparison",
    "PrivacyResult",
    "run_privacy_attack",
]
