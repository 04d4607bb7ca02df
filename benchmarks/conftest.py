"""Shared helpers for the benchmark suite.

Every bench regenerates one table or figure of the paper (see the
"Paper ↔ module map" in ``docs/engines.md``), times it with
pytest-benchmark, prints the paper-style report (visible with ``-s``),
and attaches the key numbers to ``benchmark.extra_info`` so they land
in the JSON output.

Scales are chosen so the full suite finishes on a laptop; run the
experiments at larger scales through ``python -m repro.eval.runner``.
"""

from __future__ import annotations


def run_once(benchmark, fn, **kwargs):
    """Execute ``fn(**kwargs)`` exactly once under the benchmark timer."""
    return benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)


def attach_report(benchmark, result) -> None:
    """Print the paper-style report and stash it in extra_info."""
    report = result.format_report()
    print()
    print(report)
    benchmark.extra_info["report"] = report
