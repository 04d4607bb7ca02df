"""In-process map-reduce engine (the paper's back-end substrate).

The centralized baselines of Section 5.4 run their offline KNN
selection on map-reduce platforms: Offline-CRec "exploit[s] an
implementation of the mapreduce paradigm on a single 4-core node
[Phoenix, HPCA 2007]" while MahoutSingle and ClusMahout run Mahout's
user-based CF on Hadoop over one and two 4-core nodes respectively.

This package is a faithful miniature of that stack:

* :mod:`repro.mapreduce.engine` executes real map / shuffle / reduce
  phases in-process, *measures* the CPU time of every task, and models
  the cluster wall-clock as the makespan of assigning those measured
  tasks to W workers (plus per-task scheduling overhead and an
  optional cross-node shuffle penalty).
* :mod:`repro.mapreduce.jobs` expresses the three KNN back-ends of
  Figure 7 -- exhaustive, Mahout-style inverted-index, and CRec's
  sampling iterations -- as jobs on that engine.

Results are therefore bit-for-bit real; only the parallel speedup is
modeled (the Figure 7 row of the "Paper ↔ module map" in
``docs/engines.md``).
"""

from repro.mapreduce.engine import (
    MapReduceEngine,
    MapReduceResult,
    PhaseStats,
    makespan,
)
from repro.mapreduce.jobs import (
    crec_knn_job,
    exhaustive_knn_job,
    mahout_knn_job,
)

__all__ = [
    "MapReduceEngine",
    "MapReduceResult",
    "PhaseStats",
    "makespan",
    "crec_knn_job",
    "exhaustive_knn_job",
    "mahout_knn_job",
]
