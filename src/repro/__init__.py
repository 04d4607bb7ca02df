"""HyRec reproduction: browser-offloaded collaborative filtering.

A from-scratch Python implementation of

    Boutet, Frey, Guerraoui, Kermarrec, Patra.
    "HyRec: Leveraging Browsers for Scalable Recommenders."
    ACM Middleware 2014.

plus every baseline and substrate its evaluation depends on.  The
"Paper ↔ module map" in ``docs/engines.md`` names the module that
reproduces each table and figure; ``docs/architecture.md`` describes
the system.

Quickstart::

    from repro import HyRecSystem, load_dataset

    trace = load_dataset("ML1", scale=0.1, seed=42)
    system = HyRecSystem()
    system.replay(trace)
    print(system.recommend(user_id=0, n=5))
"""

from repro.core import (
    AnonymousMapping,
    HyRecConfig,
    HyRecServer,
    HyRecSystem,
    HyRecWidget,
    JobResult,
    Neighbor,
    PersonalizationJob,
    Profile,
    Recommendation,
    RequestOutcome,
    WebApi,
    cosine,
    jaccard,
    knn_select,
    overlap,
    recommend_most_popular,
)
from repro.datasets import (
    DIGG,
    ML1,
    ML2,
    ML3,
    Rating,
    Trace,
    binarize_trace,
    generate_digg,
    generate_movielens,
    load_dataset,
    time_split,
)

__version__ = "1.0.0"

__all__ = [
    "AnonymousMapping",
    "HyRecConfig",
    "HyRecServer",
    "HyRecSystem",
    "HyRecWidget",
    "JobResult",
    "Neighbor",
    "PersonalizationJob",
    "Profile",
    "Recommendation",
    "RequestOutcome",
    "WebApi",
    "cosine",
    "jaccard",
    "knn_select",
    "overlap",
    "recommend_most_popular",
    "DIGG",
    "ML1",
    "ML2",
    "ML3",
    "Rating",
    "Trace",
    "binarize_trace",
    "generate_digg",
    "generate_movielens",
    "load_dataset",
    "time_split",
    "__version__",
]
