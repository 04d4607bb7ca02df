"""Sizes and frozen constants of the suite.

Everything here is count-based, so a window is the same work on every
commit.  ``FULL`` is sized for the run budget in ``BENCHMARK.json``
(about 25 s of wall clock per run, set-ups included); ``SMOKE``
only proves the plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WORKLOADS = ("inproc_serve", "http_reads", "http_roundtrip", "cold_ingest")

#: Seed of the synthetic population and of the deployment's own random
#: streams (see ``program``): fixtures, not something ``--seed`` re-rolls.
FIXTURE_SEED = 7

#: Front-door cache settings of the two HTTP workloads.  The zipf(1.1)
#: working set of ``http_reads`` is larger than the capacity, so hits
#: *and* evictions occur; the TTL outlives any run.
CACHE_TTL_S = 300.0
CACHE_CAPACITY = 1024
READ_ZIPF_EXPONENT = 1.1

#: Fewest measured closed-loop windows / open-loop windows per run.
MIN_CLOSED_WINDOWS = 5
MIN_OPEN_WINDOWS = 4
#: ``--seconds`` for which the minimum counts are the whole run.  A
#: longer run measures proportionally more windows; it never measures
#: "until the clock says stop", which would be different work on a
#: faster commit.
NOMINAL_SECONDS = 10


def scaled(minimum: int, seconds: float) -> int:
    """Window (or repeat) count for a run of ``seconds``."""
    return max(minimum, math.ceil(minimum * seconds / NOMINAL_SECONDS))


@dataclass(frozen=True)
class Sizes:
    """One scale of the suite."""

    users: int
    catalog: int
    writes: int
    #: Fixed pool of uniformly drawn users the warm workloads cycle over.
    pool: int
    #: First requests after the load, largest profiles first.
    cold_wave: int
    #: Set-ups per run (fresh child each); the last one is measured.
    setups: int
    #: Fresh ingest-and-first-wave children per ``cold_ingest`` run.
    cold_repeats: int
    #: Operations per closed-loop window, by workload.
    window: dict[str, int]
    #: Arrivals per open-loop window, by workload.
    open_window: dict[str, int]
    #: Open-loop arrival rate (1/s), by workload: 30-40 % of the
    #: closed-loop ``rps`` measured on the authoring host (2 cores),
    #: then frozen so the offered load is the same on every commit.
    open_rate: dict[str, float]
    #: Parity fixture: (users, catalog, writes, requests).
    parity: tuple[int, int, int, int]


FULL = Sizes(
    users=20_000,
    catalog=10_000,
    writes=400_000,
    pool=1024,
    cold_wave=256,
    setups=3,
    cold_repeats=5,
    window={
        "inproc_serve": 768,
        "http_reads": 1536,
        "http_roundtrip": 384,
        "cold_ingest": 256,
    },
    open_window={
        "inproc_serve": 384,
        "http_reads": 640,
        "http_roundtrip": 224,
        "cold_ingest": 256,
    },
    open_rate={
        "inproc_serve": 250.0,
        "http_reads": 500.0,
        "http_roundtrip": 160.0,
        "cold_ingest": 200.0,
    },
    parity=(2_000, 1_000, 40_000, 500),
)

SMOKE = Sizes(
    users=600,
    catalog=300,
    writes=6_000,
    pool=64,
    cold_wave=32,
    setups=1,
    cold_repeats=2,
    window={name: 64 for name in WORKLOADS},
    open_window={name: 32 for name in WORKLOADS},
    open_rate={name: 200.0 for name in WORKLOADS},
    parity=(200, 100, 2_000, 40),
)
