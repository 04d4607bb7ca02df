"""Building the program under test: population, cold wave, warm-up.

Shared by the child process that hosts the program for the untraced
run (``host.py``) and by the in-process traced run (``traced.py``), so
both measure the same deployment.  The program only ever sees inputs
generated here.

What ``--seed`` draws is the *order and timing of the traffic*: the order
of the warm pool, the order of the cold wave after its first request,
and the zipf read stream.  The *deployment* is a fixture
(``spec.FIXTURE_SEED``), like the paper's fixed ML1 and Digg traces: the
population, the server's own random streams (bootstrap neighbours,
candidate sampling, tokens) and the membership of the warm pool.  With
zipf(1.1) activity a handful of users carry most of the bytes, and KNN
convergence is chaotic in its starting point: re-rolling the population
moved ``wire_bytes_per_req`` by +-7 % from seed to seed, re-rolling only
the KNN bootstrap or only the pool's members by +-4 % -- each more than
the metric's bound, none exercising a single extra code path.  Draws
that remain are stratified, so every seed sees the same distribution.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core.config import HyRecConfig
from repro.core.system import HyRecSystem
from repro.datasets.synthetic import StreamingLoader, SyntheticSpec, zipf_cdf
from repro.messages import encode_json
from repro.web import AsyncHyRecServer

from spec import (
    CACHE_CAPACITY,
    CACHE_TTL_S,
    FIXTURE_SEED,
    READ_ZIPF_EXPONENT,
    Sizes,
)


def loader_for(sizes: Sizes) -> StreamingLoader:
    return StreamingLoader(
        SyntheticSpec(
            num_users=sizes.users,
            catalog=sizes.catalog,
            total_writes=sizes.writes,
            seed=FIXTURE_SEED,
        )
    )


def load(sizes: Sizes, config: HyRecConfig | None = None) -> tuple[HyRecSystem, float]:
    """A fresh deployment with the population streamed through
    ``HyRecServer.record_rating``; returns it and the ingest seconds."""
    system = HyRecSystem(
        config if config is not None else HyRecConfig(), seed=FIXTURE_SEED
    )
    loader = loader_for(sizes)
    start = time.perf_counter()
    loader.load_into(system.server)
    return system, time.perf_counter() - start


def by_activity(system: HyRecSystem) -> list[int]:
    """Every user, most ratings first (ties by id)."""
    profiles = system.server.profiles
    return sorted(profiles.users(), key=lambda uid: (-len(profiles.get(uid)), uid))


def largest_profiles(system: HyRecSystem, count: int, seed: int) -> list[int]:
    """The cold wave's users: the ``count`` largest profiles.

    The largest goes first -- a request is only a *cold* one if it is
    heavy enough to need the postings index, which that one is -- and the
    seed orders the rest.
    """
    users = by_activity(system)[:count]
    rest = users[1:]
    np.random.default_rng([seed, 3]).shuffle(rest)
    return users[:1] + rest


def draw_pool(system: HyRecSystem, sizes: Sizes, seed: int) -> list[int]:
    """The fixed pool of users the warm workloads cycle over.

    Uniform over users, but stratified by activity: every ``stride``-th
    user of the activity ranking (a plain uniform draw of 1024 from a
    zipf population has a mean profile size anywhere between 8 and 20).
    The seed draws the order.
    """
    ranked = by_activity(system)
    pool = ranked[:: max(1, len(ranked) // sizes.pool)][: sizes.pool]
    np.random.default_rng([seed, 1]).shuffle(pool)
    return pool


def warm(system: HyRecSystem, pool: list[int]) -> dict[int, str]:
    """One full round trip per pool user; returns each user's
    ``/neighbors`` body, so the load generator never runs KNN itself."""
    return {
        uid: encode_json(system.request(uid).result.to_payload()).decode("ascii")
        for uid in pool
    }


def zipf_reads(ranked: list[int], count: int, seed: int, window: int) -> list[int]:
    """``count`` uids, zipf over the activity ranking: whoever writes
    most also reads most.

    A stratified draw: the inverse zipf CDF of ``count`` evenly spaced
    points from a seeded offset, in seeded order.  Every window then holds
    each hot user as often as the law says (to within one request), and
    the seed and the window index only move the cold tail and the order.
    """
    rng = np.random.default_rng([seed, 2, window])
    points = (np.arange(count) + rng.random()) / count
    rng.shuffle(points)
    ranks = np.searchsorted(zipf_cdf(len(ranked), READ_ZIPF_EXPONENT), points, side="right")
    return np.asarray(ranked)[ranks].tolist()


def cycle(pool: list, index: int, size: int) -> list:
    """Window ``index`` of an endless pass over ``pool``."""
    begin = index * size
    return [pool[(begin + offset) % len(pool)] for offset in range(size)]


def operations(
    workload: str,
    seed: int,
    pool: list[int],
    bodies: list[str] | None = None,
    ranked: list[int] | None = None,
) -> Callable[[int, int], list]:
    """``ops(index, count)``: window ``index`` of a workload's traffic.

    In-process windows are lists of uids; HTTP windows are lists of
    ``(uid, post_body_or_None)``.  ``bodies`` runs parallel to ``pool``.
    """
    if workload == "http_reads":
        return lambda index, count: [
            (uid, None) for uid in zipf_reads(ranked, count, seed, index)
        ]
    if workload == "http_roundtrip":
        pairs = [(uid, body.encode("ascii")) for uid, body in zip(pool, bodies)]
        return lambda index, count: cycle(pairs, index, count)
    return lambda index, count: cycle(pool, index, count)


def front_door(system: HyRecSystem) -> AsyncHyRecServer:
    """The asyncio front door with the suite's cache settings."""
    return AsyncHyRecServer(
        system.server, cache_ttl=CACHE_TTL_S, cache_capacity=CACHE_CAPACITY
    )
