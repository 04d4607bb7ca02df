"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.config import HyRecConfig
from repro.core.server import HyRecServer
from repro.core.system import HyRecSystem
from repro.datasets import load_dataset
from repro.datasets.schema import Rating, Trace

# Tier-1 is decided by the code, not by the draw: every property test
# replays the same examples on every run.  The "fuzz" profile searches
# afresh (``pytest tests --hypothesis-profile=fuzz``, a non-gating CI
# job) and prints a reproduction blob for anything it falsifies.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def ml1_small() -> Trace:
    """A tiny binarized ML1-shaped trace shared across tests."""
    return load_dataset("ML1", scale=0.03, seed=1234)


@pytest.fixture(scope="session")
def digg_small() -> Trace:
    """A tiny binarized Digg-shaped trace shared across tests."""
    return load_dataset("Digg", scale=0.003, seed=1234)


@pytest.fixture()
def toy_trace() -> Trace:
    """A hand-built 4-user trace with known structure.

    Users 0 and 1 share items 10, 11; users 2 and 3 share items 20,
    21; user 0 also disliked item 20.
    """
    ratings = [
        Rating(timestamp=1.0, user=0, item=10, value=1.0),
        Rating(timestamp=2.0, user=0, item=11, value=1.0),
        Rating(timestamp=3.0, user=0, item=20, value=0.0),
        Rating(timestamp=4.0, user=1, item=10, value=1.0),
        Rating(timestamp=5.0, user=1, item=11, value=1.0),
        Rating(timestamp=6.0, user=2, item=20, value=1.0),
        Rating(timestamp=7.0, user=2, item=21, value=1.0),
        Rating(timestamp=8.0, user=3, item=20, value=1.0),
        Rating(timestamp=9.0, user=3, item=21, value=1.0),
    ]
    return Trace("toy", ratings)


@pytest.fixture()
def loaded_server(toy_trace: Trace) -> HyRecServer:
    """A server with the toy trace's ratings recorded."""
    server = HyRecServer(HyRecConfig(k=2, r=3), seed=7)
    for rating in toy_trace:
        server.record_rating(rating.user, rating.item, rating.value, rating.timestamp)
    return server


@pytest.fixture()
def replayed_system(ml1_small: Trace) -> HyRecSystem:
    """A HyRec system that has replayed the small ML1 trace."""
    system = HyRecSystem(HyRecConfig(k=5, r=5), seed=99)
    system.replay(ml1_small)
    return system
