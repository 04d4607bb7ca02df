"""The wire bytes of a personalization response, pinned.

Two guards around the fragment-splicing renderer:

* golden digests, captured before the renderer was reworked, over the
  bodies ``render_online_response`` puts on the wire -- a change to the
  gzip assembly that moves a single byte fails here;
* properties tying the three ways of rendering one job together: the
  body-less metering call books exactly the sizes of the body the
  body-keeping call returns, and the engine job renders to the same
  bytes as the equivalent wire job.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import HyRecWidget
from repro.core.config import HyRecConfig
from repro.core.jobs import PersonalizationJob
from repro.core.server import HyRecServer
from repro.datasets.synthetic import StreamingLoader, SyntheticSpec
from repro.messages import encode_json, gzip_decompress

#: sha256 over every ``/online`` body of :func:`golden_digest`, captured
#: at the commit before the coalescing writer (PR 11's tree).
GOLDEN = {
    True: "da310444601197d656e7ec2e568b6cf2a7c095dd900613cf5186787759c11ba2",
    False: "6fb1819d5f6561ab21cb4fe5754167225469e4611450badb1ce6f393d1ae21ee",
}


def golden_digest(compress: bool) -> str:
    """Two passes of full round trips over a seeded 200-user population.

    ``reshuffle_every`` puts several token epochs inside the run, and
    the zipf population puts profiles on both sides of the renderer's
    splice threshold.
    """
    server = HyRecServer(
        HyRecConfig(k=5, r=5, compress=compress, reshuffle_every=150), seed=11
    )
    spec = SyntheticSpec(num_users=200, catalog=120, total_writes=6000, seed=11)
    StreamingLoader(spec).load_into(server)
    widget = HyRecWidget()
    sha = hashlib.sha256()
    users = sorted(server.profiles.users())
    for _ in range(2):
        for uid in users:
            job = server.handle_online_request(uid)
            body = server.render_online_response(job)
            sha.update(len(body).to_bytes(4, "big"))
            sha.update(body)
            server.handle_knn_update(uid, widget.process_job(job))
    reading = server.meter.reading("server->client")
    sha.update(repr((reading.messages, reading.raw_bytes, reading.wire_bytes)).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("compress", [True, False])
def test_online_bodies_match_golden_digest(compress):
    assert golden_digest(compress) == GOLDEN[compress]


# --- one job, three renderings ------------------------------------------------

#: Ratings per profile: an entry is 10-11 bytes of JSON, so 25 of them
#: render to 251-ish bytes and 26 to 261-ish -- either side of the
#: 256-byte splice threshold; the rest are the small and large ends.
PROFILE_SIZES = st.sampled_from([0, 1, 3, 20, 23, 24, 25, 26, 27, 30, 60, 200])


def _server_with(sizes: list[int], compress: bool, engine: str) -> HyRecServer:
    """User 0 is the requester; users 1.. are everyone else."""
    server = HyRecServer(HyRecConfig(k=4, r=4, compress=compress, engine=engine), seed=3)
    for uid, size in enumerate(sizes):
        server.register_user(uid)
        for offset in range(size):
            item = 100 + (uid * 7 + offset * 3) % 997
            server.record_rating(uid, item, float((uid + offset) % 3 != 0))
    return server


def _meter(server: HyRecServer) -> tuple[int, int, int]:
    reading = server.meter.reading("server->client")
    return reading.messages, reading.raw_bytes, reading.wire_bytes


@settings(max_examples=60, deadline=None)
@given(
    own=PROFILE_SIZES,
    others=st.lists(PROFILE_SIZES, min_size=0, max_size=14),
    compress=st.booleans(),
)
def test_sizes_only_books_what_the_body_weighs(own, others, compress):
    server = _server_with([own] + others, compress, "vectorized")
    job = server.handle_engine_request(0)
    before = _meter(server)
    assert server.render_engine_response(job, body=False) is None
    metered = _meter(server)
    body = server.render_engine_response(job)
    raw = gzip_decompress(body) if compress else body
    assert metered == (before[0] + 1, before[1] + len(raw), before[2] + len(body))
    assert _meter(server) == (
        metered[0] + 1,
        metered[1] + len(raw),
        metered[2] + len(body),
    )


@settings(max_examples=60, deadline=None)
@given(
    own=PROFILE_SIZES,
    others=st.lists(PROFILE_SIZES, min_size=0, max_size=14),
    compress=st.booleans(),
)
def test_engine_job_renders_the_wire_jobs_bytes(own, others, compress):
    server = _server_with([own] + others, compress, "vectorized")
    engine_job = server.handle_engine_request(0)
    wire_job = PersonalizationJob(
        user_token=engine_job.user_token,
        user_profile=server.profiles.get(0).to_payload(),
        candidates={
            token: server.profiles.get(uid).to_payload()
            for token, uid in zip(engine_job.candidate_tokens, engine_job.candidate_ids)
        },
        k=engine_job.k,
        r=engine_job.r,
        metric=engine_job.metric,
    )
    engine_body = server.render_engine_response(engine_job)
    assert engine_body == server.render_online_response(wire_job)
    # Rendering twice is rendering the same bytes: nothing a render
    # remembers (the cached key runs) may leak into the next one.
    assert engine_body == server.render_engine_response(engine_job)
    raw = gzip_decompress(engine_body) if compress else engine_body
    assert raw == encode_json(wire_job.to_payload())


def test_empty_candidate_set_renders_an_empty_map():
    server = _server_with([30], True, "vectorized")
    job = server.handle_engine_request(0)
    assert job.candidate_ids == ()
    body = server.render_engine_response(job)
    assert gzip_decompress(body).startswith(b'{"c":{},"k":4,')
    before = _meter(server)
    server.render_engine_response(job, body=False)
    after = _meter(server)
    assert after[1] - before[1] == len(gzip_decompress(body))
    assert after[2] - before[2] == len(body)
