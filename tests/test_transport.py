"""Round-trip and rejection tests for the serialized shard protocol.

The wire contract: every message encodes to one versioned,
length-prefixed frame that decodes back to an equal message
(bit-identical arrays, float64 payloads included), and every malformed
input -- truncated frames, corrupt magic, foreign protocol versions,
unknown frame types, lying length fields -- is rejected with a typed
:class:`~repro.cluster.transport.TransportError` instead of garbage
state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.scoring import ShardSlice, WirePartial
from repro.cluster.transport import (
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    FrameType,
    HandoffData,
    HandoffRequest,
    Hello,
    JobSlices,
    MapUpdate,
    MetricsRequest,
    MetricsSnapshot,
    Partials,
    Ping,
    Pong,
    Ready,
    Shutdown,
    StatsReply,
    StatsRequest,
    TransportError,
    TruncatedFrameError,
    VersionMismatchError,
    VocabDelta,
    WireSample,
    WireSpan,
    WriteBatch,
    decode_message,
    encode_message,
)

# --- strategies -------------------------------------------------------------

ids64 = st.integers(min_value=0, max_value=2**53)
small_int = st.integers(min_value=0, max_value=1_000_000)


def int_arrays(max_size: int = 50):
    return st.lists(ids64, max_size=max_size).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )


def float_arrays(max_size: int = 50):
    # Scores are arbitrary float64 bit patterns as far as the wire is
    # concerned; NaN round-trips bit-exactly through the raw dump.
    return st.lists(
        st.floats(allow_nan=True, width=64), max_size=max_size
    ).map(lambda xs: np.asarray(xs, dtype=np.float64))


def slices():
    return st.builds(
        lambda job_index, k, liked, metric, cols, pairs: ShardSlice(
            job_index=job_index,
            candidate_ids=np.asarray([p[0] for p in pairs], dtype=np.int64),
            positions=np.asarray([p[1] for p in pairs], dtype=np.int64),
            query_cols=cols,
            liked_count=liked,
            metric=metric,
            k=k,
        ),
        job_index=small_int,
        k=st.integers(min_value=1, max_value=500),
        liked=small_int,
        metric=st.sampled_from(["cosine", "jaccard", "overlap", "söme-metric"]),
        cols=int_arrays(20),
        pairs=st.lists(st.tuples(ids64, ids64), max_size=20),
    )


def partials():
    return st.builds(
        lambda job_index, scored, pop: WirePartial(
            job_index=job_index,
            positions=np.asarray([p[0] for p in scored], dtype=np.int64),
            scores=np.asarray([p[1] for p in scored], dtype=np.float64),
            pop_cols=np.asarray([p[0] for p in pop], dtype=np.int64),
            pop_counts=np.asarray([p[1] for p in pop], dtype=np.int64),
        ),
        job_index=small_int,
        scored=st.lists(
            st.tuples(ids64, st.floats(allow_nan=True, width=64)), max_size=20
        ),
        pop=st.lists(st.tuples(ids64, ids64), max_size=20),
    )


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-level equality (NaN == NaN, -0.0 != 0.0 distinctions kept)."""
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _slices_equal(a: ShardSlice, b: ShardSlice) -> bool:
    return (
        a.job_index == b.job_index
        and a.k == b.k
        and a.liked_count == b.liked_count
        and a.metric == b.metric
        and _arrays_equal(a.query_cols, b.query_cols)
        and _arrays_equal(a.candidate_ids, b.candidate_ids)
        and _arrays_equal(a.positions, b.positions)
    )


def _partials_equal(a: WirePartial, b: WirePartial) -> bool:
    return (
        a.job_index == b.job_index
        and _arrays_equal(a.positions, b.positions)
        and _arrays_equal(a.scores, b.scores)
        and _arrays_equal(a.pop_cols, b.pop_cols)
        and _arrays_equal(a.pop_counts, b.pop_counts)
    )


def _roundtrip(msg):
    frame = encode_message(msg)
    decoded, consumed = decode_message(frame)
    assert consumed == len(frame)
    assert type(decoded) is type(msg)
    return decoded


# --- round trips ------------------------------------------------------------


class TestRoundTrips:
    @given(
        shard=small_int,
        num_shards=st.integers(1, 4096),
        num_buckets=small_int,
        map_version=small_int,
        flags=small_int,
    )
    def test_hello(self, shard, num_shards, num_buckets, map_version, flags):
        msg = Hello(
            shard=shard,
            num_shards=num_shards,
            num_buckets=num_buckets,
            map_version=map_version,
            flags=flags,
        )
        assert _roundtrip(msg) == msg

    @given(shard=small_int, pid=small_int)
    def test_ready(self, shard, pid):
        decoded = _roundtrip(Ready(shard=shard, pid=pid))
        assert decoded.shard == shard and decoded.pid == pid

    @given(base=small_int, items=int_arrays())
    def test_vocab_delta(self, base, items):
        decoded = _roundtrip(VocabDelta(base=base, items=items))
        assert decoded.base == base
        assert _arrays_equal(decoded.items, items)

    @given(n=st.integers(0, 40), users=int_arrays(40), items=int_arrays(40),
           values=float_arrays(40))
    def test_write_batch(self, n, users, items, values):
        n = min(n, users.size, items.size, values.size)
        batch = WriteBatch(
            user_ids=users[:n], items=items[:n], values=values[:n]
        )
        decoded = _roundtrip(batch)
        assert _arrays_equal(decoded.user_ids, batch.user_ids)
        assert _arrays_equal(decoded.items, batch.items)
        assert _arrays_equal(decoded.values, batch.values)

    @settings(max_examples=50)
    @given(batch_id=small_int, truncate=st.booleans(),
           pieces=st.lists(slices(), max_size=6), map_version=small_int)
    def test_job_slices(self, batch_id, truncate, pieces, map_version):
        msg = JobSlices(
            batch_id=batch_id,
            truncate=truncate,
            slices=tuple(pieces),
            map_version=map_version,
        )
        decoded = _roundtrip(msg)
        assert decoded.batch_id == batch_id
        assert decoded.truncate == truncate
        assert decoded.map_version == map_version
        assert len(decoded.slices) == len(pieces)
        for got, sent in zip(decoded.slices, pieces):
            assert _slices_equal(got, sent)

    @given(version=small_int)
    def test_map_update(self, version):
        assert _roundtrip(MapUpdate(version=version)).version == version

    @given(bucket=small_int, version=small_int)
    def test_handoff_request(self, bucket, version):
        decoded = _roundtrip(HandoffRequest(bucket=bucket, version=version))
        assert decoded.bucket == bucket and decoded.version == version

    @given(bucket=small_int, version=small_int, n=st.integers(0, 40),
           users=int_arrays(40), items=int_arrays(40), values=float_arrays(40))
    def test_handoff_data(self, bucket, version, n, users, items, values):
        n = min(n, users.size, items.size, values.size)
        msg = HandoffData(
            bucket=bucket,
            version=version,
            user_ids=users[:n],
            items=items[:n],
            values=values[:n],
        )
        decoded = _roundtrip(msg)
        assert decoded.bucket == bucket and decoded.version == version
        assert _arrays_equal(decoded.user_ids, msg.user_ids)
        assert _arrays_equal(decoded.items, msg.items)
        assert _arrays_equal(decoded.values, msg.values)

    @settings(max_examples=50)
    @given(batch_id=small_int, parts=st.lists(partials(), max_size=6))
    def test_partials(self, batch_id, parts):
        msg = Partials(batch_id=batch_id, partials=tuple(parts))
        decoded = _roundtrip(msg)
        assert decoded.batch_id == batch_id
        assert len(decoded.partials) == len(parts)
        for got, sent in zip(decoded.partials, parts):
            assert _partials_equal(got, sent)

    @given(values=st.lists(small_int, min_size=7, max_size=7))
    def test_stats_reply(self, values):
        decoded = _roundtrip(StatsReply(*values))
        assert decoded == StatsReply(*values)

    def test_empty_payload_messages(self):
        assert isinstance(_roundtrip(StatsRequest()), StatsRequest)
        assert isinstance(_roundtrip(Shutdown()), Shutdown)

    def test_frames_concatenate_cleanly(self):
        stream = b"".join(
            encode_message(m)
            for m in (Hello(0, 2), StatsRequest(), Shutdown())
        )
        offset = 0
        decoded = []
        while offset < len(stream):
            msg, offset = decode_message(stream, offset)
            decoded.append(type(msg))
        assert decoded == [Hello, StatsRequest, Shutdown]


# --- rejection --------------------------------------------------------------


class TestRejection:
    @given(parts=st.lists(partials(), max_size=4))
    @settings(max_examples=25)
    def test_any_truncation_is_rejected(self, parts):
        # Cutting a frame anywhere (header or payload) must raise the
        # typed truncation error, never mis-parse.
        frame = encode_message(Partials(batch_id=7, partials=tuple(parts)))
        for cut in range(len(frame)):
            with pytest.raises(TruncatedFrameError):
                decode_message(frame[:cut])

    def test_bad_magic(self):
        frame = bytearray(encode_message(Shutdown()))
        frame[0:2] = b"XX"
        with pytest.raises(TransportError, match="magic"):
            decode_message(bytes(frame))

    def test_version_mismatch(self):
        frame = bytearray(encode_message(Shutdown()))
        assert frame[2] == PROTOCOL_VERSION
        frame[2] = PROTOCOL_VERSION + 1
        with pytest.raises(VersionMismatchError):
            decode_message(bytes(frame))

    def test_unknown_frame_type(self):
        frame = bytearray(encode_message(Shutdown()))
        frame[3] = 250  # not a FrameType
        with pytest.raises(TransportError, match="unknown frame type"):
            decode_message(bytes(frame))

    def test_length_field_overrunning_buffer(self):
        frame = bytearray(encode_message(Hello(1, 2)))
        frame[4:8] = (9999).to_bytes(4, "big")  # claims more than present
        with pytest.raises(TruncatedFrameError):
            decode_message(bytes(frame))

    def test_payload_underrun_is_rejected(self):
        # Declared length larger than the message's real payload, with
        # padding appended so the buffer is long enough: the parser
        # must notice the declared/parsed size mismatch.
        payload = Hello(1, 2)._pack() + b"\x00" * 4
        frame = (
            PROTOCOL_MAGIC
            + bytes([PROTOCOL_VERSION, int(FrameType.HELLO)])
            + len(payload).to_bytes(4, "big")
            + payload
        )
        with pytest.raises(TransportError, match="declared"):
            decode_message(frame)

    def test_truncated_handoff_frame_rejected_everywhere(self):
        # A handoff frame cut at any byte -- header or payload -- must
        # raise the typed truncation error, never half-apply a bucket.
        frame = encode_message(
            HandoffData(
                bucket=3,
                version=2,
                user_ids=np.arange(4, dtype=np.int64),
                items=np.arange(4, dtype=np.int64),
                values=np.ones(4, dtype=np.float64),
            )
        )
        for cut in range(len(frame)):
            with pytest.raises(TruncatedFrameError):
                decode_message(frame[:cut])

    def test_mismatched_handoff_arrays_rejected(self):
        msg = HandoffData(
            bucket=0,
            version=1,
            user_ids=np.arange(3, dtype=np.int64),
            items=np.arange(2, dtype=np.int64),
            values=np.zeros(3, dtype=np.float64),
        )
        with pytest.raises(TransportError, match="disagree"):
            decode_message(encode_message(msg))

    def test_mismatched_write_batch_arrays(self):
        batch = WriteBatch(
            user_ids=np.arange(3, dtype=np.int64),
            items=np.arange(2, dtype=np.int64),
            values=np.zeros(3, dtype=np.float64),
        )
        with pytest.raises(TransportError, match="disagree"):
            decode_message(encode_message(batch))

    def test_unknown_dtype_code_in_array(self):
        frame = bytearray(encode_message(VocabDelta(0, np.arange(3))))
        # The array header's dtype code sits right after the base
        # scalar inside the payload.
        header = 8  # frame header
        frame[header + 8] = ord("x")
        with pytest.raises(TransportError, match="dtype"):
            decode_message(bytes(frame))

    def test_non_message_rejected_at_encode(self):
        with pytest.raises(TransportError, match="not a protocol message"):
            encode_message(object())  # type: ignore[arg-type]

    def test_channel_fails_fast_on_desynced_stream(self):
        # A desynced-but-alive peer must produce a typed error, not a
        # blocking read of a garbage payload length.
        import socket

        from repro.cluster.transport import Channel

        left, right = socket.socketpair()
        try:
            left.sendall(b"GARBAGE-" * 2)  # 16 bytes: a full bogus header
            with pytest.raises(TransportError, match="magic"):
                Channel(right).recv()
        finally:
            left.close()
            right.close()

    def test_channel_rejects_foreign_version_before_payload_read(self):
        import socket

        from repro.cluster.transport import Channel

        frame = bytearray(encode_message(Hello(0, 1)))
        frame[2] = PROTOCOL_VERSION + 3
        left, right = socket.socketpair()
        try:
            left.sendall(bytes(frame))
            with pytest.raises(VersionMismatchError):
                Channel(right).recv()
        finally:
            left.close()
            right.close()


# --- liveness probes --------------------------------------------------------


class TestLivenessFrames:
    """Ping/Pong: the supervisor's active health probe."""

    def test_protocol_version_is_7(self):
        # Tripwire: a frame layout change without a version bump (or a
        # bump without a layout change) is a protocol bug.
        assert PROTOCOL_VERSION == 7
        assert FrameType.PING in FrameType
        assert FrameType.PONG in FrameType
        assert FrameType.METRICS_REQUEST in FrameType
        assert FrameType.METRICS_SNAPSHOT in FrameType
        assert FrameType.SPLIT_BUCKETS in FrameType

    @given(nonce=ids64)
    def test_ping_round_trip(self, nonce):
        decoded = _roundtrip(Ping(nonce=nonce))
        assert decoded == Ping(nonce=nonce)

    @given(nonce=ids64, shard=small_int, pid=small_int)
    def test_pong_round_trip(self, nonce, shard, pid):
        decoded = _roundtrip(Pong(nonce=nonce, shard=shard, pid=pid))
        assert decoded.nonce == nonce
        assert decoded.shard == shard and decoded.pid == pid

    @given(nonce=ids64, shard=small_int, pid=small_int)
    @settings(max_examples=25)
    def test_any_probe_truncation_is_rejected(self, nonce, shard, pid):
        # Probe frames travel on the same stream as job frames, so a
        # cut probe must fail typed -- never desync the channel.
        for msg in (Ping(nonce=nonce), Pong(nonce=nonce, shard=shard, pid=pid)):
            frame = encode_message(msg)
            for cut in range(len(frame)):
                with pytest.raises(TruncatedFrameError):
                    decode_message(frame[:cut])

    def test_pong_payload_underrun_rejected(self):
        # A Pong lying about its length (claims more scalars than it
        # carries) is malformed, not a shorter Ping.
        payload = Ping(nonce=9)._pack()
        frame = (
            PROTOCOL_MAGIC
            + bytes([PROTOCOL_VERSION, FrameType.PONG])
            + len(payload).to_bytes(4, "big")
            + payload
        )
        with pytest.raises(TransportError):
            decode_message(frame)

    def test_host_answers_ping_before_handshake(self):
        # The probe must work on a worker that has not completed (or
        # has just restarted into) its handshake -- liveness checking
        # cannot depend on the state it is checking for.
        import os

        from repro.cluster.worker import ShardHost

        host = ShardHost(3)
        reply = host.handle(Ping(nonce=41))
        assert reply == Pong(nonce=41, shard=3, pid=os.getpid())

    def test_respawned_host_rejects_stale_epoch_jobs(self):
        # The recovery contract: a replacement worker handshakes at the
        # *current* epoch, so frames scattered under the old map (from
        # before the worker died) must be re-stamped by the retry path,
        # never replayed verbatim.
        from repro.cluster.worker import ShardHost

        host = ShardHost(0)
        host.handle(Hello(shard=0, num_shards=2, num_buckets=8, map_version=4))
        stale = JobSlices(batch_id=1, truncate=True, slices=(), map_version=3)
        with pytest.raises(TransportError, match="stale map version"):
            host.handle(stale)
        fresh = JobSlices(batch_id=1, truncate=True, slices=(), map_version=4)
        assert host.handle(fresh).batch_id == 1


# --- observability frames ----------------------------------------------------


class TestObservabilityFrames:
    """Hello flags, trace stamps, WireSpan/WireSample round trips.

    Telemetry neutrality matters here: an untraced JobSlices and a
    metrics-off Hello carry only zeroed telemetry fields, and Partials
    with no spans carry exactly one extra zero scalar -- no per-partial
    overhead.
    """

    @given(flags=st.integers(0, 2**16))
    def test_hello_flags_round_trip(self, flags):
        decoded = _roundtrip(Hello(shard=1, num_shards=4, flags=flags))
        assert decoded.flags == flags

    @given(trace_id=ids64, trace_parent=ids64)
    def test_job_slices_trace_stamp_round_trip(self, trace_id, trace_parent):
        msg = JobSlices(
            batch_id=3,
            truncate=True,
            slices=(),
            map_version=2,
            trace_id=trace_id,
            trace_parent=trace_parent,
        )
        decoded = _roundtrip(msg)
        assert decoded.trace_id == trace_id
        assert decoded.trace_parent == trace_parent

    @given(
        name=st.text(max_size=30),
        span_id=ids64,
        parent_id=ids64,
        start_us=ids64,
        dur_us=ids64,
        pid=small_int,
    )
    @settings(max_examples=50)
    def test_partials_spans_round_trip(
        self, name, span_id, parent_id, start_us, dur_us, pid
    ):
        span = WireSpan(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start_us=start_us,
            dur_us=dur_us,
            pid=pid,
        )
        decoded = _roundtrip(
            Partials(batch_id=9, partials=(), spans=(span, span))
        )
        assert decoded.spans == (span, span)

    def test_untraced_partials_carry_no_span_bytes(self):
        frame = encode_message(Partials(batch_id=1, partials=()))
        # batch_id + partial count + span count: three packed scalars.
        header = 8  # magic(2) + version + type + length(4)
        assert len(frame) == header + 3 * 8

    def test_metrics_request_round_trip(self):
        assert _roundtrip(MetricsRequest()) == MetricsRequest()

    @given(
        kind=st.integers(0, 2),
        name=st.text(max_size=30),
        labels=st.text(max_size=30),
        values=float_arrays(10),
        bounds=float_arrays(6),
    )
    @settings(max_examples=50)
    def test_metrics_snapshot_round_trip(
        self, kind, name, labels, values, bounds
    ):
        sample = WireSample(
            kind=kind, name=name, labels=labels, values=values, bounds=bounds
        )
        decoded = _roundtrip(MetricsSnapshot(shard=5, samples=(sample,)))
        assert decoded.shard == 5
        got = decoded.samples[0]
        assert got.kind == kind and got.name == name and got.labels == labels
        assert _arrays_equal(got.values, values)
        assert _arrays_equal(got.bounds, bounds)

    def test_unknown_sample_kind_rejected(self):
        with pytest.raises(TransportError, match="unknown metric kind"):
            WireSample(
                kind=3,
                name="x",
                labels="",
                values=np.zeros(1),
                bounds=np.zeros(0),
            )

    @settings(max_examples=20)
    @given(trace_id=ids64)
    def test_traced_frame_truncation_rejected(self, trace_id):
        span = WireSpan(
            name="shard0:score",
            span_id=7,
            parent_id=trace_id,
            start_us=1,
            dur_us=2,
            pid=3,
        )
        frame = encode_message(
            Partials(batch_id=1, partials=(), spans=(span,))
        )
        for cut in range(8, len(frame)):
            with pytest.raises(TransportError):
                decode_message(frame[:cut])
