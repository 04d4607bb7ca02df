"""The serialized shard protocol: versioned, length-prefixed frames.

This is the wire format between the cluster coordinator (parent
process) and its shard workers.  Every message is one frame::

    +-------+---------+------+----------------+---------------+
    | magic | version | type | payload length |    payload    |
    | 2 B   | 1 B     | 1 B  | 4 B big-endian | length bytes  |
    +-------+---------+------+----------------+---------------+

``magic`` is ``b"HY"``, ``version`` is :data:`PROTOCOL_VERSION`, and
``type`` selects one of the :class:`FrameType` messages.  Payloads are
flat ``struct``-packed scalars plus raw little-endian numpy array
dumps -- no pickling, so a frame means the same thing to any peer
speaking the same protocol version, and a malicious or corrupt peer
can at worst produce a :class:`TransportError`, never code execution.

Message flow (parent ``->`` worker unless noted):

* :class:`Hello` / :class:`Ready` (worker ``->`` parent) -- lifecycle
  handshake; pins the shard index and protocol version.
* :class:`VocabDelta` -- append-only replication of the shared
  :class:`~repro.engine.liked_matrix.ItemVocabulary`: the items
  assigned to columns ``[base, base + len(items))``, in column order.
  Deltas are cumulative and strictly ordered, so a replica that
  applies every delta holds the parent's exact ``item -> column``
  mapping.
* :class:`WriteBatch` -- placement-routed profile writes for the
  shard's owned users, in table-write order.  Workers rebuild the
  like/un-like transition locally (their replica saw every prior
  write of the user), so ``previous`` values never travel.
* :class:`JobSlices` -- a batch's :class:`~repro.cluster.scoring.ShardSlice`\\ s
  for this shard; :class:`Partials` (worker ``->`` parent) carries the
  per-job :class:`~repro.cluster.scoring.WirePartial` results back.
* :class:`StatsRequest` / :class:`StatsReply` (worker ``->`` parent)
  -- the per-worker load/churn counters ``ServerStats`` surfaces.
* :class:`MapUpdate` -- routing-epoch broadcast: the placement map's
  version after a migration.  Workers track the epoch and reject
  job frames stamped with a stale one, so a frame routed under an
  outdated map can never touch a moved bucket silently.
* :class:`HandoffRequest` / :class:`HandoffData` -- the shard-handoff
  path of a bucket migration: the parent asks a bucket's old owner to
  extract-and-evict it; the owner answers with the bucket's write
  replay (current value per rated item, the warm-start form), which
  the parent forwards verbatim to the new owner.  Both frames carry
  the epoch the move creates; workers insist it advances their local
  epoch by exactly one (a skipped epoch means a lost frame).
* :class:`SplitBuckets` -- elastic topology: refine the bucket
  space to a multiple of its current size.  Splitting relies on the
  modulo stability of the bucket hash (``mix(uid) % kN`` is congruent
  to ``mix(uid) % N`` mod ``N``), so no user changes owner at split
  time and no data moves; the frame carries the new bucket count plus
  the epoch the split creates, validated handoff-style (advance by
  exactly one).  Shard joins and retires need no frame: a join is an
  ordinary :class:`Hello`, a retire an ordinary :class:`Shutdown`.
* :class:`Ping` / :class:`Pong` (worker ``->`` parent) -- liveness
  probe: the worker echoes the parent's nonce along with its shard
  index and pid.  The :class:`~repro.cluster.supervisor.WorkerSupervisor`
  uses the round-trip time as the per-worker health signal surfaced
  in ``ServerStats``.
* :class:`MetricsRequest` / :class:`MetricsSnapshot` (worker ``->``
  parent) -- observability pull: the worker flattens its local
  :class:`~repro.obs.registry.MetricsRegistry` snapshot into
  :class:`WireSample` rows (counters, gauges, and histograms with
  their bucket bounds), which the parent merges into the
  deployment-wide ``/metrics`` exposition.  Telemetry rides its own
  frames -- and trace context its own :class:`JobSlices` /
  :class:`Partials` fields -- so request bytes and the Figure-10 wire
  meters are untouched by observability.
* :class:`Shutdown` -- clean worker exit.

Framing errors are typed: short reads raise
:class:`TruncatedFrameError`, a foreign ``version`` byte raises
:class:`VersionMismatchError`, and anything else malformed (bad magic,
unknown type, payload over- or under-runs) raises
:class:`TransportError`.  ``tests/test_transport.py`` round-trips
every message and fuzzes the rejection paths.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from repro.cluster.scoring import ShardSlice, WirePartial

PROTOCOL_MAGIC = b"HY"
#: Workers fork from the same build as their coordinator, so exactly
#: one version is spoken; a foreign version byte is a framing error.
PROTOCOL_VERSION = 7

#: Hello ``flags`` bit: the worker should run a live metrics registry
#: and answer :class:`MetricsRequest` with non-empty snapshots.
HELLO_FLAG_METRICS = 1

#: Upper bound on one frame's payload (a sanity valve against corrupt
#: length fields, not a protocol feature): 1 GiB.
MAX_PAYLOAD = 1 << 30

_HEADER = struct.Struct(">2sBBI")


class TransportError(Exception):
    """A frame or payload violated the shard protocol."""


class TruncatedFrameError(TransportError):
    """The byte stream ended inside a frame header or payload."""


class VersionMismatchError(TransportError):
    """The peer speaks a different protocol version."""


class ConnectionClosedError(TransportError):
    """The peer closed the connection between frames (clean EOF)."""


class FrameType(enum.IntEnum):
    """Frame type byte -> message class (see :data:`_MESSAGE_TYPES`)."""

    HELLO = 1
    READY = 2
    VOCAB_DELTA = 3
    WRITE_BATCH = 4
    JOB_SLICES = 5
    PARTIALS = 6
    STATS_REQUEST = 7
    STATS_REPLY = 8
    SHUTDOWN = 9
    MAP_UPDATE = 10
    HANDOFF_REQUEST = 11
    HANDOFF_DATA = 12
    PING = 13
    PONG = 14
    METRICS_REQUEST = 15
    METRICS_SNAPSHOT = 16
    SPLIT_BUCKETS = 17


# --- payload primitives -----------------------------------------------------

_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")
_U32 = struct.Struct(">I")
_I64_SCALAR = struct.Struct(">q")


def _pack_scalar(value: int) -> bytes:
    return _I64_SCALAR.pack(int(value))


def _unpack_scalar(buf: bytes, offset: int) -> tuple[int, int]:
    if offset + 8 > len(buf):
        raise TruncatedFrameError("payload ended inside a scalar")
    return _I64_SCALAR.unpack_from(buf, offset)[0], offset + 8


def _pack_array(arr: np.ndarray) -> bytes:
    """``code + length + raw little-endian dump`` of an int64/float64 array."""
    if arr.dtype.kind == "f":
        code, dtype = b"d", _F64
    else:
        code, dtype = b"q", _I64
    data = np.ascontiguousarray(arr, dtype=dtype).tobytes()
    return code + _U32.pack(arr.size) + data


def _unpack_array(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    if offset + 5 > len(buf):
        raise TruncatedFrameError("payload ended inside an array header")
    code = buf[offset : offset + 1]
    if code == b"q":
        dtype = _I64
    elif code == b"d":
        dtype = _F64
    else:
        raise TransportError(f"unknown array dtype code {code!r}")
    size = _U32.unpack_from(buf, offset + 1)[0]
    start = offset + 5
    end = start + size * 8
    if end > len(buf):
        raise TruncatedFrameError("payload ended inside array data")
    # Copy out of the frame buffer so partial lifetimes never pin it.
    arr = np.frombuffer(buf[start:end], dtype=dtype).astype(
        np.int64 if dtype is _I64 else np.float64, copy=True
    )
    return arr, end


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise TransportError("string field over 64 KiB")
    return struct.pack(">H", len(data)) + data


def _unpack_str(buf: bytes, offset: int) -> tuple[str, int]:
    if offset + 2 > len(buf):
        raise TruncatedFrameError("payload ended inside a string header")
    size = struct.unpack_from(">H", buf, offset)[0]
    start = offset + 2
    end = start + size
    if end > len(buf):
        raise TruncatedFrameError("payload ended inside string data")
    return buf[start:end].decode("utf-8"), end


# --- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """Parent -> worker: pin the shard index and cluster shape.

    ``num_buckets`` and ``map_version`` seed the worker's view of the
    movable placement map: the bucket count lets it select a handed-off
    bucket's users locally, and the version is the routing epoch all
    subsequent stamped frames are validated against.  ``flags``
    carries feature bits -- :data:`HELLO_FLAG_METRICS` turns the
    worker's metrics registry on.
    """

    shard: int
    num_shards: int
    num_buckets: int = 0
    map_version: int = 0
    flags: int = 0

    def _pack(self) -> bytes:
        return (
            _pack_scalar(self.shard)
            + _pack_scalar(self.num_shards)
            + _pack_scalar(self.num_buckets)
            + _pack_scalar(self.map_version)
            + _pack_scalar(self.flags)
        )

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["Hello", int]:
        shard, offset = _unpack_scalar(buf, 0)
        num_shards, offset = _unpack_scalar(buf, offset)
        num_buckets, offset = _unpack_scalar(buf, offset)
        map_version, offset = _unpack_scalar(buf, offset)
        flags, offset = _unpack_scalar(buf, offset)
        return (
            cls(
                shard=shard,
                num_shards=num_shards,
                num_buckets=num_buckets,
                map_version=map_version,
                flags=flags,
            ),
            offset,
        )


@dataclass(frozen=True)
class Ready:
    """Worker -> parent: handshake acknowledgment."""

    shard: int
    pid: int

    def _pack(self) -> bytes:
        return _pack_scalar(self.shard) + _pack_scalar(self.pid)

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["Ready", int]:
        shard, offset = _unpack_scalar(buf, 0)
        pid, offset = _unpack_scalar(buf, offset)
        return cls(shard=shard, pid=pid), offset


@dataclass(frozen=True)
class VocabDelta:
    """Append-only vocabulary replication: items for columns ``base..``."""

    base: int
    items: np.ndarray  # int64 item ids, in column-assignment order

    def _pack(self) -> bytes:
        return _pack_scalar(self.base) + _pack_array(self.items)

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["VocabDelta", int]:
        base, offset = _unpack_scalar(buf, 0)
        items, offset = _unpack_array(buf, offset)
        return cls(base=base, items=items), offset


@dataclass(frozen=True)
class WriteBatch:
    """Placement-routed profile writes, in table-write order."""

    user_ids: np.ndarray  # int64
    items: np.ndarray  # int64
    values: np.ndarray  # float64

    def _pack(self) -> bytes:
        return (
            _pack_array(self.user_ids)
            + _pack_array(self.items)
            + _pack_array(self.values)
        )

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["WriteBatch", int]:
        user_ids, offset = _unpack_array(buf, 0)
        items, offset = _unpack_array(buf, offset)
        values, offset = _unpack_array(buf, offset)
        if not (user_ids.size == items.size == values.size):
            raise TransportError("write batch arrays disagree on length")
        return cls(user_ids=user_ids, items=items, values=values), offset


@dataclass(frozen=True)
class JobSlices:
    """One batch's job slices for one shard.

    ``map_version`` stamps the routing epoch the batch was scattered
    under; a worker whose epoch disagrees rejects the frame loudly (a
    stale stamp means the frame crossed a migration it should not
    have).

    ``trace_id`` / ``trace_parent`` carry the coordinator's trace
    context when request tracing is on: the worker measures its score
    span under this parent and ships it back on the :class:`Partials`
    reply, so both sides of the process boundary stitch into one
    trace.  Both are 0 when tracing is off -- the frame then carries
    no trace content at all.
    """

    batch_id: int
    truncate: bool  # ship shard-local top-k only
    slices: tuple[ShardSlice, ...]
    map_version: int = 0
    trace_id: int = 0
    trace_parent: int = 0

    def _pack(self) -> bytes:
        parts = [
            _pack_scalar(self.batch_id),
            _pack_scalar(1 if self.truncate else 0),
            _pack_scalar(self.map_version),
            _pack_scalar(self.trace_id),
            _pack_scalar(self.trace_parent),
            _pack_scalar(len(self.slices)),
        ]
        for piece in self.slices:
            parts.append(_pack_scalar(piece.job_index))
            parts.append(_pack_scalar(piece.k))
            parts.append(_pack_scalar(piece.liked_count))
            parts.append(_pack_str(piece.metric))
            parts.append(_pack_array(piece.query_cols))
            parts.append(_pack_array(piece.candidate_ids))
            parts.append(_pack_array(piece.positions))
        return b"".join(parts)

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["JobSlices", int]:
        batch_id, offset = _unpack_scalar(buf, 0)
        truncate, offset = _unpack_scalar(buf, offset)
        map_version, offset = _unpack_scalar(buf, offset)
        trace_id, offset = _unpack_scalar(buf, offset)
        trace_parent, offset = _unpack_scalar(buf, offset)
        count, offset = _unpack_scalar(buf, offset)
        if count < 0 or truncate not in (0, 1):
            raise TransportError("malformed job-slice header")
        slices = []
        for _ in range(count):
            job_index, offset = _unpack_scalar(buf, offset)
            k, offset = _unpack_scalar(buf, offset)
            liked_count, offset = _unpack_scalar(buf, offset)
            metric, offset = _unpack_str(buf, offset)
            query_cols, offset = _unpack_array(buf, offset)
            candidate_ids, offset = _unpack_array(buf, offset)
            positions, offset = _unpack_array(buf, offset)
            if candidate_ids.size != positions.size:
                raise TransportError("slice ids/positions disagree")
            slices.append(
                ShardSlice(
                    job_index=job_index,
                    candidate_ids=candidate_ids,
                    positions=positions,
                    query_cols=query_cols,
                    liked_count=liked_count,
                    metric=metric,
                    k=k,
                )
            )
        return (
            cls(
                batch_id=batch_id,
                truncate=bool(truncate),
                slices=tuple(slices),
                map_version=map_version,
                trace_id=trace_id,
                trace_parent=trace_parent,
            ),
            offset,
        )


@dataclass(frozen=True)
class WireSpan:
    """One span measured inside a worker process.

    Attached to a :class:`Partials` reply when the triggering
    :class:`JobSlices` frame carried a trace context.  ``start_us`` /
    ``dur_us`` are ``perf_counter``-based microseconds --
    ``CLOCK_MONOTONIC`` on Linux is system-wide, so the parent adopts
    the span onto the shared timeline unchanged.
    """

    name: str
    span_id: int
    parent_id: int
    start_us: int
    dur_us: int
    pid: int

    def _pack(self) -> bytes:
        return _pack_str(self.name) + b"".join(
            _pack_scalar(value)
            for value in (
                self.span_id,
                self.parent_id,
                self.start_us,
                self.dur_us,
                self.pid,
            )
        )

    @classmethod
    def _unpack(cls, buf: bytes, offset: int) -> tuple["WireSpan", int]:
        name, offset = _unpack_str(buf, offset)
        span_id, offset = _unpack_scalar(buf, offset)
        parent_id, offset = _unpack_scalar(buf, offset)
        start_us, offset = _unpack_scalar(buf, offset)
        dur_us, offset = _unpack_scalar(buf, offset)
        pid, offset = _unpack_scalar(buf, offset)
        return (
            cls(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                start_us=start_us,
                dur_us=dur_us,
                pid=pid,
            ),
            offset,
        )


@dataclass(frozen=True)
class Partials:
    """Worker -> parent: per-job wire partials for one batch.

    ``spans`` carries the worker's measured score spans when the
    batch was traced; it is always empty for untraced batches, so the
    frame's request payload is byte-identical with tracing off.
    """

    batch_id: int
    partials: tuple[WirePartial, ...]
    spans: tuple[WireSpan, ...] = ()

    def _pack(self) -> bytes:
        parts = [_pack_scalar(self.batch_id), _pack_scalar(len(self.partials))]
        for partial in self.partials:
            parts.append(_pack_scalar(partial.job_index))
            parts.append(_pack_array(partial.positions))
            parts.append(_pack_array(partial.scores))
            parts.append(_pack_array(partial.pop_cols))
            parts.append(_pack_array(partial.pop_counts))
        parts.append(_pack_scalar(len(self.spans)))
        for span in self.spans:
            parts.append(span._pack())
        return b"".join(parts)

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["Partials", int]:
        batch_id, offset = _unpack_scalar(buf, 0)
        count, offset = _unpack_scalar(buf, offset)
        if count < 0:
            raise TransportError("negative partial count")
        partials = []
        for _ in range(count):
            job_index, offset = _unpack_scalar(buf, offset)
            positions, offset = _unpack_array(buf, offset)
            scores, offset = _unpack_array(buf, offset)
            pop_cols, offset = _unpack_array(buf, offset)
            pop_counts, offset = _unpack_array(buf, offset)
            if positions.size != scores.size:
                raise TransportError("partial positions/scores disagree")
            if pop_cols.size != pop_counts.size:
                raise TransportError("partial histogram arrays disagree")
            partials.append(
                WirePartial(
                    job_index=job_index,
                    positions=positions,
                    scores=scores,
                    pop_cols=pop_cols,
                    pop_counts=pop_counts,
                )
            )
        span_count, offset = _unpack_scalar(buf, offset)
        if span_count < 0:
            raise TransportError("negative span count")
        spans = []
        for _ in range(span_count):
            span, offset = WireSpan._unpack(buf, offset)
            spans.append(span)
        return (
            cls(
                batch_id=batch_id,
                partials=tuple(partials),
                spans=tuple(spans),
            ),
            offset,
        )


@dataclass(frozen=True)
class StatsRequest:
    """Parent -> worker: ask for the shard's load/churn counters."""

    def _pack(self) -> bytes:
        return b""

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["StatsRequest", int]:
        return cls(), 0


@dataclass(frozen=True)
class StatsReply:
    """Worker -> parent: one shard's ``ShardStats`` fields.

    ``arena_capacity`` is the allocated arena cells (capacity, not
    just live entries -- the number that actually bounds resident
    bytes).
    """

    users: int
    arena_live: int
    arena_garbage: int
    writes: int
    compactions: int
    pid: int
    arena_capacity: int = 0

    def _pack(self) -> bytes:
        return b"".join(
            _pack_scalar(value)
            for value in (
                self.users,
                self.arena_live,
                self.arena_garbage,
                self.writes,
                self.compactions,
                self.pid,
                self.arena_capacity,
            )
        )

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["StatsReply", int]:
        values = []
        offset = 0
        for _ in range(7):
            value, offset = _unpack_scalar(buf, offset)
            values.append(value)
        return cls(*values), offset


@dataclass(frozen=True)
class MapUpdate:
    """Parent -> worker: the placement map's routing epoch moved.

    Broadcast to every worker after a migration commits.  Epochs are
    monotone: a worker accepts any ``version >= `` its own (handoff
    participants already bumped while applying the move, so the
    broadcast is idempotent for them) and rejects a regression.
    """

    version: int

    def _pack(self) -> bytes:
        return _pack_scalar(self.version)

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["MapUpdate", int]:
        version, offset = _unpack_scalar(buf, 0)
        return cls(version=version), offset


@dataclass(frozen=True)
class HandoffRequest:
    """Parent -> old owner: extract-and-evict one placement bucket.

    ``version`` is the routing epoch the migration creates; the worker
    validates it advances its local epoch by exactly one, extracts the
    bucket's users (write replay + local eviction), bumps its epoch,
    and answers with the matching :class:`HandoffData`.
    """

    bucket: int
    version: int

    def _pack(self) -> bytes:
        return _pack_scalar(self.bucket) + _pack_scalar(self.version)

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["HandoffRequest", int]:
        bucket, offset = _unpack_scalar(buf, 0)
        version, offset = _unpack_scalar(buf, offset)
        return cls(bucket=bucket, version=version), offset


@dataclass(frozen=True)
class HandoffData:
    """One bucket's write replay (old owner -> parent -> new owner).

    The rows are the bucket's users' current value per rated item, in
    the old owner's table order -- the warm-start form, which is
    bit-equivalent to the users' full write history for every
    liked/rated-set read.  The new owner validates the epoch advance,
    replays the rows through its local table, and bumps its epoch.
    """

    bucket: int
    version: int
    user_ids: np.ndarray  # int64
    items: np.ndarray  # int64
    values: np.ndarray  # float64

    def _pack(self) -> bytes:
        return (
            _pack_scalar(self.bucket)
            + _pack_scalar(self.version)
            + _pack_array(self.user_ids)
            + _pack_array(self.items)
            + _pack_array(self.values)
        )

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["HandoffData", int]:
        bucket, offset = _unpack_scalar(buf, 0)
        version, offset = _unpack_scalar(buf, offset)
        user_ids, offset = _unpack_array(buf, offset)
        items, offset = _unpack_array(buf, offset)
        values, offset = _unpack_array(buf, offset)
        if not (user_ids.size == items.size == values.size):
            raise TransportError("handoff arrays disagree on length")
        return (
            cls(
                bucket=bucket,
                version=version,
                user_ids=user_ids,
                items=items,
                values=values,
            ),
            offset,
        )


@dataclass(frozen=True)
class SplitBuckets:
    """Parent -> worker: refine the bucket space in place.

    ``num_buckets`` is the *new* bucket count -- an exact multiple of
    the worker's current one, because bucket refinement relies on
    modulo stability: ``mix(uid) % kN`` is congruent to
    ``mix(uid) % N`` mod ``N``, so old bucket ``b`` splits into the
    ``k`` new buckets ``{b, b + N, ..., b + (k-1)N}`` and no user
    changes owner at split time.  ``version`` is the routing epoch the
    split creates; like a handoff, the worker insists it advances its
    local epoch by exactly one, so a worker that misses the split can
    never silently select users under a stale bucket numbering -- the
    next epoch-stamped frame fails loudly instead.
    """

    num_buckets: int
    version: int

    def _pack(self) -> bytes:
        return _pack_scalar(self.num_buckets) + _pack_scalar(self.version)

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["SplitBuckets", int]:
        num_buckets, offset = _unpack_scalar(buf, 0)
        version, offset = _unpack_scalar(buf, offset)
        return cls(num_buckets=num_buckets, version=version), offset


@dataclass(frozen=True)
class Ping:
    """Parent -> worker: liveness probe.

    ``nonce`` is an arbitrary caller-chosen value the worker must echo
    back, so a reply can never be confused with a stale probe's.
    """

    nonce: int

    def _pack(self) -> bytes:
        return _pack_scalar(self.nonce)

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["Ping", int]:
        nonce, offset = _unpack_scalar(buf, 0)
        return cls(nonce=nonce), offset


@dataclass(frozen=True)
class Pong:
    """Worker -> parent: probe echo plus the worker's identity.

    Echoing ``shard`` and ``pid`` lets the supervisor assert the reply
    came from the worker it probed, not a misrouted or stale peer.
    """

    nonce: int
    shard: int
    pid: int

    def _pack(self) -> bytes:
        return (
            _pack_scalar(self.nonce)
            + _pack_scalar(self.shard)
            + _pack_scalar(self.pid)
        )

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["Pong", int]:
        nonce, offset = _unpack_scalar(buf, 0)
        shard, offset = _unpack_scalar(buf, offset)
        pid, offset = _unpack_scalar(buf, offset)
        return cls(nonce=nonce, shard=shard, pid=pid), offset


@dataclass(frozen=True)
class MetricsRequest:
    """Parent -> worker: ask for the shard's metrics snapshot."""

    def _pack(self) -> bytes:
        return b""

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["MetricsRequest", int]:
        return cls(), 0


@dataclass(frozen=True)
class WireSample:
    """One flattened metric sample inside a :class:`MetricsSnapshot`.

    ``kind`` is an index into ``("counter", "gauge", "histogram")``;
    ``labels`` is the ``k=v,k=v`` form; histogram ``values`` are
    ``[count, sum, *bucket_counts]`` with the bucket ``bounds``
    shipped alongside (see :mod:`repro.obs.exposition`, which owns
    both directions of this conversion).
    """

    kind: int
    name: str
    labels: str
    values: np.ndarray  # float64
    bounds: np.ndarray  # float64; empty except for histograms

    def __post_init__(self) -> None:
        if self.kind not in (0, 1, 2):
            raise TransportError(f"unknown metric kind {self.kind}")

    def _pack(self) -> bytes:
        return (
            _pack_scalar(self.kind)
            + _pack_str(self.name)
            + _pack_str(self.labels)
            + _pack_array(self.values)
            + _pack_array(self.bounds)
        )

    @classmethod
    def _unpack(cls, buf: bytes, offset: int) -> tuple["WireSample", int]:
        kind, offset = _unpack_scalar(buf, offset)
        name, offset = _unpack_str(buf, offset)
        labels, offset = _unpack_str(buf, offset)
        values, offset = _unpack_array(buf, offset)
        bounds, offset = _unpack_array(buf, offset)
        return (
            cls(
                kind=kind,
                name=name,
                labels=labels,
                values=values.astype(np.float64),
                bounds=bounds.astype(np.float64),
            ),
            offset,
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Worker -> parent: the shard registry's full snapshot."""

    shard: int
    samples: tuple[WireSample, ...]

    def _pack(self) -> bytes:
        parts = [_pack_scalar(self.shard), _pack_scalar(len(self.samples))]
        for sample in self.samples:
            parts.append(sample._pack())
        return b"".join(parts)

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["MetricsSnapshot", int]:
        shard, offset = _unpack_scalar(buf, 0)
        count, offset = _unpack_scalar(buf, offset)
        if count < 0:
            raise TransportError("negative sample count")
        samples = []
        for _ in range(count):
            sample, offset = WireSample._unpack(buf, offset)
            samples.append(sample)
        return cls(shard=shard, samples=tuple(samples)), offset


@dataclass(frozen=True)
class Shutdown:
    """Parent -> worker: drain and exit cleanly."""

    def _pack(self) -> bytes:
        return b""

    @classmethod
    def _unpack(cls, buf: bytes) -> tuple["Shutdown", int]:
        return cls(), 0


Message = (
    Hello
    | Ready
    | VocabDelta
    | WriteBatch
    | JobSlices
    | Partials
    | StatsRequest
    | StatsReply
    | Shutdown
    | MapUpdate
    | HandoffRequest
    | HandoffData
    | Ping
    | Pong
    | MetricsRequest
    | MetricsSnapshot
    | SplitBuckets
)

_MESSAGE_TYPES: dict[FrameType, type] = {
    FrameType.HELLO: Hello,
    FrameType.READY: Ready,
    FrameType.VOCAB_DELTA: VocabDelta,
    FrameType.WRITE_BATCH: WriteBatch,
    FrameType.JOB_SLICES: JobSlices,
    FrameType.PARTIALS: Partials,
    FrameType.STATS_REQUEST: StatsRequest,
    FrameType.STATS_REPLY: StatsReply,
    FrameType.SHUTDOWN: Shutdown,
    FrameType.MAP_UPDATE: MapUpdate,
    FrameType.HANDOFF_REQUEST: HandoffRequest,
    FrameType.HANDOFF_DATA: HandoffData,
    FrameType.PING: Ping,
    FrameType.PONG: Pong,
    FrameType.METRICS_REQUEST: MetricsRequest,
    FrameType.METRICS_SNAPSHOT: MetricsSnapshot,
    FrameType.SPLIT_BUCKETS: SplitBuckets,
}
_FRAME_OF_TYPE = {cls: frame for frame, cls in _MESSAGE_TYPES.items()}


def encode_message(msg: Message) -> bytes:
    """One full frame (header + payload) for ``msg``."""
    frame_type = _FRAME_OF_TYPE.get(type(msg))
    if frame_type is None:
        raise TransportError(f"not a protocol message: {type(msg).__name__}")
    payload = msg._pack()
    return (
        _HEADER.pack(
            PROTOCOL_MAGIC, PROTOCOL_VERSION, int(frame_type), len(payload)
        )
        + payload
    )


def decode_message(buf: bytes, offset: int = 0) -> tuple[Message, int]:
    """Decode one frame at ``offset``; returns ``(message, next offset)``.

    Rejects truncated frames (:class:`TruncatedFrameError`), foreign
    protocol versions (:class:`VersionMismatchError`), bad magic,
    unknown frame types, and payloads whose content over- or
    under-runs the declared length (:class:`TransportError`).
    """
    if offset + _HEADER.size > len(buf):
        raise TruncatedFrameError("stream ended inside a frame header")
    magic, version, type_byte, length = _HEADER.unpack_from(buf, offset)
    if magic != PROTOCOL_MAGIC:
        raise TransportError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"peer speaks protocol v{version}, this end v{PROTOCOL_VERSION}"
        )
    if length > MAX_PAYLOAD:
        raise TransportError(f"frame payload of {length} bytes exceeds cap")
    try:
        frame_type = FrameType(type_byte)
    except ValueError:
        raise TransportError(f"unknown frame type {type_byte}") from None
    start = offset + _HEADER.size
    end = start + length
    if end > len(buf):
        raise TruncatedFrameError("stream ended inside a frame payload")
    payload = buf[start:end]
    msg, consumed = _MESSAGE_TYPES[frame_type]._unpack(payload)
    if consumed != length:
        raise TransportError(
            f"{frame_type.name} payload declared {length} bytes "
            f"but parsed {consumed}"
        )
    return msg, end


# --- stream channel ---------------------------------------------------------


class Channel:
    """Frame-at-a-time messaging over a connected stream socket."""

    def __init__(self, sock) -> None:
        self._sock = sock

    @property
    def sock(self):
        """The underlying socket (fork inheritance lists need the fd)."""
        return self._sock

    def send(self, msg: Message) -> None:
        """Serialize and write one frame (blocking until accepted)."""
        self._sock.sendall(encode_message(msg))

    def _recv_exact(self, count: int, *, header: bool) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                if header and remaining == count:
                    raise ConnectionClosedError("peer closed the connection")
                raise TruncatedFrameError(
                    "connection closed mid-frame "
                    f"({count - remaining}/{count} bytes)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> Message:
        """Read exactly one frame; :class:`ConnectionClosedError` on EOF.

        The header is fully validated (magic, version, frame type,
        length cap) *before* the payload read: a desynced peer fails
        fast with a :class:`TransportError` instead of this end
        blocking on a garbage length the peer will never fill.
        """
        header = self._recv_exact(_HEADER.size, header=True)
        magic, version, type_byte, length = _HEADER.unpack(header)
        if magic != PROTOCOL_MAGIC:
            raise TransportError(f"bad frame magic {magic!r}")
        if version != PROTOCOL_VERSION:
            raise VersionMismatchError(
                f"peer speaks protocol v{version}, this end v{PROTOCOL_VERSION}"
            )
        if type_byte not in FrameType._value2member_map_:
            raise TransportError(f"unknown frame type {type_byte}")
        if length > MAX_PAYLOAD:
            raise TransportError(f"frame payload of {length} bytes exceeds cap")
        payload = self._recv_exact(length, header=False) if length else b""
        msg, _ = decode_message(header + payload)
        return msg

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
