"""The out-of-process shard host.

Each worker process owns one shard's state end to end: a local
:class:`~repro.core.tables.ProfileTable` holding only the users the
placement map routed here, the shard's
:class:`~repro.engine.liked_matrix.LikedMatrix` arena mirroring it
incrementally, and a replica
:class:`~repro.engine.liked_matrix.ItemVocabulary` rebuilt from the
parent's append-only :class:`~repro.cluster.transport.VocabDelta`
frames -- so a column index means the same item here as in the parent
and on every sibling shard, without any shared memory.

Nothing enters or leaves except :mod:`repro.cluster.transport` frames:
writes arrive as :class:`~repro.cluster.transport.WriteBatch`\\ es (the
local table replays them, which drives the matrix's incremental
like/un-like transitions exactly as the parent-side matrix would see
them), jobs arrive as :class:`~repro.cluster.transport.JobSlices`, and
results leave as shard-local-top-K
:class:`~repro.cluster.transport.Partials`.  The scoring itself is
:func:`repro.cluster.scoring.score_slices` -- the same function the
in-process executors run -- so a worker's partials are bit-for-bit
what the serial executor computes for the same shard.

:class:`ShardHost` is deliberately transport-agnostic (message in,
optional reply out) so protocol handling is unit-testable without
spawning processes; :func:`worker_main` is the thin process entry
point that pumps frames between a socket and the host.
"""

from __future__ import annotations

import os
import socket
import time

import numpy as np

from repro.cluster.placement import bucket_of_id
from repro.cluster.scoring import score_slices, to_wire_partial
from repro.cluster.transport import (
    HELLO_FLAG_METRICS,
    Channel,
    ConnectionClosedError,
    HandoffData,
    HandoffRequest,
    Hello,
    JobSlices,
    MapUpdate,
    Message,
    MetricsRequest,
    MetricsSnapshot,
    Partials,
    Ping,
    Pong,
    Ready,
    Shutdown,
    SplitBuckets,
    StatsReply,
    StatsRequest,
    TransportError,
    VocabDelta,
    WireSample,
    WireSpan,
    WriteBatch,
)
from repro.core.tables import ProfileTable
from repro.engine.liked_matrix import ItemVocabulary, LikedMatrix
from repro.obs.exposition import sample_to_wire_parts
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import salted_id


class ShardHost:
    """One shard's state plus the frame dispatch that mutates it."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.table = ProfileTable()
        self.vocab = ItemVocabulary()
        self.matrix = LikedMatrix(self.table, vocab=self.vocab)
        self.batches_scored = 0
        #: Placement-map view seeded by the Hello handshake: the bucket
        #: count (for selecting a handed-off bucket's users locally)
        #: and the routing epoch stamped frames are validated against.
        self.num_buckets = 0
        self.map_version = 0
        self.handoffs_out = 0
        self.handoffs_in = 0
        self.splits_applied = 0
        self._handshaken = False
        #: Shard-local metrics; off until the Hello handshake raises
        #: :data:`~repro.cluster.transport.HELLO_FLAG_METRICS` (bare
        #: hosts in unit tests thus carry inert instruments).
        self.registry = MetricsRegistry(enabled=False)
        self._bind_metrics()
        self._span_seq = 0

    def _bind_metrics(self) -> None:
        """(Re)bind the hot-path instrument handles to the registry."""
        shard = str(self.shard)
        registry = self.registry
        self._jobs_total = registry.counter("hyrec_shard_jobs_total", shard=shard)
        self._batches_total = registry.counter(
            "hyrec_shard_batches_total", shard=shard
        )
        self._writes_total = registry.counter(
            "hyrec_shard_writes_total", shard=shard
        )
        self._score_seconds = registry.histogram(
            "hyrec_shard_score_seconds", shard=shard
        )

    # --- frame handlers -----------------------------------------------------

    def handle(self, msg: Message) -> Message | None:
        """Apply one message; return the reply frame if the type has one.

        Frames must be applied in arrival order: vocabulary deltas are
        cumulative, and write replay depends on every prior write of a
        user having been applied (that is how the like/un-like
        transition is reconstructed without shipping ``previous``).
        """
        if isinstance(msg, Ping):
            # Liveness probes are legal at any point in the lifecycle
            # (even pre-handshake): they mutate nothing and must keep
            # answering while the supervisor decides a worker's fate.
            return Pong(nonce=msg.nonce, shard=self.shard, pid=os.getpid())
        if isinstance(msg, VocabDelta):
            self._apply_vocab_delta(msg)
            return None
        if isinstance(msg, WriteBatch):
            self._apply_writes(msg)
            return None
        if isinstance(msg, JobSlices):
            return self._score(msg)
        if isinstance(msg, StatsRequest):
            return self._stats()
        if isinstance(msg, MetricsRequest):
            return self._metrics()
        if isinstance(msg, MapUpdate):
            self._apply_map_update(msg)
            return None
        if isinstance(msg, HandoffRequest):
            return self._extract_bucket(msg)
        if isinstance(msg, HandoffData):
            self._absorb_bucket(msg)
            return None
        if isinstance(msg, SplitBuckets):
            self._apply_split(msg)
            return None
        if isinstance(msg, Hello):
            if msg.shard != self.shard:
                raise TransportError(
                    f"hello for shard {msg.shard} reached shard {self.shard}"
                )
            if self._handshaken:
                # Routing state may only advance through the validated
                # frames (MapUpdate / handoffs); a mid-session Hello
                # would silently reset the epoch.
                raise TransportError(
                    f"duplicate hello on shard {self.shard}"
                )
            self._handshaken = True
            self.num_buckets = msg.num_buckets
            self.map_version = msg.map_version
            self.registry = MetricsRegistry(
                enabled=bool(msg.flags & HELLO_FLAG_METRICS)
            )
            self._bind_metrics()
            return Ready(shard=self.shard, pid=os.getpid())
        if isinstance(msg, Shutdown):
            return None
        raise TransportError(
            f"unexpected frame {type(msg).__name__} on a worker"
        )

    def _apply_vocab_delta(self, delta: VocabDelta) -> None:
        """Append the delta's items, reproducing the parent's columns."""
        if delta.base != len(self.vocab):
            raise TransportError(
                f"vocab delta base {delta.base} does not extend a replica "
                f"of {len(self.vocab)} columns"
            )
        for offset, item in enumerate(delta.items.tolist()):
            col = self.vocab.intern(int(item))
            if col != delta.base + offset:
                raise TransportError(
                    f"item {item} already interned at column {col}"
                )

    def _apply_writes(self, batch: WriteBatch) -> None:
        """Replay routed writes through the local table.

        ``record`` recomputes the ``previous`` value from the local
        profile -- identical to the parent's, since every earlier
        write of the user was routed here first -- and the matrix's
        write hook applies the same incremental transition the
        in-process shard would.
        """
        record = self.table.record
        for user_id, item, value in zip(
            batch.user_ids.tolist(),
            batch.items.tolist(),
            batch.values.tolist(),
        ):
            record(user_id, item, value)
        self._writes_total.inc(batch.user_ids.size)

    # --- placement epochs and shard handoff ---------------------------------

    def _apply_map_update(self, msg: MapUpdate) -> None:
        """Advance the routing epoch (monotone; regressions are fatal)."""
        if msg.version < self.map_version:
            raise TransportError(
                f"map update regresses the routing epoch "
                f"({msg.version} < {self.map_version})"
            )
        self.map_version = msg.version

    def _require_epoch_advance(self, version: int, what: str) -> None:
        """A handoff frame must advance the local epoch by exactly one.

        Anything else means a lost or reordered frame: an equal or
        older version is a replayed migration, a jump means this
        worker missed a map bump its routing depends on.  Either way
        the shard's view of the map is unreliable -- fail loudly.
        """
        if version != self.map_version + 1:
            raise TransportError(
                f"{what} for epoch {version} does not advance this "
                f"worker's epoch {self.map_version} by one"
            )

    def _apply_split(self, msg: SplitBuckets) -> None:
        """Refine the local bucket count (elastic topology).

        The new count must be an exact multiple of the current one --
        that is the modulo-stability precondition under which no user
        changes owner at split time -- and the epoch must advance by
        exactly one, handoff-style.  A worker that misses a split would
        select users under a stale bucket numbering on its next
        handoff; the epoch discipline turns that into a loud
        ``TransportError`` instead.
        """
        if self.num_buckets < 1:
            raise TransportError("bucket split before the Hello handshake")
        if (
            msg.num_buckets <= self.num_buckets
            or msg.num_buckets % self.num_buckets
        ):
            raise TransportError(
                f"bucket split to {msg.num_buckets} is not a proper "
                f"multiple of the current {self.num_buckets}"
            )
        self._require_epoch_advance(msg.version, "bucket split")
        self.num_buckets = msg.num_buckets
        self.map_version = msg.version
        self.splits_applied += 1

    def _extract_bucket(self, msg: HandoffRequest) -> HandoffData:
        """Old-owner side of a migration: replay out, then evict.

        The reply carries the bucket's users' current value per rated
        item (the warm-start form -- bit-equivalent to their write
        history for every liked/rated read), in this table's insertion
        order.  The users then leave this shard entirely: profiles are
        removed and their matrix rows invalidated, so post-migration
        stats and scoring behave as if the users were never routed
        here.
        """
        if self.num_buckets < 1:
            raise TransportError("handoff before the Hello handshake")
        if not 0 <= msg.bucket < self.num_buckets:
            raise TransportError(
                f"handoff bucket {msg.bucket} out of range "
                f"[0, {self.num_buckets})"
            )
        self._require_epoch_advance(msg.version, "handoff request")
        moved = [
            user_id
            for user_id in self.table
            if bucket_of_id(user_id, self.num_buckets) == msg.bucket
        ]
        user_ids: list[int] = []
        items: list[int] = []
        values: list[float] = []
        for user_id in moved:
            profile = self.table.get(user_id)
            for item in profile.rated_items():
                value = profile.value_of(item)
                assert value is not None  # rated_items() lists opinions
                user_ids.append(user_id)
                items.append(item)
                values.append(value)
        for user_id in moved:
            self.table.remove(user_id)
            self.matrix.refresh(user_id)  # drop the row; dirty postings
        self.map_version = msg.version
        self.handoffs_out += 1
        return HandoffData(
            bucket=msg.bucket,
            version=msg.version,
            user_ids=np.asarray(user_ids, dtype=np.int64),
            items=np.asarray(items, dtype=np.int64),
            values=np.asarray(values, dtype=np.float64),
        )

    def _absorb_bucket(self, msg: HandoffData) -> None:
        """New-owner side of a migration: replay the bucket's rows in.

        Every row must actually belong to the advertised bucket (a
        mismatch means the parent forwarded a corrupt or misrouted
        frame), and every item must already be interned by the vocab
        replica (the parent flushes deltas before forwarding), so the
        local replay assigns exactly the parent's columns.
        """
        if self.num_buckets < 1:
            raise TransportError("handoff before the Hello handshake")
        self._require_epoch_advance(msg.version, "handoff data")
        for user_id in np.unique(msg.user_ids).tolist():
            if bucket_of_id(user_id, self.num_buckets) != msg.bucket:
                raise TransportError(
                    f"handoff for bucket {msg.bucket} carries user "
                    f"{user_id} of bucket "
                    f"{bucket_of_id(user_id, self.num_buckets)}"
                )
        record = self.table.record
        for user_id, item, value in zip(
            msg.user_ids.tolist(), msg.items.tolist(), msg.values.tolist()
        ):
            record(user_id, item, value)
        self.map_version = msg.version
        self.handoffs_in += 1

    def _score(self, msg: JobSlices) -> Partials:
        """Score the batch's slices; reply with wire partials.

        Users the placement routed no writes for are legal candidates
        (registered-but-silent profiles); they materialize here as
        empty rows, exactly as the shared-table matrix would build
        them.

        The batch's epoch stamp must match this worker's: a stale
        stamp means the batch was scattered under a map that has since
        moved a bucket, and scoring it here could silently fabricate
        empty rows for users this shard no longer owns.
        """
        if msg.map_version != self.map_version:
            raise TransportError(
                f"job batch {msg.batch_id} stamped with stale map "
                f"version {msg.map_version} (worker epoch "
                f"{self.map_version})"
            )
        get_or_create = self.table.get_or_create
        for piece in msg.slices:
            for user_id in piece.candidate_ids.tolist():
                get_or_create(user_id)
        start_ns = time.perf_counter_ns()
        partials = score_slices(self.matrix, msg.slices)
        dur_ns = time.perf_counter_ns() - start_ns
        self.batches_scored += 1
        self._batches_total.inc()
        self._jobs_total.inc(len(msg.slices))
        self._score_seconds.observe(dur_ns / 1e9)
        spans: tuple[WireSpan, ...] = ()
        if msg.trace_id:
            # The batch is traced: ship the measured score span so the
            # parent's tracer stitches it under its score phase.  Span
            # ids are pid-salted, so they cannot collide with ids the
            # parent minted for the same trace.
            self._span_seq += 1
            spans = (
                WireSpan(
                    name=f"shard{self.shard}:score",
                    span_id=salted_id(self._span_seq),
                    parent_id=msg.trace_parent,
                    start_us=start_ns // 1000,
                    dur_us=dur_ns // 1000,
                    pid=os.getpid(),
                ),
            )
        return Partials(
            batch_id=msg.batch_id,
            partials=tuple(
                to_wire_partial(
                    piece.job_index,
                    partials[piece.job_index],
                    k=piece.k,
                    truncate=msg.truncate,
                )
                for piece in msg.slices
            ),
            spans=spans,
        )

    def _metrics(self) -> MetricsSnapshot:
        """Flatten the local registry snapshot for the parent.

        Snapshots are non-destructive, so the parent may poll at any
        cadence without double-counting; a disabled registry answers
        with an empty sample list.
        """
        samples = []
        for sample in self.registry.snapshot():
            kind, name, labels, values, bounds = sample_to_wire_parts(sample)
            samples.append(
                WireSample(
                    kind=kind,
                    name=name,
                    labels=labels,
                    values=np.asarray(values, dtype=np.float64),
                    bounds=np.asarray(bounds, dtype=np.float64),
                )
            )
        return MetricsSnapshot(shard=self.shard, samples=tuple(samples))

    def _stats(self) -> StatsReply:
        matrix = self.matrix
        return StatsReply(
            users=matrix.num_rows,
            arena_live=matrix.arena_live,
            arena_garbage=matrix.arena_garbage,
            writes=matrix.writes_applied,
            compactions=matrix.compactions,
            pid=os.getpid(),
            arena_capacity=matrix.arena_capacity,
        )


def worker_main(
    sock: socket.socket,
    shard: int,
    inherited: "tuple[socket.socket, ...]" = (),
) -> None:
    """Process entry point: pump frames between ``sock`` and the host.

    ``inherited`` are the parent-side socket ends this process
    received across the fork (its own pair's and earlier workers');
    they are closed first thing, so a parent that disappears without a
    Shutdown frame produces a real EOF here instead of a socket held
    open by its own peer.

    Exits on a :class:`~repro.cluster.transport.Shutdown` frame or a
    clean EOF from the parent.  Protocol violations terminate the
    worker (the parent surfaces the broken pipe on its next exchange)
    rather than guessing at recovery.
    """
    for parent_end in inherited:
        parent_end.close()
    channel = Channel(sock)
    host = ShardHost(shard)
    try:
        while True:
            try:
                msg = channel.recv()
            except ConnectionClosedError:
                break
            reply = host.handle(msg)
            if reply is not None:
                channel.send(reply)
            if isinstance(msg, Shutdown):
                break
    finally:
        channel.close()
