"""Process-executor unit tests: lifecycle, protocol state, truncation.

Cross-executor *parity* lives in ``tests/test_cluster_parity.py``
(the process executor is one more axis there); this file covers what
is specific to the out-of-process deployment: worker spawn/handshake/
shutdown, warm-start replay of pre-populated tables, the vocabulary
replication discipline, per-worker stats over the wire, and the
exactness proof obligations of shard-local top-K truncation.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal

import numpy as np
import pytest

from repro.cluster import (
    ClusterCoordinator,
    ProcessExecutor,
    make_executor,
    merge_topk,
)
from repro.cluster.scoring import (
    ShardSlice,
    merge_popularity_sparse,
    to_wire_partial,
    truncate_topk,
    ShardPartial,
)
from repro.cluster.transport import (
    HandoffData,
    HandoffRequest,
    Hello,
    JobSlices,
    MapUpdate,
    Ready,
    Shutdown,
    StatsRequest,
    TransportError,
    VocabDelta,
    WriteBatch,
)
from repro.cluster.worker import ShardHost
from repro.core.tables import ProfileTable
from repro.engine import LikedMatrix, VectorizedWidget
from repro.engine.jobs import EngineJob


def _populate(rng: random.Random, table: ProfileTable, users: int, items: int):
    for uid in range(users):
        table.get_or_create(uid)
        for item in rng.sample(range(items), rng.randrange(0, 20)):
            table.record(uid, item, 1.0 if rng.random() < 0.7 else 0.0)


def _job(rng: random.Random, users: int, metric: str = "cosine") -> EngineJob:
    user_id = rng.randrange(users)
    population = [uid for uid in range(users) if uid != user_id]
    candidates = rng.sample(population, rng.randrange(0, len(population)))
    pairs = sorted((f"u0_{uid:04x}", uid) for uid in candidates)
    return EngineJob(
        user_id=user_id,
        user_token=f"u0_{user_id:04x}",
        candidate_ids=tuple(uid for _, uid in pairs),
        candidate_tokens=tuple(token for token, _ in pairs),
        k=rng.choice([1, 3, 10]),
        r=rng.choice([1, 5]),
        metric=metric,
    )


class TestLifecycle:
    def test_make_executor_builds_process_executor(self):
        executor = make_executor("process")
        assert isinstance(executor, ProcessExecutor)
        executor.close()  # close before attach is a safe no-op

    def test_workers_spawn_reply_and_shut_down(self):
        table = ProfileTable()
        executor = ProcessExecutor()
        executor.attach(table, num_shards=3)
        stats = executor.stats()
        pids = {stat.pid for stat in stats}
        assert len(pids) == 3  # one live process per shard
        assert os.getpid() not in pids  # and none of them is us
        procs = list(executor._procs)
        assert all(proc.is_alive() for proc in procs)
        executor.close()
        assert all(not proc.is_alive() for proc in procs)
        executor.close()  # idempotent

    def test_mismatched_placement_leaves_executor_attachable(self):
        from repro.cluster import PlacementMap

        executor = ProcessExecutor()
        with pytest.raises(ValueError, match="disagree"):
            executor.attach(
                ProfileTable(), num_shards=4, placement=PlacementMap(2)
            )
        # The failed attach mutated nothing: a corrected one succeeds.
        executor.attach(ProfileTable(), num_shards=2)
        try:
            assert executor.num_shards == 2
        finally:
            executor.close()

    def test_double_attach_rejected(self):
        executor = ProcessExecutor()
        executor.attach(ProfileTable(), num_shards=2)
        try:
            with pytest.raises(RuntimeError, match="already attached"):
                executor.attach(ProfileTable(), num_shards=2)
        finally:
            executor.close()

    def test_closed_executor_rejects_work(self):
        executor = ProcessExecutor()
        executor.attach(ProfileTable(), num_shards=2)
        executor.close()
        with pytest.raises(RuntimeError, match="not running"):
            executor.run_slices([[], []])
        with pytest.raises(RuntimeError, match="not running"):
            executor.stats()

    def test_run_closures_unsupported(self):
        executor = ProcessExecutor()
        with pytest.raises(TypeError, match="serialized job slices"):
            executor.run([lambda: 1])
        executor.close()

    def test_invalid_write_batch_knob(self):
        with pytest.raises(ValueError, match="ipc_write_batch"):
            ProcessExecutor(ipc_write_batch=0)

    def test_writes_after_close_are_ignored(self):
        # close() must detach the write router: a rating recorded
        # afterwards (sweeps reuse tables) cannot buffer into -- or
        # index -- the torn-down channels.
        table = ProfileTable()
        executor = ProcessExecutor(ipc_write_batch=1)  # flush every write
        ClusterCoordinator(table, num_shards=2, executor=executor)
        table.record(1, 10, 1.0)
        executor.close()
        for uid in range(5):
            table.record(uid, uid, 1.0)  # must not raise
        assert all(not users for users, _, _ in executor._write_buffers)

    def test_workers_exit_on_parent_eof(self):
        # An abandoned parent (no Shutdown frame, sockets just die)
        # must still release the workers: they may not inherit their
        # own parent-side socket ends across the fork.
        executor = ProcessExecutor()
        executor.attach(ProfileTable(), num_shards=3)
        procs = list(executor._procs)
        for channel in executor._channels:
            channel.close()
        for proc in procs:
            proc.join(timeout=5)
        assert all(not proc.is_alive() for proc in procs)
        executor._channels = []  # already dead; skip Shutdown frames
        executor.close()


class TestWarmStartAndWrites:
    def test_prepopulated_table_replays_to_workers(self):
        rng = random.Random(3)
        table = ProfileTable()
        _populate(rng, table, users=30, items=100)
        matrix = LikedMatrix(table)
        widget = VectorizedWidget()
        coordinator = ClusterCoordinator(
            table, num_shards=4, executor=ProcessExecutor()
        )
        try:
            for _ in range(15):
                job = _job(rng, 30)
                assert coordinator.process_engine_job(
                    job
                ) == widget.process_engine_job(job, matrix)
        finally:
            coordinator.close()

    def test_writes_flush_before_stats(self):
        # Stats must never lag the table: buffered writes flush first.
        table = ProfileTable()
        executor = ProcessExecutor(ipc_write_batch=10_000)  # never auto-flush
        coordinator = ClusterCoordinator(table, num_shards=2, executor=executor)
        try:
            for uid in range(20):
                table.record(uid, uid % 7, 1.0)
            stats = coordinator.shard_stats()
            assert sum(stat.writes for stat in stats) == 20
            # Rows materialize lazily on first read, exactly like the
            # in-process shards: scoring a job makes them visible.
            coordinator.process_engine_job(_job(random.Random(0), 20))
            assert sum(stat.users for stat in coordinator.shard_stats()) > 0
        finally:
            coordinator.close()

    def test_unrated_users_are_legal_candidates(self):
        # Registered-but-silent profiles exist only in the parent
        # table; workers must treat them as empty rows.
        table = ProfileTable()
        for uid in range(8):
            table.get_or_create(uid)
        table.record(0, 1, 1.0)
        coordinator = ClusterCoordinator(
            table, num_shards=4, executor=ProcessExecutor()
        )
        try:
            job = _job(random.Random(1), 8)
            reference = VectorizedWidget().process_engine_job(
                job, LikedMatrix(table)
            )
            assert coordinator.process_engine_job(job) == reference
        finally:
            coordinator.close()


class TestShardHostProtocol:
    """Frame-level state discipline, without spawning processes."""

    def test_handshake_pins_the_shard(self):
        host = ShardHost(2)
        reply = host.handle(Hello(shard=2, num_shards=4))
        assert isinstance(reply, Ready) and reply.shard == 2
        with pytest.raises(TransportError, match="reached shard"):
            host.handle(Hello(shard=0, num_shards=4))

    def test_duplicate_hello_cannot_reset_the_epoch(self):
        # Routing state advances only through validated frames: a
        # replayed Hello would silently regress the epoch MapUpdate
        # guards with a loud error.
        host = ShardHost(1)
        host.handle(Hello(shard=1, num_shards=2, num_buckets=8, map_version=0))
        host.handle(MapUpdate(version=4))
        with pytest.raises(TransportError, match="duplicate hello"):
            host.handle(
                Hello(shard=1, num_shards=2, num_buckets=8, map_version=0)
            )
        assert host.map_version == 4

    def test_vocab_deltas_must_be_contiguous(self):
        host = ShardHost(0)
        host.handle(VocabDelta(base=0, items=np.asarray([5, 9], dtype=np.int64)))
        assert len(host.vocab) == 2
        with pytest.raises(TransportError, match="vocab delta base"):
            host.handle(
                VocabDelta(base=5, items=np.asarray([7], dtype=np.int64))
            )

    def test_duplicate_vocab_item_rejected(self):
        host = ShardHost(0)
        host.handle(VocabDelta(base=0, items=np.asarray([5], dtype=np.int64)))
        with pytest.raises(TransportError, match="already interned"):
            host.handle(
                VocabDelta(base=1, items=np.asarray([5], dtype=np.int64))
            )

    def test_write_replay_reconstructs_unlikes(self):
        host = ShardHost(0)
        host.handle(VocabDelta(base=0, items=np.asarray([3, 4], dtype=np.int64)))
        host.handle(
            WriteBatch(
                user_ids=np.asarray([1, 1, 1], dtype=np.int64),
                items=np.asarray([3, 4, 3], dtype=np.int64),
                values=np.asarray([1.0, 1.0, 0.0], dtype=np.float64),
            )
        )
        # Item 3 was liked then un-liked; only item 4's column remains.
        assert host.matrix.liked_row(1).tolist() == [1]
        stats = host.handle(StatsRequest())
        assert stats.writes == 3

    def test_unexpected_frame_rejected(self):
        host = ShardHost(0)
        with pytest.raises(TransportError, match="unexpected frame"):
            host.handle(Ready(shard=0, pid=1))

    def test_shutdown_has_no_reply(self):
        assert ShardHost(0).handle(Shutdown()) is None


class TestHandoffFaultInjection:
    """Epoch discipline and handoff state transitions, frame by frame."""

    def _host(self, shard: int = 0, num_buckets: int = 8) -> ShardHost:
        host = ShardHost(shard)
        host.handle(
            Hello(
                shard=shard, num_shards=2, num_buckets=num_buckets,
                map_version=0,
            )
        )
        return host

    def _bucket_user(self, host: ShardHost, bucket: int) -> int:
        from repro.cluster.placement import bucket_of_id

        return next(
            uid
            for uid in range(10_000)
            if bucket_of_id(uid, host.num_buckets) == bucket
        )

    def test_stale_job_version_rejected(self):
        host = self._host()
        host.handle(MapUpdate(version=3))
        stale = JobSlices(batch_id=0, truncate=True, slices=(), map_version=2)
        with pytest.raises(TransportError, match="stale map version"):
            host.handle(stale)
        # The current epoch's frames still flow: the host is left in a
        # consistent, routable state.
        reply = host.handle(
            JobSlices(batch_id=1, truncate=True, slices=(), map_version=3)
        )
        assert reply.batch_id == 1

    def test_map_update_regression_rejected(self):
        host = self._host()
        host.handle(MapUpdate(version=5))
        host.handle(MapUpdate(version=5))  # idempotent re-broadcast is fine
        with pytest.raises(TransportError, match="regresses"):
            host.handle(MapUpdate(version=4))
        assert host.map_version == 5

    def test_handoff_must_advance_epoch_by_one(self):
        host = self._host()
        with pytest.raises(TransportError, match="advance"):
            host.handle(HandoffRequest(bucket=1, version=3))  # skipped epochs
        with pytest.raises(TransportError, match="advance"):
            host.handle(HandoffRequest(bucket=1, version=0))  # replayed epoch
        assert host.map_version == 0  # rejected handoffs change nothing
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(TransportError, match="advance"):
            host.handle(
                HandoffData(
                    bucket=1,
                    version=2,
                    user_ids=empty,
                    items=empty,
                    values=empty.astype(np.float64),
                )
            )

    def test_handoff_before_handshake_rejected(self):
        host = ShardHost(0)  # no Hello: num_buckets unknown
        with pytest.raises(TransportError, match="before the Hello"):
            host.handle(HandoffRequest(bucket=0, version=1))

    def test_handoff_bucket_out_of_range_rejected(self):
        host = self._host(num_buckets=8)
        with pytest.raises(TransportError, match="out of range"):
            host.handle(HandoffRequest(bucket=8, version=1))

    def test_extract_replays_and_evicts_the_bucket(self):
        host = self._host()
        moving = self._bucket_user(host, bucket=2)
        staying = self._bucket_user(host, bucket=3)
        host.handle(VocabDelta(base=0, items=np.asarray([7, 9], dtype=np.int64)))
        host.handle(
            WriteBatch(
                user_ids=np.asarray([moving, moving, staying], dtype=np.int64),
                items=np.asarray([7, 9, 7], dtype=np.int64),
                values=np.asarray([1.0, 0.0, 1.0], dtype=np.float64),
            )
        )
        reply = host.handle(HandoffRequest(bucket=2, version=1))
        assert isinstance(reply, HandoffData)
        assert reply.bucket == 2 and reply.version == 1
        assert set(reply.user_ids.tolist()) == {moving}
        assert sorted(
            zip(reply.items.tolist(), reply.values.tolist())
        ) == [(7, 1.0), (9, 0.0)]  # current value per rated item
        assert host.map_version == 1
        assert moving not in host.table  # evicted outright
        assert staying in host.table
        assert host.matrix.liked_row(staying).tolist() == [0]

    def test_absorb_applies_the_replay(self):
        source = self._host(shard=0)
        dest = self._host(shard=1)
        moving = self._bucket_user(source, bucket=2)
        vocab = VocabDelta(base=0, items=np.asarray([7, 9], dtype=np.int64))
        source.handle(vocab)
        dest.handle(vocab)
        source.handle(
            WriteBatch(
                user_ids=np.asarray([moving, moving], dtype=np.int64),
                items=np.asarray([7, 9], dtype=np.int64),
                values=np.asarray([1.0, 1.0], dtype=np.float64),
            )
        )
        data = source.handle(HandoffRequest(bucket=2, version=1))
        dest.handle(data)
        assert dest.map_version == 1
        assert sorted(dest.matrix.liked_row(moving).tolist()) == [0, 1]

    def test_absorb_rejects_foreign_users(self):
        host = self._host()
        foreign = self._bucket_user(host, bucket=5)
        with pytest.raises(TransportError, match="carries user"):
            host.handle(
                HandoffData(
                    bucket=2,
                    version=1,
                    user_ids=np.asarray([foreign], dtype=np.int64),
                    items=np.asarray([7], dtype=np.int64),
                    values=np.asarray([1.0], dtype=np.float64),
                )
            )
        assert host.map_version == 0  # nothing applied


class TestLiveMigrationFaults:
    """Fault injection against real worker processes."""

    def test_worker_death_mid_handoff_fails_loudly_and_keeps_routing(self):
        table = ProfileTable()
        executor = ProcessExecutor()
        ClusterCoordinator(table, num_shards=3, executor=executor)
        for uid in range(12):
            table.record(uid, uid % 5, 1.0)
        placement = executor.placement
        bucket = placement.bucket_of(0)
        old_owner = placement.owner_of(bucket)
        version_before = placement.version
        try:
            # Kill the bucket's owner, then attempt the migration: the
            # handoff must surface a typed transport error...
            victim = executor._procs[old_owner]
            victim.terminate()
            victim.join(timeout=5)
            with pytest.raises((TransportError, OSError)):
                executor.migrate_bucket(bucket, (old_owner + 1) % 3)
            # ...and leave routing untouched: same owner, same epoch.
            assert placement.version == version_before
            assert placement.owner_of(bucket) == old_owner
        finally:
            executor.close()  # tolerates the already-dead worker

    def test_migrate_validation_errors(self):
        table = ProfileTable()
        executor = ProcessExecutor()
        coordinator = ClusterCoordinator(table, num_shards=2, executor=executor)
        placement = executor.placement
        bucket = 0
        owner = placement.owner_of(bucket)
        try:
            with pytest.raises(ValueError, match="already lives"):
                coordinator.migrate_bucket(bucket, owner)
            with pytest.raises(ValueError, match="out of range"):
                coordinator.migrate_bucket(bucket, 2)
            assert placement.version == 0
        finally:
            coordinator.close()
        with pytest.raises(RuntimeError, match="not running"):
            executor.migrate_bucket(bucket, (owner + 1) % 2)

    def test_migration_survives_round_trips_and_new_writes(self):
        # A full migrate -> write -> score -> stats cycle on live
        # workers: the moved users answer from their new owner with
        # the same bits the single matrix produces.
        rng = random.Random(77)
        table = ProfileTable()
        _populate(rng, table, users=24, items=60)
        matrix = LikedMatrix(table)
        widget = VectorizedWidget()
        coordinator = ClusterCoordinator(
            table, num_shards=3, executor=ProcessExecutor(ipc_write_batch=4)
        )
        placement = coordinator.placement
        try:
            for round_index in range(4):
                bucket = placement.bucket_of(round_index)
                owner = placement.owner_of(bucket)
                coordinator.migrate_bucket(bucket, (owner + 1) % 3)
                table.record(
                    rng.randrange(24), rng.randrange(60), float(rng.random() < 0.5)
                )
                job = _job(rng, 24)
                assert coordinator.process_engine_job(
                    job
                ) == widget.process_engine_job(job, matrix)
            assert placement.version == 4
            stats = coordinator.shard_stats()
            assert len(stats) == 3  # every worker still answers
        finally:
            coordinator.close()


class TestTruncationExactness:
    def test_truncate_topk_never_evicts_global_winners(self):
        # Randomized cross-check: merging shard-local top-k partials
        # equals merging the full partials, for every k.
        rng = np.random.default_rng(11)
        for _ in range(50):
            num_shards = int(rng.integers(1, 5))
            k = int(rng.integers(1, 8))
            score_parts, position_parts = [], []
            next_position = 0
            for _ in range(num_shards):
                count = int(rng.integers(0, 12))
                # Coarse scores force heavy cross-shard ties.
                scores = rng.integers(0, 4, count) / 2.0
                positions = np.arange(
                    next_position, next_position + count, dtype=np.int64
                )
                next_position += count
                score_parts.append(scores.astype(np.float64))
                position_parts.append(positions)
            full = merge_topk(score_parts, position_parts, k)
            truncated = [
                truncate_topk(positions, scores, k)
                for scores, positions in zip(score_parts, position_parts)
            ]
            cut = merge_topk(
                [scores for _, scores in truncated],
                [positions for positions, _ in truncated],
                k,
            )
            assert full[0].tolist() == cut[0].tolist()
            assert full[1].tolist() == cut[1].tolist()

    def test_truncation_ranks_by_score_then_position(self):
        positions = np.asarray([7, 3, 5], dtype=np.int64)
        scores = np.asarray([0.5, 0.9, 0.5], dtype=np.float64)
        kept_positions, kept_scores = truncate_topk(positions, scores, 2)
        assert kept_positions.tolist() == [3, 5]  # 0.9 first, then tie@0.5
        assert kept_scores.tolist() == [0.9, 0.5]

    def test_wire_partial_histogram_matches_bincount(self):
        liked_cols = np.asarray([4, 1, 4, 4, 0, 1], dtype=np.int64)
        partial = ShardPartial(
            positions=np.asarray([0], dtype=np.int64),
            scores=np.asarray([1.0]),
            liked_cols=liked_cols,
        )
        wire = to_wire_partial(0, partial, k=1, truncate=True)
        assert wire.pop_cols.tolist() == [0, 1, 4]
        assert wire.pop_counts.tolist() == [1, 2, 3]
        merged = merge_popularity_sparse([(wire.pop_cols, wire.pop_counts)])
        assert merged.tolist() == np.bincount(liked_cols).tolist()

    def test_sparse_merge_equals_concatenated_bincount(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            segments = [
                rng.integers(0, 30, rng.integers(0, 40)).astype(np.int64)
                for _ in range(int(rng.integers(1, 5)))
            ]
            parts = []
            for segment in segments:
                if segment.size:
                    histogram = np.bincount(segment)
                    cols = np.nonzero(histogram)[0]
                    parts.append((cols, histogram[cols]))
                else:
                    empty = np.zeros(0, dtype=np.int64)
                    parts.append((empty, empty))
            reference = (
                np.bincount(np.concatenate(segments))
                if sum(s.size for s in segments)
                else np.zeros(0, dtype=np.int64)
            )
            merged = merge_popularity_sparse(parts)
            assert merged.tolist() == reference.tolist()

    def test_truncated_and_full_partials_agree_end_to_end(self):
        rng = random.Random(23)
        table = ProfileTable()
        _populate(rng, table, users=25, items=60)
        coordinators = [
            ClusterCoordinator(
                table,
                num_shards=4,
                executor=ProcessExecutor(truncate_partials=flag),
            )
            for flag in (True, False)
        ]
        try:
            for _ in range(10):
                job = _job(rng, 25, metric=rng.choice(["cosine", "jaccard"]))
                results = [c.process_engine_job(job) for c in coordinators]
                assert results[0] == results[1]
        finally:
            for coordinator in coordinators:
                coordinator.close()


def _no_shard_children() -> bool:
    """No live (or zombie) shard workers remain under this process."""
    # active_children() also joins finished children, so a True here
    # means reaped, not merely dead.
    return not [
        proc
        for proc in multiprocessing.active_children()
        if proc.name.startswith("hyrec-shard")
    ]


class TestTeardownHardening:
    """close() and attach() reap every worker on every path."""

    def test_close_escalates_to_kill_for_wedged_workers(self):
        executor = ProcessExecutor(worker_timeout=0.2)
        executor.attach(ProfileTable(), num_shards=3)
        procs = list(executor._procs)
        # A stopped process ignores the Shutdown frame and leaves
        # SIGTERM pending forever -- only the SIGKILL stage reaps it.
        os.kill(procs[1].pid, signal.SIGSTOP)
        executor.close()
        assert all(proc.exitcode is not None for proc in procs)
        assert _no_shard_children()
        executor.close()  # idempotent after the escalated teardown

    def test_attach_failure_mid_replay_names_shard_and_reaps_all(
        self, monkeypatch
    ):
        from repro.cluster.transport import Channel

        rng = random.Random(13)
        table = ProfileTable()
        _populate(rng, table, users=20, items=50)
        original_send = Channel.send

        def failing_send(self, msg):
            if isinstance(msg, WriteBatch):
                raise OSError("injected wire fault")
            return original_send(self, msg)

        monkeypatch.setattr(Channel, "send", failing_send)
        executor = ProcessExecutor(ipc_write_batch=4, worker_timeout=0.5)
        # The warm-start replay is the first WriteBatch each worker
        # sees, so attach must fail loudly -- naming the shard whose
        # replay broke -- and reap every worker it already spawned.
        with pytest.raises(TransportError, match=r"worker \d+"):
            executor.attach(table, num_shards=3)
        assert _no_shard_children()
        # the failed attach tore the executor down, not half-built
        assert executor._procs == [] and executor._channels == []
