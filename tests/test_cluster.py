"""Unit tests for the sharded cluster engine's building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    BatchScheduler,
    ClusterCoordinator,
    PlacementMap,
    SerialExecutor,
    ShardedLikedMatrix,
    ThreadPoolExecutor,
    make_executor,
    merge_popularity,
    merge_topk,
)
from repro.core.tables import ProfileTable
from repro.engine import LikedMatrix, select_top_items
from repro.engine.jobs import EngineJob


class TestShardPlacement:
    def test_deterministic_and_in_range(self):
        placement = PlacementMap(4)
        for uid in range(500):
            shard = placement.shard_of(uid)
            assert 0 <= shard < 4
            assert shard == placement.shard_of(uid)

    def test_vectorized_matches_scalar(self):
        placement = PlacementMap(8)
        ids = np.arange(0, 3000, 7, dtype=np.int64)
        vectorized = placement.shards_of(ids)
        assert [placement.shard_of(int(u)) for u in ids] == vectorized.tolist()

    def test_dense_ranges_stay_balanced(self):
        # The avalanche hash must not map arithmetic id structure onto
        # shard structure (uid % n would put a strided trace entirely
        # on one shard).
        placement = PlacementMap(8)
        counts = np.bincount(
            placement.shards_of(np.arange(8000, dtype=np.int64)), minlength=8
        )
        assert counts.min() > 0.5 * counts.mean()
        assert counts.max() < 1.5 * counts.mean()

    def test_single_shard_owns_everything(self):
        placement = PlacementMap(1)
        assert placement.shards_of(np.arange(50)).tolist() == [0] * 50

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            PlacementMap(0)


class TestShardedLikedMatrix:
    def _loaded(self, num_shards: int = 4):
        table = ProfileTable()
        sharded = ShardedLikedMatrix(table, num_shards)
        for uid in range(20):
            for item in range(uid % 5 + 1):
                table.record(uid, item, 1.0)
        return table, sharded

    def test_writes_route_to_owning_shard_only(self):
        table, sharded = self._loaded()
        writes = [shard.writes_applied for shard in sharded.shards]
        assert sum(writes) == sum(uid % 5 + 1 for uid in range(20))
        owner = sharded.shard_of(3)
        before = [shard.writes_applied for shard in sharded.shards]
        table.record(3, 99, 1.0)
        after = [shard.writes_applied for shard in sharded.shards]
        assert after[owner] == before[owner] + 1
        assert sum(after) == sum(before) + 1

    def test_rows_match_unsharded_matrix(self):
        table, sharded = self._loaded()
        reference = LikedMatrix(table)
        for uid in range(20):
            shard = sharded.shards[sharded.shard_of(uid)]
            shard_row = shard.liked_row(uid)
            reference_row = reference.liked_row(uid)
            assert sorted(shard.item_array()[shard_row].tolist()) == sorted(
                reference.item_array()[reference_row].tolist()
            )

    def test_partition_preserves_order_and_covers(self):
        _, sharded = self._loaded()
        ids = list(range(19, -1, -1))
        parts = sharded.partition(ids)
        assert len(parts) == 4
        seen = []
        for shard, (part_ids, positions) in enumerate(parts):
            assert [sharded.shard_of(int(u)) for u in part_ids] == [
                shard
            ] * part_ids.size
            # Positions index the input sequence, ascending.
            assert [ids[p] for p in positions.tolist()] == part_ids.tolist()
            assert positions.tolist() == sorted(positions.tolist())
            seen.extend(part_ids.tolist())
        assert sorted(seen) == sorted(ids)

    def test_stats_count_rows_after_reads(self):
        table, sharded = self._loaded()
        # Materialize every row through a read.
        for uid in range(20):
            sharded.shards[sharded.shard_of(uid)].liked_row(uid)
        stats = sharded.stats()
        assert sum(stat.users for stat in stats) == 20
        assert sum(stat.arena_live for stat in stats) == sum(
            uid % 5 + 1 for uid in range(20)
        )
        assert all(stat.shard == index for index, stat in enumerate(stats))


class TestMergeTopK:
    def test_ties_across_shards_break_on_position(self):
        # Same score in different shards: the lower position (earlier
        # token in the job's ascending-token order) must win, exactly
        # like the single-matrix stable sort's (-score, token) order.
        shard_a = (np.array([0.5, 0.25]), np.array([1, 3]))
        shard_b = (np.array([0.5, 0.25]), np.array([0, 2]))
        positions, scores = merge_topk(
            [shard_a[0], shard_b[0]], [shard_a[1], shard_b[1]], k=3
        )
        assert positions.tolist() == [0, 1, 2]
        assert scores.tolist() == [0.5, 0.5, 0.25]

    def test_zero_scores_tie_on_position(self):
        # -0.0 == 0.0 must not split the tie group.
        positions, _ = merge_topk(
            [np.array([0.0]), np.array([-0.0])],
            [np.array([1]), np.array([0])],
            k=2,
        )
        assert positions.tolist() == [0, 1]

    def test_k_larger_than_total_candidates(self):
        positions, scores = merge_topk(
            [np.array([1.0]), np.array([0.5])],
            [np.array([0]), np.array([1])],
            k=50,
        )
        assert positions.tolist() == [0, 1]
        assert scores.tolist() == [1.0, 0.5]

    def test_empty_shards_are_transparent(self):
        empty_f = np.zeros(0, dtype=np.float64)
        empty_i = np.zeros(0, dtype=np.int64)
        positions, scores = merge_topk(
            [empty_f, np.array([0.9]), empty_f],
            [empty_i, np.array([4]), empty_i],
            k=2,
        )
        assert positions.tolist() == [4]
        assert scores.tolist() == [0.9]

    def test_no_candidates_at_all(self):
        positions, scores = merge_topk([], [], k=5)
        assert positions.size == 0 and scores.size == 0

    def test_single_shard_degenerate_case(self):
        positions, scores = merge_topk(
            [np.array([0.9, 0.5, 0.5])], [np.array([0, 2, 3])], k=2
        )
        assert positions.tolist() == [0, 2]
        assert scores.tolist() == [0.9, 0.5]


class TestMergePopularity:
    def test_counts_sum_across_shards(self):
        # Parts are gathered liked-item *columns* per shard; the merge
        # is one histogram over the shared column space.
        merged = merge_popularity(
            [np.array([3, 1, 3]), np.array([0, 3, 1])]
        )
        assert merged.tolist() == [1, 2, 0, 3]

    def test_single_part_passes_through(self):
        merged = merge_popularity(
            [np.zeros(0, dtype=np.int64), np.array([2, 2, 0])]
        )
        assert merged.tolist() == [1, 0, 2]

    def test_all_empty(self):
        assert merge_popularity([]).size == 0
        assert merge_popularity([np.zeros(0, dtype=np.int64)]).size == 0

    def test_item_tiebreak_is_string_order(self):
        # Counts tie: item "10" sorts before "9" as a string -- the
        # Python engine's (-count, str(item)) key, shared verbatim.
        ranked = select_top_items(np.array([9, 10]), np.array([3, 3]), r=2)
        assert ranked == ["10", "9"]


def _job(user_id, candidates, tokens=None, k=3, r=4):
    tokens = tokens if tokens is not None else [f"u{c:04d}" for c in candidates]
    pairs = sorted(zip(tokens, candidates))
    return EngineJob(
        user_id=user_id,
        user_token=f"u{user_id:04d}",
        candidate_ids=tuple(uid for _, uid in pairs),
        candidate_tokens=tuple(token for token, _ in pairs),
        k=k,
        r=r,
    )


def _toy_coordinator(num_shards=4, executor=None):
    table = ProfileTable()
    coordinator = ClusterCoordinator(table, num_shards, executor=executor)
    for uid in range(12):
        for item in range(uid % 4 + 1):
            table.record(uid, item, 1.0)
        table.record(uid, 50 + uid, 1.0)
    return table, coordinator


class TestBatchScheduler:
    def test_window_auto_flushes(self):
        _, coordinator = _toy_coordinator()
        scheduler = BatchScheduler(coordinator, batch_window=3)
        tickets = [
            scheduler.submit(_job(uid, [u for u in range(12) if u != uid]))
            for uid in range(3)
        ]
        assert all(ticket.done for ticket in tickets)
        assert scheduler.batches_dispatched == 1
        assert scheduler.largest_batch == 3

    def test_result_flushes_partial_window(self):
        _, coordinator = _toy_coordinator()
        scheduler = BatchScheduler(coordinator, batch_window=64)
        ticket = scheduler.submit(_job(0, [1, 2, 3]))
        assert not ticket.done
        assert scheduler.pending == 1
        result = ticket.result()
        assert ticket.done
        assert result.user_token == "u0000"
        assert scheduler.pending == 0

    def test_run_spans_multiple_windows(self):
        _, coordinator = _toy_coordinator()
        scheduler = BatchScheduler(coordinator, batch_window=4)
        jobs = [_job(uid, [u for u in range(10) if u != uid]) for uid in range(10)]
        results = scheduler.run(jobs)
        assert [res.user_token for res in results] == [
            job.user_token for job in jobs
        ]
        assert scheduler.batches_dispatched == 3  # 4 + 4 + 2
        assert scheduler.jobs_dispatched == 10

    def test_invalid_window(self):
        _, coordinator = _toy_coordinator()
        with pytest.raises(ValueError):
            BatchScheduler(coordinator, batch_window=0)


class TestExecutors:
    def test_make_executor_names(self):
        from repro.cluster import ProcessExecutor

        assert isinstance(make_executor("serial"), SerialExecutor)
        thread = make_executor("thread")
        assert isinstance(thread, ThreadPoolExecutor)
        thread.close()
        process = make_executor("process", ipc_write_batch=7)
        assert isinstance(process, ProcessExecutor)
        assert process.ipc_write_batch == 7
        process.close()  # spawns nothing until a coordinator attaches it
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_process_executor_matches_serial(self):
        from repro.cluster import ProcessExecutor

        jobs = [_job(uid, [u for u in range(12) if u != uid]) for uid in range(12)]
        _, serial_coord = _toy_coordinator(executor=SerialExecutor())
        _, process_coord = _toy_coordinator(executor=ProcessExecutor())
        try:
            assert serial_coord.process_batch(jobs) == process_coord.process_batch(
                jobs
            )
        finally:
            process_coord.close()

    def test_thread_pool_matches_serial(self):
        jobs = [_job(uid, [u for u in range(12) if u != uid]) for uid in range(12)]
        _, serial_coord = _toy_coordinator(executor=SerialExecutor())
        thread_executor = ThreadPoolExecutor()
        _, thread_coord = _toy_coordinator(executor=thread_executor)
        try:
            assert serial_coord.process_batch(jobs) == thread_coord.process_batch(
                jobs
            )
        finally:
            thread_coord.close()

    def test_results_preserve_submission_order(self):
        executor = ThreadPoolExecutor(workers=4)
        try:
            assert executor.run([lambda i=i: i for i in range(32)]) == list(
                range(32)
            )
        finally:
            executor.close()


class TestCoordinator:
    def test_batch_equals_one_by_one(self):
        # Batch composition must never change a job's result.
        jobs = [_job(uid, [u for u in range(12) if u != uid]) for uid in range(8)]
        _, coordinator = _toy_coordinator()
        batched = coordinator.process_batch(jobs)
        _, fresh = _toy_coordinator()
        assert batched == [fresh.process_engine_job(job) for job in jobs]

    def test_empty_batch_and_empty_candidates(self):
        _, coordinator = _toy_coordinator()
        assert coordinator.process_batch([]) == []
        result = coordinator.process_engine_job(_job(0, []))
        assert result.neighbor_tokens == []
        assert result.recommended_items == []

    def test_counts_processed_work(self):
        _, coordinator = _toy_coordinator()
        coordinator.process_batch([_job(0, [1, 2]), _job(1, [2, 3])])
        assert coordinator.batches_processed == 1
        assert coordinator.jobs_processed == 2
