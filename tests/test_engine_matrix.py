"""Unit tests for the vectorized engine's data structures and kernels."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.similarity import cosine, get_metric, jaccard, overlap
from repro.core.tables import ProfileTable
from repro.engine import (
    LikedMatrix,
    intersection_counts,
    rank_descending,
    segment_sums,
    similarity_scores,
)


def _matrix_with(ratings: list[tuple[int, int, float]]) -> tuple[ProfileTable, LikedMatrix]:
    table = ProfileTable()
    matrix = LikedMatrix(table)
    for user, item, value in ratings:
        table.record(user, item, value)
    return table, matrix


def _liked_cols(matrix: LikedMatrix, user: int) -> set[int]:
    return set(matrix.liked_row(user).tolist())


class TestKernels:
    def test_segment_sums_handles_empty_rows(self):
        values = np.array([1, 0, 1, 1], dtype=np.int64)
        indptr = np.array([0, 0, 2, 2, 4], dtype=np.int64)
        assert segment_sums(values, indptr).tolist() == [0, 1, 0, 2]

    def test_intersection_counts_matches_python_sets(self):
        rng = random.Random(5)
        rows = [frozenset(rng.sample(range(60), rng.randrange(0, 25))) for _ in range(40)]
        query = frozenset(rng.sample(range(60), 12))
        sizes = np.array([len(r) for r in rows], dtype=np.int64)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        indices = np.array([c for r in rows for c in sorted(r)], dtype=np.int64)
        flags = np.zeros(60, dtype=np.int64)
        flags[list(query)] = 1
        counts = intersection_counts(flags, indices, indptr)
        assert counts.tolist() == [len(query & r) for r in rows]

    @pytest.mark.parametrize(
        "name,fn", [("cosine", cosine), ("jaccard", jaccard), ("overlap", overlap)]
    )
    def test_scores_bitwise_equal_python_metrics(self, name, fn):
        rng = random.Random(9)
        for _ in range(200):
            a = frozenset(rng.sample(range(50), rng.randrange(0, 20)))
            b = frozenset(rng.sample(range(50), rng.randrange(0, 20)))
            inter = np.array([len(a & b)], dtype=np.int64)
            got = similarity_scores(
                name, inter, float(len(a)), np.array([len(b)], dtype=np.int64)
            )
            expected = fn(a, b)
            assert float(got[0]) == expected  # bitwise, no tolerance

    def test_scores_rejects_unknown_metric(self):
        with pytest.raises(KeyError):
            similarity_scores("hamming", np.zeros(1), 1.0, np.ones(1))

    def test_rank_descending_is_stable(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        assert rank_descending(scores).tolist() == [1, 0, 2, 3]

    def test_cosine_matches_math_sqrt_exactly(self):
        # The parity guarantee hinges on np.sqrt == math.sqrt bit-for-bit.
        for a, b, inter in [(3, 7, 2), (123, 456, 77), (1, 1, 1)]:
            got = similarity_scores(
                "cosine",
                np.array([inter], dtype=np.int64),
                float(a),
                np.array([b], dtype=np.int64),
            )
            assert float(got[0]) == inter / math.sqrt(a * b)


class TestLikedMatrix:
    def test_rows_track_profile_writes(self):
        table, matrix = _matrix_with([(1, 10, 1.0), (1, 11, 1.0), (1, 12, 0.0)])
        assert _liked_cols(matrix, 1) == {
            matrix.column_of(10),
            matrix.column_of(11),
        }
        table.record(1, 13, 1.0)
        assert matrix.column_of(13) in _liked_cols(matrix, 1)
        # Un-like removes from the row.
        table.record(1, 10, 0.0)
        assert matrix.column_of(10) not in _liked_cols(matrix, 1)
        # Re-rating without flipping the opinion changes nothing.
        before = _liked_cols(matrix, 1)
        table.record(1, 11, 1.0)
        assert _liked_cols(matrix, 1) == before

    def test_rated_row_includes_dislikes(self):
        table, matrix = _matrix_with([(2, 5, 1.0), (2, 6, 0.0)])
        rated = set(matrix.rated_row(2).tolist())
        assert rated == {matrix.column_of(5), matrix.column_of(6)}
        table.record(2, 7, 0.0)
        assert matrix.column_of(7) in set(matrix.rated_row(2).tolist())

    def test_attaches_to_prepopulated_table(self):
        table = ProfileTable()
        table.record(4, 1, 1.0)
        table.record(4, 2, 1.0)
        matrix = LikedMatrix(table)
        assert len(_liked_cols(matrix, 4)) == 2

    def test_gather_matches_individual_rows(self):
        rng = random.Random(3)
        ratings = [
            (u, i, 1.0) for u in range(20) for i in rng.sample(range(40), 8)
        ]
        table, matrix = _matrix_with(ratings)
        ids = list(range(20))
        indices, indptr, sizes = matrix.gather_liked(ids)
        for pos, uid in enumerate(ids):
            row = indices[indptr[pos] : indptr[pos + 1]]
            assert set(row.tolist()) == _liked_cols(matrix, uid)
            assert sizes[pos] == len(_liked_cols(matrix, uid))
        assert matrix.liked_sizes(ids).tolist() == sizes.tolist()

    def test_compaction_preserves_rows(self):
        table = ProfileTable()
        matrix = LikedMatrix(table, initial_capacity=16)
        rng = random.Random(1)
        expected: dict[int, set[int]] = {}
        for step in range(600):
            user = rng.randrange(8)
            item = rng.randrange(30)
            value = 1.0 if rng.random() < 0.7 else 0.0
            table.record(user, item, value)
            matrix.liked_row(user)  # keep rows materialized across churn
            expected.setdefault(user, set())
            if value == 1.0:
                expected[user].add(item)
            else:
                expected[user].discard(item)
        for user, items in expected.items():
            assert _liked_cols(matrix, user) == {
                matrix.column_of(i) for i in items
            }

    def test_csc_agrees_with_csr(self):
        rng = random.Random(11)
        ratings = []
        for u in range(29):
            for i in rng.sample(range(50), rng.randrange(1, 15)):
                ratings.append((u, i, 1.0 if rng.random() < 0.8 else 0.0))
        table, matrix = _matrix_with(ratings)
        table.get_or_create(29)  # registered but rating-less user
        ids = list(range(30))
        query = matrix.liked_row(7)
        indices, indptr, _ = matrix.gather_liked(ids)
        csr = matrix.batch_intersections(query, indices, indptr)
        csc = matrix.batch_intersections_csc(query, np.array(ids))
        assert csr.tolist() == csc.tolist()
        # ...and both survive further incremental writes.
        for u, i, v in [(7, 99, 1.0), (3, 99, 1.0), (3, 99, 0.0), (5, 1, 0.0)]:
            table.record(u, i, v)
        query = matrix.liked_row(7)
        indices, indptr, _ = matrix.gather_liked(ids)
        assert (
            matrix.batch_intersections(query, indices, indptr).tolist()
            == matrix.batch_intersections_csc(query, np.array(ids)).tolist()
        )

    def test_adaptive_kernels_agree_with_csr(self):
        rng = random.Random(21)
        ratings = []
        for u in range(40):
            for i in rng.sample(range(60), rng.randrange(1, 20)):
                ratings.append((u, i, 1.0 if rng.random() < 0.8 else 0.0))
        table, matrix = _matrix_with(ratings)
        ids = list(range(40))
        query = matrix.liked_row(3)
        indices, indptr, sizes = matrix.gather_liked(ids)
        expected = matrix.batch_intersections(query, indices, indptr)
        auto = matrix.intersections_auto(query, ids, indices, indptr)
        assert auto.tolist() == expected.tolist()
        knn_inter, knn_sizes = matrix.knn_intersections(query, ids)
        assert knn_inter.tolist() == expected.tolist()
        assert knn_sizes.tolist() == sizes.tolist()

    def test_posting_lists_users_liking_item(self):
        table, matrix = _matrix_with(
            [(1, 10, 1.0), (2, 10, 1.0), (3, 10, 0.0), (1, 11, 1.0)]
        )
        assert set(matrix.posting(10).tolist()) == {1, 2}
        table.record(2, 10, 0.0)
        assert set(matrix.posting(10).tolist()) == {1}
        assert matrix.posting(404).size == 0

    def test_refresh_after_out_of_band_write(self):
        table, matrix = _matrix_with([(1, 10, 1.0)])
        matrix.liked_row(1)
        table.get(1).add(11, 1.0)  # bypasses record(); matrix is stale
        matrix.refresh(1)
        assert _liked_cols(matrix, 1) == {
            matrix.column_of(10),
            matrix.column_of(11),
        }
        assert set(matrix.posting(11).tolist()) == {1}

    def test_bulk_invalidation_returns_arena_capacity(self):
        table = ProfileTable()
        matrix = LikedMatrix(table)
        for uid in range(200):
            for item in range(20):
                table.record(uid, item, 1.0)
        for uid in range(200):
            matrix.liked_row(uid)
        before = matrix.arena_capacity
        assert before >= 4000
        for uid in range(4, 200):
            matrix.refresh(uid)
        matrix.liked_row(0)
        table.record(0, 20, 1.0)  # the next append compacts
        after = matrix.memory_stats()
        assert after["rows_resident"] == 4
        assert after["arena_capacity"] < before
        # Only the re-sliced row's old segment is left as garbage.
        assert after["arena_garbage"] == 20
        # Shrinking never lost data: invalidated rows rebuild correctly.
        assert sorted(matrix.item_array()[matrix.liked_row(5)].tolist()) == list(
            range(20)
        )


def _reference_gather(matrix: LikedMatrix, ids: list[int]):
    """Row by row: the CSR triple ``gather_liked`` must reproduce."""
    rows = [matrix.liked_row(uid).copy() for uid in ids]
    sizes = np.array([row.size for row in rows], dtype=np.int64)
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return indices, indptr, sizes


def _assert_same_csr(got, expected):
    for got_part, expected_part in zip(got, expected):
        assert got_part.dtype == expected_part.dtype
        assert got_part.tolist() == expected_part.tolist()


class TestBatchedGather:
    """``gather_liked`` collects offsets in bulk; rows must not notice."""

    def _populated(self, users: int = 12, **matrix_args):
        rng = random.Random(17)
        table = ProfileTable()
        for user in range(users):
            for item in rng.sample(range(80), rng.randrange(0, 14)):
                table.record(user, item, 1.0 if rng.random() < 0.8 else 0.0)
            table.get_or_create(user)
        return table, LikedMatrix(table, **matrix_args)

    def test_cold_row_in_the_middle_of_the_list(self):
        table, matrix = self._populated()
        twin = LikedMatrix(table, vocab=matrix.vocab)  # same columns
        ids = [4, 9, 2, 7, 11]
        for uid in (4, 9, 7, 11):  # 2 stays cold until the gather
            matrix.liked_row(uid)
        assert 2 not in matrix._start
        _assert_same_csr(matrix.gather_liked(ids), _reference_gather(twin, ids))
        assert matrix.liked_sizes(ids).tolist() == matrix.gather_liked(ids)[2].tolist()

    def test_empty_list_and_single_id(self):
        table, matrix = self._populated()
        twin = LikedMatrix(table, vocab=matrix.vocab)  # same columns
        indices, indptr, sizes = matrix.gather_liked([])
        assert (indices.size, indptr.tolist(), sizes.size) == (0, [0], 0)
        assert matrix.liked_sizes([]).size == 0
        for ids in ([5], (5,), [3, 3]):
            _assert_same_csr(
                matrix.gather_liked(ids), _reference_gather(twin, list(ids))
            )

    def test_compaction_in_the_middle_of_a_gather(self):
        # A tiny arena: materializing the cold tail of the list has to
        # compact, which moves the rows whose offsets were read first.
        table, matrix = self._populated(users=30, initial_capacity=16)
        twin = LikedMatrix(table, vocab=matrix.vocab)  # same columns
        warm = [0, 1, 2]
        for uid in warm:
            matrix.liked_row(uid)
        compactions = matrix.compactions
        ids = warm + list(range(3, 30))
        got = matrix.gather_liked(ids)
        assert matrix.compactions > compactions
        _assert_same_csr(got, _reference_gather(twin, ids))

    def test_unknown_user_still_raises_key_error(self):
        _, matrix = self._populated()
        with pytest.raises(KeyError):
            matrix.gather_liked([1, 404])
        with pytest.raises(KeyError):
            matrix.liked_sizes([404])


def _reference_postings(table: ProfileTable, matrix: LikedMatrix, owns=None):
    """Like by like, in table order: what ``_rebuild_postings`` replaced."""
    postings: dict[int, list[int]] = {}
    for user in table:
        if owns is not None and not owns(user):
            continue
        for item in table.get(user).liked_items():
            postings.setdefault(item, []).append(user)
    return postings


class TestVectorizedPostingsRebuild:
    def _table(self) -> ProfileTable:
        rng = random.Random(23)
        table = ProfileTable()
        for step in range(1500):
            user = rng.randrange(60)
            item = rng.randrange(90)
            # Re-ratings flip opinions: plenty of un-likes in the stream.
            table.record(user, item, 1.0 if rng.random() < 0.65 else 0.0)
        table.get_or_create(777)  # a user without a single rating
        return table

    @pytest.mark.parametrize("owns", [None, lambda uid: uid % 3 == 1])
    def test_matches_per_like_reference(self, owns):
        table = self._table()
        matrix = LikedMatrix(table, row_filter=owns)
        reference = _reference_postings(table, matrix, owns)
        for item in range(90):
            posting = matrix.posting(item)
            if posting.size:
                assert posting.dtype == np.int64
            # Same users in the same (table) order as appending would give.
            assert posting.tolist() == reference.get(item, [])

    def test_rebuilt_postings_keep_absorbing_writes(self):
        table = self._table()
        matrix = LikedMatrix(table)
        matrix.posting(0)  # rebuild: every list is now a full view
        for user, item, value in [(5, 0, 1.0), (901, 0, 1.0), (5, 0, 0.0), (902, 89, 1.0)]:
            table.record(user, item, value)
        reference = _reference_postings(table, matrix)
        for item in range(90):
            assert sorted(matrix.posting(item).tolist()) == sorted(
                reference.get(item, [])
            )

    def test_rebuild_is_an_event_with_a_duration(self):
        from repro.obs.events import EventLog

        events = EventLog()
        matrix = LikedMatrix(self._table(), events=events)
        assert events.records("postings_rebuild") == []
        matrix.posting(0)
        matrix.posting(1)  # clean: no second rebuild
        (event,) = events.records("postings_rebuild")
        assert float(event.get("duration_ms")) >= 0.0
        assert int(event.get("likes")) == sum(
            matrix.posting(item).size for item in range(90)
        )


class TestSparseIdCsc:
    """The CSC bincount must not allocate O(max user id) memory."""

    def test_sparse_ids_use_compressed_counts(self):
        # A handful of ten-digit user ids: the dense path would ask
        # for a multi-gigabyte count array.  The compressed path must
        # agree with the CSR scan exactly.
        rng = random.Random(17)
        table = ProfileTable()
        matrix = LikedMatrix(table)
        users = [10**12 + i * 10**7 for i in range(40)]
        expected = {}
        for uid in users:
            items = rng.sample(range(30), rng.randrange(1, 12))
            expected[uid] = set(items)
            for item in items:
                table.record(uid, item, 1.0)
        query_items = list(range(0, 30, 2))
        query = matrix.known_columns(query_items)
        # Duplicate candidates exercise the inverse mapping.
        candidates = users + users[:7]
        csc = matrix.batch_intersections_csc(
            query, np.asarray(candidates, dtype=np.int64)
        )
        indices, indptr, _ = matrix.gather_liked(candidates)
        csr = matrix.batch_intersections(query, indices, indptr)
        assert np.array_equal(csc, csr)
        assert csc.tolist() == [
            len(expected[uid] & set(query_items)) for uid in candidates
        ]

    def test_dense_ids_still_agree(self):
        rng = random.Random(19)
        table = ProfileTable()
        matrix = LikedMatrix(table)
        for uid in range(300):
            for item in rng.sample(range(50), rng.randrange(1, 10)):
                table.record(uid, item, 1.0)
        query = matrix.known_columns(list(range(0, 50, 3)))
        candidates = list(range(300))
        csc = matrix.batch_intersections_csc(
            query, np.asarray(candidates, dtype=np.int64)
        )
        indices, indptr, _ = matrix.gather_liked(candidates)
        assert np.array_equal(
            csc, matrix.batch_intersections(query, indices, indptr)
        )


class TestMetricRegistryUnchanged:
    def test_builtin_names_still_resolve(self):
        for name in ("cosine", "jaccard", "overlap"):
            assert callable(get_metric(name))
