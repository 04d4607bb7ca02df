"""Model-based arena accounting test (hypothesis).

Drives a :class:`~repro.engine.liked_matrix.LikedMatrix` through
random interleavings of writes, un-likes, reads, gathers, refreshes
and explicit compactions, and checks it against a dict-of-sets oracle
after *every* step:

* ``arena_live`` equals the oracle mass of the resident rows exactly
  (not approximately: every superseded segment must be accounted as
  garbage, every invalidated row must return its cells).
* ``arena_garbage``/``arena_entries``/``arena_capacity`` stay
  consistent, and an explicit compaction drops garbage to zero and
  shrinks the allocation to within 4x of the live footprint.
* Rows and rated rows read back exactly the oracle state, including
  rows rebuilt after a refresh.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tables import ProfileTable
from repro.engine.liked_matrix import LikedMatrix


USERS = st.integers(0, 7)
ITEMS = st.integers(0, 15)

OPS = st.one_of(
    st.tuples(st.just("like"), USERS, ITEMS),
    st.tuples(st.just("unlike"), USERS, ITEMS),
    st.tuples(st.just("read"), USERS),
    st.tuples(st.just("rated"), USERS),
    st.tuples(st.just("gather"), st.lists(USERS, max_size=5)),
    st.tuples(st.just("refresh"), USERS),
    st.tuples(st.just("compact")),
)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(OPS, max_size=60))
def test_arena_accounting_matches_oracle(ops):
    table = ProfileTable()
    matrix = LikedMatrix(table)
    liked: dict[int, set[int]] = {}
    rated: dict[int, set[int]] = {}

    def items_of(row) -> list[int]:
        cols = np.asarray(row, dtype=np.int64)
        return sorted(matrix.item_array()[cols].tolist())

    for op in ops:
        kind = op[0]
        if kind == "like":
            _, uid, item = op
            table.record(uid, item, 1.0)
            liked.setdefault(uid, set()).add(item)
            rated.setdefault(uid, set()).add(item)
        elif kind == "unlike":
            _, uid, item = op
            table.record(uid, item, 0.0)
            liked.setdefault(uid, set()).discard(item)
            rated.setdefault(uid, set()).add(item)
        elif kind == "read":
            _, uid = op
            table.get_or_create(uid)
            assert items_of(matrix.liked_row(uid)) == sorted(
                liked.get(uid, set())
            )
        elif kind == "rated":
            _, uid = op
            table.get_or_create(uid)
            assert items_of(matrix.rated_row(uid)) == sorted(
                rated.get(uid, set())
            )
        elif kind == "gather":
            _, uids = op
            for uid in uids:
                table.get_or_create(uid)
            indices, indptr, sizes = matrix.gather_liked(uids)
            for i, uid in enumerate(uids):
                segment = indices[indptr[i] : indptr[i + 1]]
                assert items_of(segment) == sorted(liked.get(uid, set()))
                assert sizes[i] == len(liked.get(uid, set()))
        elif kind == "refresh":
            _, uid = op
            matrix.refresh(uid)
            assert uid not in matrix._start
        elif kind == "compact":
            matrix._compact(0)
            assert matrix.arena_garbage == 0
            assert matrix.arena_capacity < max(4 * matrix.arena_live, 32)

        # --- invariants, after every single step -----------------------------
        stats = matrix.memory_stats()
        resident = list(matrix._start)
        expected_live = sum(len(liked.get(uid, set())) for uid in resident)
        assert stats["arena_live"] == expected_live
        assert stats["arena_garbage"] >= 0
        assert (
            stats["arena_entries"]
            == stats["arena_live"] + stats["arena_garbage"]
        )
        assert stats["arena_capacity"] >= stats["arena_entries"]

    # Final read-back: every user the oracle knows, including all the
    # refreshed-and-rebuilt ones, must report exact state.
    for uid in sorted(set(liked) | set(rated)):
        assert items_of(matrix.liked_row(uid)) == sorted(liked.get(uid, set()))
        assert items_of(matrix.rated_row(uid)) == sorted(rated.get(uid, set()))
