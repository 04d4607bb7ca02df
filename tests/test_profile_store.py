"""The Profile Table's store: its memory per rating, and a model check.

A profile keeps one dict entry per rating, ``item -> opinion``, with
the opinion one of two shared constants and the item id shared by the
whole table.  The first test holds that footprint; the property tests
drive the store (and the liked matrix's postings rebuilt from it)
against a plain ``dict`` model.
"""

from __future__ import annotations

import gc
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.core.profiles import Profile
from repro.core.tables import ProfileTable
from repro.datasets.synthetic import StreamingLoader, SyntheticSpec
from repro.engine import LikedMatrix
from repro.messages import encode_json

#: Python heap per stored rating of a bare table loaded from the write
#: stream below.  The store reads ~81 B there (the dict entry, the
#: table's share of the profiles and item ids).  The bound leaves ~25 %
#: headroom, far below the ~255 B a tuple, boxed numbers and a liked-set
#: entry per rating would cost.
MAX_HEAP_BYTES_PER_RATING = 100


def test_table_heap_per_rating_stays_small():
    loader = StreamingLoader(
        SyntheticSpec(num_users=2_000, total_writes=40_000, seed=0)
    )
    gc.collect()
    tracemalloc.start()
    try:
        table = ProfileTable()
        loader.load_into(table)
        gc.collect()
        heap, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratings = sum(len(table.get(uid)) for uid in table)
    assert ratings > 20_000  # the stream overwrites, but not that much
    assert heap / ratings < MAX_HEAP_BYTES_PER_RATING, (
        f"{heap / ratings:.1f} B per stored rating ({heap:,} B / {ratings:,})"
    )


#: A value a caller may pass for a like or a dislike.
_VALUES = st.sampled_from([1.0, 0.0, True, False, 1, 0])

#: (user, item, value) writes over small id spaces, so items are
#: overwritten, liked, un-liked and re-liked.
_WRITES = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 12), _VALUES), max_size=80
)


@given(writes=st.lists(st.tuples(st.integers(0, 12), _VALUES), max_size=60))
def test_profile_matches_a_dict_model(writes):
    profile = Profile(0)
    model: dict[int, float] = {}
    for item, value in writes:
        assert profile.add(item, value) == model.get(item)
        model[item] = float(value)
        assert len(profile) == len(model)
        assert (item in profile) and profile.value_of(item) == model[item]
    assert profile.liked_items() == {i for i, v in model.items() if v == 1.0}
    assert profile.disliked_items() == {i for i, v in model.items() if v == 0.0}
    assert profile.rated_items() == set(model)
    assert set(profile.liked_live()) == profile.liked_items()
    assert list(profile) == list(model)  # first-rating order, like a dict
    assert profile.to_payload() == {str(i): v for i, v in model.items()}
    assert profile.json_fragment() == encode_json(
        {str(i): v for i, v in model.items()}
    )
    for item in range(13):
        if item not in model:
            assert item not in profile and profile.value_of(item) is None


def _postings(matrix: LikedMatrix, items: range) -> dict[int, list[int]]:
    return {item: sorted(matrix.posting(item).tolist()) for item in items}


@settings(max_examples=60)
@given(writes=_WRITES)
def test_rebuilt_postings_equal_postings_grown_write_by_write(writes):
    table = ProfileTable()
    grown = LikedMatrix(table)
    grown.posting(0)  # built over the empty table: every write appends
    model: dict[tuple[int, int], float] = {}
    for user, item, value in writes:
        table.record(user, item, value)
        model[user, item] = float(value)
    rebuilt = LikedMatrix(table, subscribe=False)  # first read rebuilds
    likes = sorted(key for key, value in model.items() if value == 1.0)
    expected = {
        item: [user for user, liked in likes if liked == item] for item in range(13)
    }
    assert _postings(rebuilt, range(13)) == expected
    assert _postings(grown, range(13)) == expected
    for user in table:
        liked = [item for liker, item in likes if liker == user]
        for matrix in (grown, rebuilt):
            row = matrix.liked_row(user)
            assert sorted(matrix.item_array()[row].tolist()) == liked
