"""Tests for Profile and its wire-format caching."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.profiles import DISLIKE, LIKE, Profile
from repro.core.tables import ProfileTable
from repro.messages import encode_json


class TestProfileBasics:
    def test_new_profile_is_empty(self):
        profile = Profile(1)
        assert profile.size == 0
        assert profile.liked_items() == frozenset()
        assert profile.rated_items() == frozenset()

    def test_add_like(self):
        profile = Profile(1)
        profile.add(10, 1.0, timestamp=5.0)
        assert 10 in profile
        assert profile.liked_items() == {10}
        assert profile.disliked_items() == frozenset()
        assert profile.value_of(10) == 1.0

    def test_add_dislike(self):
        profile = Profile(1)
        profile.add(10, 0.0)
        assert profile.liked_items() == frozenset()
        assert profile.disliked_items() == {10}

    def test_rerate_overwrites(self):
        profile = Profile(1)
        profile.add(10, 1.0)
        profile.add(10, 0.0)
        assert profile.size == 1
        assert profile.liked_items() == frozenset()
        assert profile.disliked_items() == {10}

    def test_non_binary_value_rejected(self):
        profile = Profile(1)
        with pytest.raises(ValueError, match="binary"):
            profile.add(10, 3.5)

    def test_value_of_unrated_is_none(self):
        assert Profile(1).value_of(99) is None

    def test_len_and_iter(self):
        profile = Profile(1)
        profile.add(1, 1.0)
        profile.add(2, 0.0)
        assert len(profile) == 2
        assert set(profile) == {1, 2}


class TestCanonicalOpinion:
    """A like is stored, encoded and announced one way, whatever the
    caller's type: otherwise a profile's wire bytes (and Figure 10's
    byte counts) would depend on how the rating arrived."""

    @pytest.mark.parametrize(
        "spellings", [(True, 1, 1.0), (False, 0, 0.0)], ids=["like", "dislike"]
    )
    def test_every_spelling_renders_the_same(self, spellings):
        profiles = []
        for value in spellings:
            profile = Profile(1)
            profile.add(5, value)
            profile.add(6, 1.0 - float(value))
            profiles.append(profile)
        first = profiles[0]
        for profile in profiles[1:]:
            assert profile.json_fragment() == first.json_fragment()
            assert encode_json(profile.to_payload()) == encode_json(first.to_payload())
            assert profile.deflated_fragment() == first.deflated_fragment()
        for profile in profiles:
            assert type(profile.value_of(5)) is float
            assert encode_json(profile.to_payload()) == profile.json_fragment()

    def test_stored_opinion_is_the_shared_constant(self):
        profile = Profile(1)
        profile.add(5, True)
        profile.add(6, 0)
        assert profile.value_of(5) is LIKE
        assert profile.value_of(6) is DISLIKE

    def test_add_returns_previous_opinion(self):
        profile = Profile(1)
        assert profile.add(5, 1) is None
        assert profile.add(5, False) is LIKE
        assert profile.add(5, 0.0) is DISLIKE

    def test_listener_receives_the_stored_opinion(self):
        table = ProfileTable()
        seen = []
        table.add_listener(lambda *write: seen.append(write))
        table.record(1, 5, True)
        table.record(1, 5, 0)
        assert seen == [(1, 5, 1.0, None), (1, 5, 0.0, 1.0)]
        assert [type(value) for _, _, value, _ in seen] == [float, float]

    @pytest.mark.parametrize("value", [2, -1.0, 0.5, float("nan"), "1", None, [1]])
    def test_anything_else_is_rejected(self, value):
        with pytest.raises(ValueError, match="binary"):
            Profile(1).add(5, value)


class TestPayloadCache:
    def test_payload_round_trip(self):
        profile = Profile(3)
        profile.add(10, 1.0)
        profile.add(20, 0.0)
        payload = profile.to_payload()
        rebuilt = Profile.from_payload(3, payload)
        assert rebuilt.liked_items() == profile.liked_items()
        assert rebuilt.disliked_items() == profile.disliked_items()

    def test_payload_is_cached_between_writes(self):
        profile = Profile(1)
        profile.add(10, 1.0)
        assert profile.to_payload() is profile.to_payload()

    def test_cache_invalidated_on_write(self):
        profile = Profile(1)
        profile.add(10, 1.0)
        first = profile.to_payload()
        profile.add(11, 1.0)
        second = profile.to_payload()
        assert first is not second
        assert "11" in second

    def test_payload_keys_are_strings(self):
        profile = Profile(1)
        profile.add(42, 1.0)
        assert profile.to_payload() == {"42": 1.0}

    def test_payload_excludes_timestamps(self):
        profile = Profile(1)
        profile.add(42, 1.0, timestamp=123.0)
        assert profile.to_payload() == {"42": 1.0}

    def test_fragment_keeps_no_payload_dict(self):
        # A profile that only travels as bytes must not hold the dict
        # the bytes were encoded from.
        profile = Profile(1)
        for item in (42, 7, 1000, 3):
            profile.add(item, float(item % 2))
        fragment = profile.json_fragment()
        assert profile._payload_cache is None
        assert fragment == encode_json(profile.to_payload())


class TestCopy:
    def test_copy_is_independent(self):
        original = Profile(1)
        original.add(10, 1.0)
        duplicate = original.copy()
        duplicate.add(11, 1.0)
        assert 11 not in original
        assert 11 in duplicate

    def test_copy_preserves_liked(self):
        original = Profile(1)
        original.add(10, 1.0)
        original.add(20, 0.0)
        duplicate = original.copy()
        assert duplicate.liked_items() == {10}
        assert duplicate.disliked_items() == {20}


class TestProfileProperties:
    @given(
        ratings=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.sampled_from([0.0, 1.0]),
            ),
            max_size=40,
        )
    )
    def test_liked_disliked_partition_rated(self, ratings):
        profile = Profile(0)
        for item, value in ratings:
            profile.add(item, value)
        liked = profile.liked_items()
        disliked = profile.disliked_items()
        assert liked | disliked == profile.rated_items()
        assert liked & disliked == frozenset()

    @given(
        ratings=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.sampled_from([0.0, 1.0]),
            ),
            max_size=40,
        )
    )
    def test_last_write_wins(self, ratings):
        profile = Profile(0)
        expected: dict[int, float] = {}
        for item, value in ratings:
            profile.add(item, value)
            expected[item] = value
        for item, value in expected.items():
            assert profile.value_of(item) == value

    @given(
        ratings=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.sampled_from([0.0, 1.0]),
            ),
            max_size=40,
        )
    )
    def test_payload_round_trip_preserves_state(self, ratings):
        profile = Profile(0)
        for item, value in ratings:
            profile.add(item, value)
        rebuilt = Profile.from_payload(0, profile.to_payload())
        assert rebuilt.liked_items() == profile.liked_items()
        assert rebuilt.rated_items() == profile.rated_items()
