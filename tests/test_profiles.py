"""Tests for Profile and its wire-format caching."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.profiles import Profile
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
