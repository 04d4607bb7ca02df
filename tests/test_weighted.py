"""Tests for the non-binary (weighted) similarity extension."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.core.client import HyRecWidget, make_job
from repro.core.similarity import cosine
from repro.core.weighted import (
    get_payload_metric,
    payload_cosine,
    payload_pearson,
)

payloads = st.dictionaries(
    keys=st.integers(0, 30).map(str),
    values=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    max_size=15,
)


class TestPayloadCosine:
    def test_identical_profiles_score_one(self):
        profile = {"1": 5.0, "2": 3.0}
        assert payload_cosine(profile, profile) == pytest.approx(1.0)

    def test_disjoint_profiles_score_zero(self):
        assert payload_cosine({"1": 5.0}, {"2": 5.0}) == 0.0

    def test_weights_matter(self):
        user = {"1": 5.0, "2": 5.0}
        # Candidate A agrees on the 5-star item; B on a 1-star one.
        strong = {"1": 5.0, "9": 1.0}
        weak = {"1": 1.0, "9": 5.0}
        assert payload_cosine(user, strong) > payload_cosine(user, weak)

    def test_reduces_to_set_cosine_on_binary(self):
        a = {"1": 1.0, "2": 1.0, "3": 0.0}
        b = {"2": 1.0, "4": 1.0}
        liked_a = frozenset(k for k, v in a.items() if v == 1.0)
        liked_b = frozenset(k for k, v in b.items() if v == 1.0)
        # Dislikes are zero-weight, so they vanish from the math.
        assert payload_cosine(a, b) == pytest.approx(cosine(liked_a, liked_b))

    def test_empty_profiles(self):
        assert payload_cosine({}, {"1": 1.0}) == 0.0

    @given(a=payloads, b=payloads)
    def test_symmetric_and_bounded(self, a, b):
        forward = payload_cosine(a, b)
        assert forward == pytest.approx(payload_cosine(b, a))
        assert 0.0 <= forward <= 1.0 + 1e-9


class TestPayloadPearson:
    def test_perfect_agreement(self):
        a = {"1": 1.0, "2": 3.0, "3": 5.0}
        b = {"1": 2.0, "2": 3.0, "3": 4.0}  # same ordering, linear
        assert payload_pearson(a, b) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        a = {"1": 1.0, "2": 5.0}
        b = {"1": 5.0, "2": 1.0}
        assert payload_pearson(a, b) == pytest.approx(0.0)  # r=-1 -> 0

    def test_single_corated_item_scores_zero(self):
        assert payload_pearson({"1": 5.0, "2": 1.0}, {"1": 5.0, "9": 3.0}) == 0.0

    def test_zero_variance_scores_zero(self):
        a = {"1": 3.0, "2": 3.0}
        b = {"1": 1.0, "2": 5.0}
        assert payload_pearson(a, b) == 0.0

    @given(a=payloads, b=payloads)
    # var_a * var_b underflows to 0.0 although neither variance is 0.
    @example(a={"0": 7.6e-145, "1": 0.0}, b={"0": 7.6e-145, "1": 0.0})
    def test_symmetric_and_bounded(self, a, b):
        forward = payload_pearson(a, b)
        assert forward == pytest.approx(payload_pearson(b, a))
        assert 0.0 <= forward <= 1.0 + 1e-9


class TestRegistry:
    def test_lookup(self):
        assert get_payload_metric("payload-cosine") is payload_cosine
        assert get_payload_metric("payload-pearson") is payload_pearson

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_payload_metric("manhattan")


class TestWeightedWidget:
    def test_payload_hook_changes_ranking(self):
        """Binary cosine ties the candidates; weights break the tie."""
        job = make_job(
            user_token="u",
            user_profile={"1": 1.0, "2": 1.0},
            candidates={
                # Same liked sets -> identical binary cosine...
                "strong": {"1": 1.0, "2": 1.0},
                "weak": {"1": 1.0, "2": 1.0},
            },
            k=2,
            r=1,
        )
        # ...but give 'weak' diluting extra mass via a modified copy.
        job = make_job(
            user_token="u",
            user_profile={"1": 5.0 / 5, "2": 5.0 / 5},
            candidates={
                "strong": {"1": 1.0, "2": 1.0},
                "weak": {"1": 1.0, "2": 1.0, "9": 1.0},
            },
            k=2,
            r=1,
        )
        widget = HyRecWidget(payload_similarity=payload_cosine)
        result = widget.process_job(job)
        assert result.neighbor_tokens[0] == "strong"

    def test_binary_jobs_still_work(self):
        job = make_job(
            user_token="u",
            user_profile={"1": 1.0},
            candidates={"a": {"1": 1.0}, "b": {"2": 1.0}},
            k=1,
            r=1,
        )
        widget = HyRecWidget(payload_similarity=payload_cosine)
        result = widget.process_job(job)
        assert result.neighbor_tokens == ["a"]

    def test_recommendations_unaffected_by_hook(self):
        job = make_job(
            user_token="u",
            user_profile={"1": 1.0},
            candidates={"a": {"1": 1.0, "7": 1.0}},
            k=1,
            r=3,
        )
        plain = HyRecWidget().process_job(job)
        weighted = HyRecWidget(payload_similarity=payload_cosine).process_job(job)
        assert plain.recommended_items == weighted.recommended_items
