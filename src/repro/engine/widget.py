"""A drop-in widget that executes jobs on numpy batch kernels.

:class:`VectorizedWidget` is interface-compatible with
:class:`repro.core.client.HyRecWidget`: :meth:`process_job` accepts the
same wire-format :class:`~repro.core.jobs.PersonalizationJob` and
returns a bit-for-bit identical :class:`~repro.core.jobs.JobResult`
(same neighbors in the same order, same tie-breaks, same scores, same
recommendations).  Instead of one Python set intersection per
candidate, it scores the whole candidate set with a single batched
kernel pass.

Two execution modes:

* :meth:`process_job` -- operates on wire payloads (string item keys).
  Used wherever a real browser widget would run.  Falls back to the
  Python widget automatically for custom ``setSimilarity()`` /
  ``setRecommendedItems()`` hooks, payload (non-binary) metrics, and
  unknown metric names.
* :meth:`process_engine_job` -- the in-process fast path: reads integer
  liked sets straight from a :class:`~repro.engine.liked_matrix.LikedMatrix`,
  skipping payload materialization entirely.  Selected by
  ``HyRecConfig(engine="vectorized")``.

Tie-break parity
----------------
The Python engine ranks neighbors by ``(-score, token)`` and items by
``(-popularity, item-key-string)``.  The vectorized paths reproduce
both exactly: candidates are pre-sorted by token and ranked with a
stable sort, and item ties are resolved on the string form of the item
id.
"""

from __future__ import annotations

import numpy as np

from repro.core.client import HyRecWidget
from repro.core.jobs import JobResult, PersonalizationJob
from repro.engine.jobs import EngineJob
from repro.engine.kernels import (
    SUPPORTED_METRICS,
    intersection_counts,
    rank_descending,
    select_top_items,
    similarity_scores,
)
from repro.engine.liked_matrix import LikedMatrix


class VectorizedWidget:
    """Batched-kernel executor of personalization jobs."""

    def __init__(
        self,
        similarity=None,
        recommender=None,
        device=None,
        payload_similarity=None,
    ) -> None:
        """Same signature as :class:`HyRecWidget`.

        Any customization hook (``similarity``, ``recommender``,
        ``payload_similarity``) routes jobs through the embedded
        Python widget -- custom code expects Python sets, not column
        arrays.
        """
        self._fallback = HyRecWidget(
            similarity=similarity,
            recommender=recommender,
            device=device,
            payload_similarity=payload_similarity,
        )
        self._customized = (
            similarity is not None
            or recommender is not None
            or payload_similarity is not None
        )
        self.device = device

    # --- capability probe -----------------------------------------------------

    def can_vectorize(self, metric: str) -> bool:
        """Whether jobs with ``metric`` run on the batched kernels."""
        return not self._customized and metric in SUPPORTED_METRICS

    # --- wire-format jobs -----------------------------------------------------

    def process_job(self, job: PersonalizationJob) -> JobResult:
        """Run KNN selection and item recommendation for one job."""
        if not self.can_vectorize(job.metric):
            return self._fallback.process_job(job)
        return self._process_wire_job(job)

    def _process_wire_job(self, job: PersonalizationJob) -> JobResult:
        user_liked_keys = [
            key for key, value in job.user_profile.items() if value == 1.0
        ]
        cand_tokens = sorted(job.candidates)
        cand_liked_keys = [
            [k for k, v in job.candidates[t].items() if v == 1.0]
            for t in cand_tokens
        ]

        # Local vocabulary in ascending key order, so column order ==
        # the Python engine's item tie-break order.
        vocab_keys: set[str] = set(job.user_profile)
        for liked in cand_liked_keys:
            vocab_keys.update(liked)
        keys_sorted = sorted(vocab_keys)
        col_of = {key: col for col, key in enumerate(keys_sorted)}
        num_cols = len(keys_sorted)

        user_cols = np.fromiter(
            (col_of[k] for k in user_liked_keys),
            dtype=np.int64,
            count=len(user_liked_keys),
        )
        sizes = np.fromiter(
            (len(liked) for liked in cand_liked_keys),
            dtype=np.int64,
            count=len(cand_liked_keys),
        )
        indptr = np.zeros(len(cand_liked_keys) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        if cand_liked_keys:
            indices = np.fromiter(
                (col_of[k] for liked in cand_liked_keys for k in liked),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
        else:
            indices = np.zeros(0, dtype=np.int64)

        flags = np.zeros(num_cols, dtype=np.int64)
        flags[user_cols] = 1
        inter = intersection_counts(flags, indices, indptr)
        scores = similarity_scores(
            job.metric, inter, float(user_cols.size), sizes
        )

        neighbor_tokens: list[str] = []
        neighbor_scores: list[float] = []
        for idx in rank_descending(scores):
            if cand_tokens[idx] == job.user_token:
                continue  # a user is never her own neighbor
            neighbor_tokens.append(cand_tokens[idx])
            neighbor_scores.append(float(scores[idx]))
            if len(neighbor_tokens) == job.k:
                break

        rated_cols = np.fromiter(
            (col_of[k] for k in job.user_profile),
            dtype=np.int64,
            count=len(job.user_profile),
        )
        popularity = np.bincount(indices, minlength=num_cols)
        if rated_cols.size:
            popularity[rated_cols] = 0
        order = rank_descending(popularity)
        keep = min(job.r, int((popularity > 0).sum()))
        recommended = [keys_sorted[c] for c in order[:keep]]

        return JobResult(
            user_token=job.user_token,
            neighbor_tokens=neighbor_tokens,
            recommended_items=recommended,
            neighbor_scores=neighbor_scores,
        )

    # --- in-process fast path -------------------------------------------------

    def process_engine_job(
        self, job: EngineJob, matrix: LikedMatrix
    ) -> JobResult:
        """Execute an integer-indexed job against the liked matrix.

        The caller (``HyRecSystem``) only routes jobs here when
        :meth:`can_vectorize` holds for the job's metric.
        """
        if not self.can_vectorize(job.metric):
            raise RuntimeError(
                "engine jobs require a built-in metric and no custom "
                "hooks; route this request through the wire path"
            )
        user_cols = matrix.liked_row(job.user_id)
        indices, indptr, sizes = matrix.gather_liked(job.candidate_ids)
        inter = matrix.intersections_auto(
            user_cols, job.candidate_ids, indices, indptr
        )
        scores = similarity_scores(
            job.metric, inter, float(user_cols.size), sizes
        )
        order = rank_descending(scores)[: job.k]
        neighbor_tokens = [job.candidate_tokens[i] for i in order.tolist()]
        neighbor_scores = scores[order].tolist()

        # Materialize the rated row *before* sizing the popularity
        # array: on a matrix attached to a pre-populated table this is
        # the read that interns the user's disliked items, and the
        # exclusion scatter below must not index past the bincount.
        rated_cols = matrix.rated_row(job.user_id)
        recommended = self._recommend_from_counts(
            np.bincount(indices, minlength=matrix.num_cols),
            rated_cols,
            job.r,
            matrix,
        )
        return JobResult(
            user_token=job.user_token,
            neighbor_tokens=neighbor_tokens,
            recommended_items=recommended,
            neighbor_scores=neighbor_scores,
        )

    @staticmethod
    def _recommend_from_counts(
        popularity: np.ndarray,
        rated_cols: np.ndarray,
        r: int,
        matrix: LikedMatrix,
    ) -> list[str]:
        """Top-``r`` unseen items, tie-broken on the item-id *string*.

        Column interning order is item-arrival order, not string order,
        so tie resolution lives in :func:`select_top_items`, shared
        with the cluster coordinator's cross-shard popularity merge.
        """
        if rated_cols.size:
            popularity[rated_cols] = 0
        # Only counts at or above the r-th best can reach the top r:
        # find that floor over the whole vocabulary first, so the item
        # ids and counts handed on are a handful, not every column a
        # candidate touched.
        floor = 1
        if 0 < r < popularity.size:
            cut = popularity.size - r
            floor = max(floor, int(np.partition(popularity, cut)[cut]))
        top = np.nonzero(popularity >= floor)[0]
        if top.size == 0:
            return []
        return select_top_items(matrix.item_array()[top], popularity[top], r)

    # --- device-time estimation ----------------------------------------------

    def op_count(self, job: PersonalizationJob | EngineJob) -> int:
        """Primitive operations this job costs (same model as Python)."""
        if isinstance(job, EngineJob):
            from repro.sim.devices import widget_op_count

            return widget_op_count(
                job.user_profile_size, job.candidate_profile_sizes
            )
        return self._fallback.op_count(job)

    def estimated_time(self, job: PersonalizationJob | EngineJob) -> float:
        """Seconds the job would take on the configured device."""
        if self.device is None:
            raise RuntimeError("no device model configured on this widget")
        return self.device.task_time(self.op_count(job))
