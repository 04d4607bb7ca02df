"""Integer-indexed personalization jobs: the in-process fast path and
every HTTP ``/online`` render.

An :class:`EngineJob` is the vectorized twin of
:class:`repro.core.jobs.PersonalizationJob`: same orchestration inputs
(user, candidate set, ``k``/``r``/metric), but users are referenced by
their integer ids instead of carrying materialized ``{str(item):
value}`` payload dicts.  The actual liked sets are read straight from
the server's :class:`~repro.engine.liked_matrix.LikedMatrix`, so the
per-request payload materialization and per-candidate
``_liked_keys()`` reconstruction of the wire path disappear entirely.

The anonymous tokens still ride along (in the same mint order as the
wire path) because they are what the widget reports back and what the
byte-identical wire rendering emits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineJob:
    """One personalization job expressed over integer ids.

    ``candidate_tokens`` and ``candidate_ids`` are parallel sequences
    sorted by ascending token -- the same deterministic order the
    Python engine's tie-breaks and the wire renderer iterate in.
    """

    user_id: int
    user_token: str
    candidate_ids: tuple[int, ...]
    candidate_tokens: tuple[str, ...]
    k: int
    r: int
    metric: str = "cosine"
    #: Rated-item counts (the paper's "profile size"), mirroring what
    #: ``len(job.user_profile)`` / ``len(profile)`` expose on the wire
    #: job -- kept so device-time estimation (Figures 11-13) works on
    #: fast-path outcomes too.
    user_profile_size: int = 0
    candidate_profile_sizes: tuple[int, ...] = ()
    #: ``(trace_id, span_id)`` of the request's root span when tracing
    #: is on (see :mod:`repro.obs.tracing`); the sharded engine's
    #: batch/schedule spans parent to it, stitching one trace per
    #: request.  ``None`` whenever tracing is off.
    trace_ctx: tuple[int, int] | None = None

    def candidate_count(self) -> int:
        """Size of the candidate set carried by this job."""
        return len(self.candidate_ids)
