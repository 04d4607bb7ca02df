"""Scatter/gather orchestration over the sharded liked matrix.

:class:`ClusterCoordinator` executes :class:`~repro.engine.jobs.EngineJob`
requests across N shards:

1. **Scatter** -- each job's (token-sorted) candidate list is split by
   hash placement; every candidate keeps its *position* in the job's
   global order, so tokens never travel to the shards.  The
   requester's liked/rated sets map to columns *once* per job: the
   shards share one item vocabulary (the process executor replicates
   it via append-only deltas), so the same column array is valid
   everywhere.  The scatter output is per-shard
   :class:`~repro.cluster.scoring.ShardSlice` lists -- pure data, so
   the same slices can run on an in-process shard or ship to a worker
   process unchanged.
2. **Shard-local scoring** -- per shard,
   :func:`~repro.cluster.scoring.score_slices` covers all jobs of the
   batch with *one* CSR gather, one
   :func:`~repro.engine.kernels.segment_sums` pass, and (for the
   config-uniform metric of a real deployment) one
   :func:`~repro.engine.kernels.similarity_scores` call.  In-process
   executors return zero-copy
   :class:`~repro.cluster.scoring.ShardPartial` views; worker
   processes return :class:`~repro.cluster.scoring.WirePartial`\\ s --
   scores truncated to the shard-local top-K (an exactness-preserving
   cut: every global top-K member is inside its own shard's top-K)
   and popularity pre-histogrammed into sparse column counts.
3. **Merge** -- per job, one ``lexsort`` over the concatenated
   partials ranks by ``(-score, position)``; positions follow the
   job's ascending-token order, so this *is* the Python engine's
   ``(-score, token)`` total order.  Popularity merges as one
   ``bincount`` over concatenated liked-column segments (in-process)
   or as an integer sum of sparse histograms (wire partials) -- the
   two are the same exact integers, after which the recommendation
   step is literally the single-matrix one (zero the rated columns,
   ``(-count, str(item))`` selection).

Because the shards partition the candidate set, the merged outputs are
*bit-for-bit* the single-matrix engine's outputs: intersection counts
are exact integers, similarity scores are elementwise float64 (no
cross-candidate reductions, hence no float reassociation), and both
tie-breaks use the same total orders.  ``tests/test_cluster_parity.py``
enforces parity for 1/2/4/8 shards under all three executors.

Shard tasks touch only their own shard's state (the shared vocabulary
is read-mostly, with locked interning; process workers own their state
outright), so the coordinator can run them on any
:mod:`~repro.cluster.executors` back-end without changing a single
output bit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.executors import ShardExecutor, SerialExecutor
from repro.cluster.placement import PlacementMap, rendezvous_owner
from repro.cluster.scoring import (
    ShardPartial,
    ShardSlice,
    merge_popularity_sparse,
    score_slices,
)
from repro.cluster.sharded_matrix import ShardedLikedMatrix, ShardStats
from repro.cluster.supervisor import ShardUnavailable
from repro.core.jobs import JobResult
from repro.core.tables import ProfileTable
from repro.engine.jobs import EngineJob
from repro.engine.kernels import select_top_items
from repro.obs import Observability
from repro.obs.registry import MetricSample

__all__ = [
    "ClusterCoordinator",
    "ShardPartial",
    "merge_popularity",
    "merge_popularity_sparse",
    "merge_topk",
]

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY_F = np.zeros(0, dtype=np.float64)


@dataclass(frozen=True)
class _Query:
    """Per-job requester context, mapped to shared columns once."""

    cols: np.ndarray  # columns of the user's liked items
    liked_count: int  # |L_u| (drives the similarity denominators)
    rated_cols: np.ndarray  # columns of every rated item (exclusions)


def merge_topk(
    score_parts: Sequence[np.ndarray],
    position_parts: Sequence[np.ndarray],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact global top-``k`` from per-shard partial scores.

    Shards hold disjoint candidates, so ranking the union under the
    engine's total order is exact; positions follow the job's
    ascending-token order, so ``(-score, position)`` *is* the Python
    engine's ``(-score, token)``.  (``-0.0 == 0.0`` in IEEE-754, so
    zero-score ties still fall through to the position.)  Works
    unchanged on shard-side-truncated partials: any global top-``k``
    member is inside its own shard's top-``k``.

    Returns ``(positions, scores)`` of the winners, best first.
    """
    if not score_parts:
        return _EMPTY, _EMPTY_F
    if len(score_parts) == 1:
        scores = score_parts[0]
        positions = position_parts[0]
    else:
        scores = np.concatenate(score_parts)
        positions = np.concatenate(position_parts)
    top = np.lexsort((positions, -scores))[:k]
    return positions[top], scores[top]


def merge_popularity(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Dense per-column like counts from per-shard column segments.

    Every part lists the liked-item columns this job's candidates hold
    on one shard (columns are shared cluster-wide).  Candidates are
    disjoint across shards, so one ``bincount`` over the concatenation
    is exactly the single-matrix popularity pass -- integer-exact, and
    cheaper than summing per-shard histograms.  (Wire partials arrive
    pre-histogrammed instead; those merge through
    :func:`~repro.cluster.scoring.merge_popularity_sparse`, which
    produces the same integers.)
    """
    parts = [part for part in parts if part.size]
    if not parts:
        return _EMPTY
    cols = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return np.bincount(cols)


class ClusterCoordinator:
    """Fans engine jobs out to shards and merges exact results."""

    def __init__(
        self,
        table: ProfileTable,
        num_shards: int = 4,
        executor: ShardExecutor | None = None,
        placement: PlacementMap | None = None,
        obs: Observability | None = None,
    ) -> None:
        self._table = table
        self.executor = executor if executor is not None else SerialExecutor()
        if obs is None:
            # Share the executor's instance (the server hands the same
            # one to both); a bare coordinator gets inert instruments.
            obs = getattr(self.executor, "obs", None)
        self.obs = obs if obs is not None else Observability.disabled()
        #: In-process shard matrices; ``None`` when the executor hosts
        #: shard state in worker processes (``hosts_shards = True``).
        self.matrix: ShardedLikedMatrix | None
        if getattr(self.executor, "hosts_shards", False):
            self.matrix = None
            # attach() spawns the workers, warm-start-replays the
            # table's pre-existing profiles, and subscribes to the
            # write stream; the executor then exposes the same
            # vocab/partition/stats surface the in-process matrix does.
            self._shards = self.executor.attach(table, num_shards, placement)
        else:
            self.matrix = ShardedLikedMatrix(table, num_shards, placement)
            self._shards = self.matrix
        self.batches_processed = 0
        self.jobs_processed = 0
        self.migrations = 0
        self.shards_added = 0
        self.shards_removed = 0
        self.bucket_splits = 0
        #: Jobs not served exactly: degraded results plus jobs lost to
        #: a fail-fast :class:`ShardUnavailable` (surfaced in
        #: ``ServerStats.dropped_requests``).
        self.dropped_requests = 0
        #: Serializes batches, stats reads, and topology changes when
        #: any of them run off the serving thread (the autoscaler's
        #: timer).  The process executor exposes its own reentrant
        #: ops lock -- sharing it means the coordinator and executor
        #: agree on one serialization point; in-process executors get
        #: a coordinator-local one.
        self._ops_lock: threading.RLock = (
            getattr(self.executor, "ops_lock", None) or threading.RLock()
        )
        registry = self.obs.registry
        self._batch_seconds = registry.histogram("hyrec_batch_seconds")
        self._jobs_total = registry.counter("hyrec_jobs_total")
        self._migrations_total = registry.counter("hyrec_migrations_total")
        # Per-shard series for the *in-process* executors only: the
        # process executor's workers sample these inside their own
        # registries (polled via metrics_samples), so parent-side
        # handles there would double-count after the merge.  Lists, not
        # tuples: a live join appends a series for the new shard.
        if self.matrix is not None:
            self._shard_jobs: list = []
            self._shard_batches: list = []
            self._shard_score_seconds: list = []
            for shard in range(self.num_shards):
                self._add_shard_instruments(shard)

    def _add_shard_instruments(self, shard: int) -> None:
        """Create (or re-acquire) the in-process shard's metric series."""
        registry = self.obs.registry
        label = str(shard)
        self._shard_jobs.append(
            registry.counter("hyrec_shard_jobs_total", shard=label)
        )
        self._shard_batches.append(
            registry.counter("hyrec_shard_batches_total", shard=label)
        )
        self._shard_score_seconds.append(
            registry.histogram("hyrec_shard_score_seconds", shard=label)
        )

    @property
    def recoveries(self) -> int:
        """Successful automatic worker recoveries (0 for in-process)."""
        supervisor = getattr(self.executor, "supervisor", None)
        return supervisor.recoveries if supervisor is not None else 0

    def rolling_restart(self) -> int:
        """Cycle every worker under live traffic (process executor only).

        Delegates to ``ProcessExecutor.rolling_restart``; in-process
        executors have no workers to cycle, so this raises for them.
        """
        restart = getattr(self.executor, "rolling_restart", None)
        if restart is None:
            raise TypeError(
                "rolling_restart needs a worker-hosting executor "
                "(executor='process')"
            )
        return restart()

    @property
    def num_shards(self) -> int:
        return self._shards.num_shards

    @property
    def table(self) -> ProfileTable:
        """The shared profile table this cluster serves."""
        return self._table

    @property
    def placement(self):
        """The movable :class:`~repro.cluster.placement.PlacementMap`.

        Live routing state -- shared with whichever component hosts
        the shards (in-process matrix or process executor), so its
        ``version`` is the cluster's current routing epoch.
        """
        return self._shards.placement

    def migrate_bucket(self, bucket: int, new_owner: int) -> int:
        """Hand one placement bucket to ``new_owner``; returns the version.

        The coordinator is synchronous, so by construction no batch is
        in flight when this runs (callers holding jobs in a
        ``BatchScheduler`` window must flush it first -- the
        :class:`~repro.cluster.rebalance.ShardRebalancer` does).  The
        heavy lifting is delegated: the in-process matrix just moves
        ownership over the shared table; the process executor runs the
        drain / extract / replay / map-bump / broadcast handoff over
        the shard protocol.  Either way the engine's outputs are
        bit-for-bit unchanged across the move.
        """
        start = time.perf_counter()
        with self._ops_lock:
            if self.matrix is not None:
                version = self.matrix.migrate_bucket(bucket, new_owner)
            else:
                version = self.executor.migrate_bucket(bucket, new_owner)
            self.migrations += 1
        self._migrations_total.inc()
        self.obs.events.record(
            "bucket_migration",
            bucket=bucket,
            target=new_owner,
            epoch=version,
            duration_ms=round((time.perf_counter() - start) * 1e3, 3),
        )
        return version

    # --- elastic topology ---------------------------------------------------

    def add_shard(self, migrate: bool = True) -> int:
        """Grow the cluster by one shard under live traffic.

        The join itself is epoch-neutral (the new shard owns nothing);
        with ``migrate=True`` its rendezvous share then moves in
        *bucket by bucket*, each move its own epoch bump under its own
        lock acquisition -- so serving threads interleave with the
        drain instead of stalling behind it.  Returns the new shard's
        index.
        """
        start = time.perf_counter()
        with self._ops_lock:
            if self.matrix is not None:
                shard = self.matrix.add_shard()
                self._add_shard_instruments(shard)
            else:
                shard = self.executor.add_shard()
        moved = 0
        if migrate:
            placement = self.placement
            for bucket in placement.rendezvous_share(shard).tolist():
                if placement.owner_of(bucket) != shard:
                    self.migrate_bucket(int(bucket), shard)
                    moved += 1
        self.shards_added += 1
        self.obs.registry.counter("hyrec_shards_added_total").inc()
        self.obs.events.record(
            "shard_added",
            shard=shard,
            buckets=moved,
            epoch=self.placement.version,
            duration_ms=round((time.perf_counter() - start) * 1e3, 3),
        )
        return shard

    def remove_shard(self) -> int:
        """Drain and retire the last shard under live traffic.

        Its buckets migrate out to their rendezvous winners among the
        survivors (per-bucket epoch bumps, lock released between
        moves), then the empty shard retires -- epoch-neutral, like
        the join.  Returns the retired index.
        """
        start = time.perf_counter()
        placement = self.placement
        if placement.num_shards < 2:
            raise ValueError("cannot remove the only shard")
        shard = placement.num_shards - 1
        survivors = placement.num_shards - 1
        drained = 0
        for bucket in placement.buckets_owned_by(shard).tolist():
            self.migrate_bucket(
                int(bucket), rendezvous_owner(int(bucket), survivors)
            )
            drained += 1
        with self._ops_lock:
            if self.matrix is not None:
                self.matrix.remove_shard()
                self._shard_jobs.pop()
                self._shard_batches.pop()
                self._shard_score_seconds.pop()
            else:
                self.executor.remove_shard()
        self.shards_removed += 1
        self.obs.registry.counter("hyrec_shards_removed_total").inc()
        self.obs.events.record(
            "shard_retired",
            shard=shard,
            buckets=drained,
            epoch=self.placement.version,
            duration_ms=round((time.perf_counter() - start) * 1e3, 3),
        )
        return shard

    def split_buckets(self, factor: int = 2) -> int:
        """Refine the bucket space by ``factor`` (epoch-bumping, no data).

        The modular bucket hash is stable under multiplication of the
        bucket count, so every user keeps its owner -- the split only
        makes a hot bucket's cohabitants separately movable.  Returns
        the new routing version.
        """
        start = time.perf_counter()
        with self._ops_lock:
            if self.matrix is not None:
                version = self.matrix.split_buckets(factor)
            else:
                version = self.executor.split_buckets(factor)
        self.bucket_splits += 1
        self.obs.registry.counter("hyrec_bucket_splits_total").inc()
        self.obs.events.record(
            "bucket_split",
            factor=factor,
            num_buckets=self.placement.num_buckets,
            epoch=version,
            duration_ms=round((time.perf_counter() - start) * 1e3, 3),
        )
        return version

    def metrics_samples(self) -> list[MetricSample]:
        """The workers' wire-shipped metrics snapshots (if any).

        Empty on the in-process executors -- their shard series sample
        straight into the shared registry, so the server's snapshot
        already holds them.
        """
        sampler = getattr(self.executor, "metrics_samples", None)
        if sampler is None:
            return []
        with self._ops_lock:
            return sampler()

    def shard_stats(self) -> tuple[ShardStats, ...]:
        """Per-shard load/churn counters (surfaced via ``ServerStats``).

        Always ordered by shard index.  On the process executor this
        is a stats round trip to every worker (buffered writes flush
        first, so the counters never lag the table), and each entry
        carries the hosting worker's ``pid``.
        """
        with self._ops_lock:
            return self._shards.stats()

    def close(self) -> None:
        """Release executor resources (threads or worker processes).

        Idempotent.  On the process executor this performs the clean
        worker shutdown (a ``Shutdown`` frame per worker, then join);
        forgetting it cannot leak processes -- workers are daemonic --
        but sweeps constructing many coordinators should call it (or
        ``HyRecSystem.close``) promptly.
        """
        self.executor.close()

    # --- execution ----------------------------------------------------------

    def process_engine_job(self, job: EngineJob) -> JobResult:
        """Execute one job (a batch of one).

        Invariant: identical to ``process_batch([job])[0]`` -- batch
        composition never changes a job's result (per-job outputs are
        independent and scored against the same table state), so
        callers may batch freely for throughput.
        """
        return self.process_batch([job])[0]

    def process_batch(self, jobs: Sequence[EngineJob]) -> list[JobResult]:
        """Execute a batch of jobs: one kernel invocation per shard.

        Invariants (the merge contract, enforced by
        ``tests/test_cluster_parity.py``):

        * **Exactness** -- each returned
          :class:`~repro.core.jobs.JobResult` is bit-for-bit what the
          single-matrix vectorized engine (and the Python engine)
          produces for the same job and table state: same neighbors
          under the ``(-score, token)`` total order, bitwise-equal
          float64 scores, same recommendations under
          ``(-count, str(item))``.
        * **Ordering** -- results are returned in job-submission
          order, regardless of shard count, executor timing, or
          which shards a job's candidates landed on.
        * **Independence** -- job ``i``'s result does not depend on
          the other jobs in the batch (batching only amortizes fixed
          costs; it shares no state between jobs beyond the read-only
          table snapshot).
        """
        if not jobs:
            return []
        with self._ops_lock:
            return self._process_batch_locked(jobs)

    def _process_batch_locked(
        self, jobs: Sequence[EngineJob]
    ) -> list[JobResult]:
        # Scatter and score must see one placement epoch: a background
        # migration between them would leave slices partitioned under
        # a map the shards no longer serve.  The lock is reentrant and
        # shared with the process executor, so per-bucket moves simply
        # slot between batches.
        tracer = self.obs.tracer
        # A traced batch attaches to the first job's request trace; the
        # remaining jobs' roots reference the shared batch through
        # their schedule spans (see ``BatchScheduler``).
        parent_ctx = next(
            (job.trace_ctx for job in jobs if job.trace_ctx is not None), None
        )
        start_ns = time.perf_counter_ns()
        batch_span = tracer.span("batch", parent=parent_ctx, jobs=len(jobs))
        with batch_span:
            with tracer.span("scatter"):
                queries = [self._query_of(job.user_id) for job in jobs]
                # Scatter: per shard, this batch's transportable slices.
                shard_slices: list[list[ShardSlice]] = [
                    [] for _ in range(self.num_shards)
                ]
                for index, job in enumerate(jobs):
                    query = queries[index]
                    for shard, (ids, positions) in enumerate(
                        self._shards.partition(job.candidate_ids)
                    ):
                        if ids.size:
                            shard_slices[shard].append(
                                ShardSlice(
                                    job_index=index,
                                    candidate_ids=ids,
                                    positions=positions,
                                    query_cols=query.cols,
                                    liked_count=query.liked_count,
                                    metric=job.metric,
                                    k=job.k,
                                )
                            )

            degraded_jobs: set[int] = set()
            score_span = tracer.span("score")
            with score_span:
                if self.matrix is None:
                    # Out-of-process: serialized slices out, wire
                    # partials back (worker score spans ride along when
                    # the batch is traced).
                    try:
                        partials_by_shard = self.executor.run_slices(
                            shard_slices, trace=score_span.ctx
                        )
                    except ShardUnavailable:
                        # Fail-fast mode: the whole batch is lost (no
                        # partial answers leave the coordinator), which
                        # is the dropped requests the stats count.
                        self.dropped_requests += len(jobs)
                        raise
                    # Degraded mode: a down shard served nothing, so
                    # any job with candidates there is flagged (and
                    # counted) -- the survivors' partials still merge
                    # exactly as usual.
                    for shard in getattr(self.executor, "last_degraded", ()):
                        degraded_jobs.update(
                            piece.job_index for piece in shard_slices[shard]
                        )
                    self.dropped_requests += len(degraded_jobs)
                else:
                    score_ctx = score_span.ctx
                    tasks = [
                        (
                            lambda s=shard: self._score_shard(
                                s, shard_slices[s], score_ctx
                            )
                        )
                        for shard in range(self.num_shards)
                    ]
                    partials_by_shard = self.executor.run(tasks)

            with tracer.span("merge"):
                results = self._merge(
                    jobs, queries, partials_by_shard, degraded_jobs
                )
        self.batches_processed += 1
        self.jobs_processed += len(jobs)
        self._jobs_total.inc(len(jobs))
        self._batch_seconds.observe(
            (time.perf_counter_ns() - start_ns) / 1e9
        )
        return results

    def _score_shard(self, shard: int, slices, trace):
        """Score one in-process shard, sampling the shard-local series.

        Runs on whatever thread the executor provides, so the trace
        context is passed explicitly (pool threads do not share the
        coordinator's active-span stack) and the span is recorded
        pre-measured.  Empty slice lists stay unsampled, mirroring the
        process executor (which sends no frame for them).
        """
        matrix = self.matrix
        assert matrix is not None
        obs = self.obs
        if not obs.registry.enabled and not obs.tracer.enabled:
            return score_slices(matrix.shards[shard], slices)
        start_ns = time.perf_counter_ns()
        partials = score_slices(matrix.shards[shard], slices)
        dur_ns = time.perf_counter_ns() - start_ns
        if slices:
            self._shard_batches[shard].inc()
            self._shard_jobs[shard].inc(len(slices))
            self._shard_score_seconds[shard].observe(dur_ns / 1e9)
            if trace is not None:
                obs.tracer.add(
                    f"shard{shard}:score",
                    parent=trace,
                    start_us=start_ns // 1000,
                    dur_us=dur_ns // 1000,
                )
        return partials

    def _merge(
        self,
        jobs: Sequence[EngineJob],
        queries: Sequence[_Query],
        partials_by_shard,
        degraded_jobs: set[int],
    ) -> list[JobResult]:
        # Merge: per job, combine whatever each shard contributed.
        results: list[JobResult] = []
        item_array = self._shards.vocab.item_array()
        for index, job in enumerate(jobs):
            score_parts: list[np.ndarray] = []
            position_parts: list[np.ndarray] = []
            col_parts: list[np.ndarray] = []
            sparse_parts: list[tuple[np.ndarray, np.ndarray]] = []
            for shard_out in partials_by_shard:
                partial = shard_out.get(index)
                if partial is None:
                    continue
                score_parts.append(partial.scores)
                position_parts.append(partial.positions)
                if isinstance(partial, ShardPartial):
                    col_parts.append(partial.liked_cols)
                else:  # WirePartial: popularity arrives pre-histogrammed
                    sparse_parts.append((partial.pop_cols, partial.pop_counts))
            positions, scores = merge_topk(score_parts, position_parts, job.k)
            tokens = job.candidate_tokens
            if sparse_parts:
                popularity = merge_popularity_sparse(sparse_parts)
            else:
                popularity = merge_popularity(col_parts)
            rated = queries[index].rated_cols
            if popularity.size and rated.size:
                popularity[rated[rated < popularity.size]] = 0
            nonzero = np.nonzero(popularity)[0]
            results.append(
                JobResult(
                    user_token=job.user_token,
                    neighbor_tokens=[
                        tokens[position] for position in positions.tolist()
                    ],
                    recommended_items=select_top_items(
                        item_array[nonzero], popularity[nonzero], job.r
                    ),
                    neighbor_scores=scores.tolist(),
                    degraded=index in degraded_jobs,
                )
            )
        return results

    def _query_of(self, user_id: int) -> _Query:
        profile = self._table.get(user_id)
        liked = profile.liked_items()
        vocab = self._shards.vocab
        # Interning (not skipping) matters on pre-populated tables:
        # a query item must share the column a candidate row interns
        # for it later in this very batch.  It runs on the calling
        # thread, preserving the vocabulary's read-mostly discipline
        # for the shard tasks (on the process executor the new columns
        # replicate to every worker before its slices dispatch).
        return _Query(
            cols=vocab.intern_columns(list(liked)),
            liked_count=len(liked),
            rated_cols=vocab.intern_columns(list(profile.rated_items())),
        )
