"""HyRec system configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.similarity import get_metric


@dataclass(frozen=True)
class HyRecConfig:
    """Tunables of a HyRec deployment.

    Attributes:
        k: Neighborhood size ("ranging from ten to a few tens").
        r: Number of items per recommendation response.
        metric: Name of the similarity metric the widget should apply
            (must be registered in :mod:`repro.core.similarity`).
        anonymize_items: Also replace item ids with anonymous tokens in
            candidate profiles (the paper shuffles both user and item
            identifiers; item anonymization is optional here because it
            makes recommendations opaque to the client).
        reshuffle_every: Number of online requests between anonymizer
            epochs; ``0`` disables periodic reshuffling.
        compress: gzip server responses (Section 4.2); disable to
            measure raw JSON sizes (the "json" curve of Figure 10).
        include_two_hop: Keep the ``KNN(Nu)`` sampler component
            (ablation A2 turns it off).
        num_random: Random users injected per sample (default ``k``;
            ablation A1 sets it to 0).
        engine: Request-path execution engine.  ``"python"`` is the
            paper-faithful set-arithmetic path; ``"vectorized"`` (the
            default) keeps an incrementally-maintained integer matrix
            of liked sets next to the Profile Table and scores whole
            candidate sets with numpy batch kernels; ``"sharded"``
            partitions that matrix into ``num_shards`` hash-placed
            shards behind a batching coordinator
            (:mod:`repro.cluster`).  All engines produce identical
            neighbors, scores, recommendations and wire metering; the
            array engines automatically fall back to the Python path
            for custom metrics and item-anonymized deployments.
        num_shards: Shard count of the ``"sharded"`` engine (ignored
            by the other engines).
        executor: How the sharded engine runs its per-shard tasks:
            ``"serial"`` (deterministic, on the calling thread),
            ``"thread"`` (a persistent pool; shard tasks overlap where
            the kernels release the GIL), or ``"process"`` (one
            long-lived worker process per shard hosting that shard's
            matrix, fed by the serialized shard protocol of
            :mod:`repro.cluster.transport`; whole interpreters run in
            parallel, so scoring scales with cores).  Results are
            identical under all three.
        batch_window: Requests the sharded engine's scheduler coalesces
            into one batched kernel invocation per shard
            (:class:`repro.cluster.BatchScheduler`).
        truncate_partials: Process executor only: ship each shard's
            local top-``k`` scored candidates instead of the full
            partial.  Exactness-preserving (every global top-k member
            is inside its own shard's top-k), so this is purely an
            IPC-bandwidth knob; ``False`` ships full partials for
            comparison runs.
        ipc_write_batch: Process executor only: buffered
            placement-routed writes per worker that force an eager
            flush.  Writes always flush before any read, so this
            trades syscall count against write-delivery latency
            without ever changing results.
        rebalance_threshold: Sharded engine only: max/min per-shard
            write-load ratio above which the
            :class:`~repro.cluster.rebalance.ShardRebalancer` migrates
            placement buckets off the hottest shard (must exceed
            ``1.0``).  Rebalancing moves load, never results -- parity
            holds before, during, and after any migration.
        rebalance_interval: Sharded engine only: routed writes between
            automatic rebalance checks; ``0`` (the default) disables
            the cadence, leaving the rebalancer manual-only.
        rebalance_max_moves: Sharded engine only: bucket-migration
            budget per rebalance pass (a control-loop safety valve).
        autoscale_interval: Sharded engine only: seconds between
            timer-driven passes of the rebalancer's control loop
            (autoscale check + rebalance), run on a background thread
            so handoffs overlap live serving; ``0`` (the default)
            disables the timer.  Write-count kicks
            (``rebalance_interval``) signal the same thread.
        autoscale_min_shards: Sharded engine only: floor the
            autoscaler will never shrink the fleet below.
        autoscale_max_shards: Sharded engine only: ceiling for
            autoscaler growth; ``0`` (the default) disables growing.
        autoscale_high_water: Sharded engine only: mean writes per
            shard accumulated between control-loop passes above which
            the fleet grows by one shard (live join + rendezvous-share
            migration); ``0`` (the default) disables growing.
        autoscale_low_water: Sharded engine only: mean writes per
            shard per pass below which the fleet shrinks by one shard
            (drain + retire); ``0`` (the default) disables shrinking.
            Must stay below ``autoscale_high_water`` when both are
            set.
        split_hot_bucket_ratio: Sharded engine only: fraction of the
            hottest shard's write load a single placement bucket must
            carry -- while the spread exceeds
            ``rebalance_threshold`` yet no bucket move can improve it
            -- for the rebalancer to split the bucket space in two
            (an epoch-bumped metadata change that moves no data but
            makes the viral bucket's cohabitants separately movable).
            ``0`` (the default) disables splitting.
        worker_timeout: Process executor only: deadline in seconds on
            every parent<->worker socket operation (and the per-stage
            join timeout of shutdown escalation).  A worker that stays
            silent past the deadline is treated as dead and respawned;
            set it above the worst-case time a worker legitimately
            spends scoring one batch.
        max_respawns: Process executor only: automatic re-fork attempts
            per worker-failure incident before the shard is declared
            down; ``0`` disables automatic respawn entirely.
        retry_backoff: Process executor only: base in seconds of the
            exponential backoff between respawn attempts within one
            incident.
        degraded_reads: Process executor only: with a shard down (its
            respawn budget exhausted), serve reads from the surviving
            shards -- results carry ``degraded=True`` -- instead of
            failing fast with ``ShardUnavailable``.  Writes are never
            dropped either way: the profile table is the replay log,
            and the next successful respawn replays them.
        metrics_enabled: Run the deployment's
            :class:`~repro.obs.registry.MetricsRegistry` live: request
            latency/batch histograms, per-shard job counters (sampled
            inside worker processes and merged over the wire), and the
            ``/metrics`` exposition.  Disabling swaps every instrument
            for a shared no-op, leaving the hot path bare.
        tracing: Collect request-lifecycle spans
            (schedule/scatter/score/merge/respond) into the
            :class:`~repro.obs.tracing.Tracer` ring, stitching worker
            process score spans into each request's trace; exportable
            as Chrome trace-event JSON.  Off by default -- tracing is
            a debugging/profiling tool, not a steady-state monitor.
        slow_request_ms: Threshold in milliseconds above which a
            request is logged as slow (a structured ``slow_request``
            event plus a ``repro.obs`` warning); ``0`` disables the
            slow-request log.  Independent of ``tracing``.
        cache_ttl: HTTP front door only: seconds a cached ``/online/``
            response may keep being served after it was rendered --
            the deployment's staleness bound.  ``0`` (the default)
            disables the response cache entirely, which keeps every
            HTTP response byte-identical to the in-process path.  A
            ``/neighbors/`` write for a user always evicts that user's
            cached response immediately, whatever the TTL, so a cached
            response is never stale with respect to its own user's
            writes -- the TTL only bounds staleness against *other*
            users' activity (see ``docs/http.md``).
        cache_capacity: HTTP front door only: maximum entries in the
            in-process L1 response cache; least-recently-used entries
            are evicted beyond it.
        http_max_pending: HTTP front door only: admitted requests that
            may wait behind the one executing on the engine lane
            before the front door sheds new work with ``503`` +
            ``Retry-After`` (``0`` sheds as soon as the lane is busy).
            Cache hits and the health endpoints (``/stats/``,
            ``/metrics``) are never admitted, so never shed.
        http_retry_after: HTTP front door only: whole seconds clients
            are told to back off in the ``Retry-After`` header of a
            shed response.
    """

    k: int = 10
    r: int = 10
    metric: str = "cosine"
    anonymize_items: bool = False
    reshuffle_every: int = 0
    compress: bool = True
    include_two_hop: bool = True
    num_random: int | None = None
    engine: str = "vectorized"
    num_shards: int = 4
    executor: str = "serial"
    batch_window: int = 16
    truncate_partials: bool = True
    ipc_write_batch: int = 1024
    rebalance_threshold: float = 2.0
    rebalance_interval: int = 0
    rebalance_max_moves: int = 4
    autoscale_interval: float = 0.0
    autoscale_min_shards: int = 1
    autoscale_max_shards: int = 0
    autoscale_high_water: float = 0.0
    autoscale_low_water: float = 0.0
    split_hot_bucket_ratio: float = 0.0
    worker_timeout: float = 5.0
    max_respawns: int = 3
    retry_backoff: float = 0.05
    degraded_reads: bool = False
    metrics_enabled: bool = True
    tracing: bool = False
    slow_request_ms: float = 0.0
    cache_ttl: float = 0.0
    cache_capacity: int = 1024
    http_max_pending: int = 64
    http_retry_after: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        if self.reshuffle_every < 0:
            raise ValueError("reshuffle_every cannot be negative")
        if self.engine not in ("python", "vectorized", "sharded"):
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                "expected 'python', 'vectorized' or 'sharded'"
            )
        if self.num_shards < 1:
            raise ValueError(
                f"num_shards must be at least 1, got {self.num_shards}"
            )
        # Mirrors repro.cluster.executors.EXECUTOR_NAMES; kept literal
        # here so constructing a config never imports the cluster
        # package (which imports core modules back).
        if self.executor not in ("serial", "thread", "process"):
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                "expected 'serial', 'thread' or 'process'"
            )
        if self.batch_window < 1:
            raise ValueError(
                f"batch_window must be at least 1, got {self.batch_window}"
            )
        if self.ipc_write_batch < 1:
            raise ValueError(
                f"ipc_write_batch must be at least 1, got {self.ipc_write_batch}"
            )
        if self.rebalance_threshold <= 1.0:
            raise ValueError(
                "rebalance_threshold must exceed 1.0, got "
                f"{self.rebalance_threshold}"
            )
        if self.rebalance_interval < 0:
            raise ValueError(
                "rebalance_interval cannot be negative, got "
                f"{self.rebalance_interval}"
            )
        if self.rebalance_max_moves < 1:
            raise ValueError(
                "rebalance_max_moves must be at least 1, got "
                f"{self.rebalance_max_moves}"
            )
        if self.autoscale_interval < 0:
            raise ValueError(
                "autoscale_interval cannot be negative, got "
                f"{self.autoscale_interval}"
            )
        if self.autoscale_min_shards < 1:
            raise ValueError(
                "autoscale_min_shards must be at least 1, got "
                f"{self.autoscale_min_shards}"
            )
        if self.autoscale_max_shards < 0:
            raise ValueError(
                "autoscale_max_shards cannot be negative, got "
                f"{self.autoscale_max_shards}"
            )
        if (
            self.autoscale_max_shards
            and self.autoscale_max_shards < self.autoscale_min_shards
        ):
            raise ValueError(
                f"autoscale_max_shards ({self.autoscale_max_shards}) cannot "
                f"undercut autoscale_min_shards ({self.autoscale_min_shards})"
            )
        if self.autoscale_high_water < 0:
            raise ValueError(
                "autoscale_high_water cannot be negative, got "
                f"{self.autoscale_high_water}"
            )
        if self.autoscale_low_water < 0:
            raise ValueError(
                "autoscale_low_water cannot be negative, got "
                f"{self.autoscale_low_water}"
            )
        if (
            self.autoscale_high_water
            and self.autoscale_low_water
            and self.autoscale_low_water >= self.autoscale_high_water
        ):
            raise ValueError(
                f"autoscale_low_water ({self.autoscale_low_water}) must stay "
                f"below autoscale_high_water ({self.autoscale_high_water})"
            )
        if not 0.0 <= self.split_hot_bucket_ratio <= 1.0:
            raise ValueError(
                "split_hot_bucket_ratio must be in [0, 1], got "
                f"{self.split_hot_bucket_ratio}"
            )
        if self.worker_timeout <= 0:
            raise ValueError(
                f"worker_timeout must be positive, got {self.worker_timeout}"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns cannot be negative, got {self.max_respawns}"
            )
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff cannot be negative, got {self.retry_backoff}"
            )
        if self.slow_request_ms < 0:
            raise ValueError(
                f"slow_request_ms cannot be negative, got {self.slow_request_ms}"
            )
        if self.cache_ttl < 0:
            raise ValueError(
                f"cache_ttl cannot be negative, got {self.cache_ttl}"
            )
        if self.cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be at least 1, got {self.cache_capacity}"
            )
        if self.http_max_pending < 0:
            raise ValueError(
                "http_max_pending cannot be negative, got "
                f"{self.http_max_pending}"
            )
        if self.http_retry_after < 0:
            raise ValueError(
                "http_retry_after cannot be negative, got "
                f"{self.http_retry_after}"
            )
        get_metric(self.metric)  # fail fast on unknown metrics
