"""The HyRec server (Section 3.1).

The server owns the two global tables, orchestrates personalization
jobs, and never computes a similarity itself -- that is the whole
point of the architecture.  Its per-request work is:

1. update the requesting user's profile (already done via
   :meth:`HyRecServer.record_rating` as ratings arrive),
2. ask the :class:`~repro.core.sampler.HyRecSampler` for a candidate
   set,
3. assemble a :class:`~repro.core.jobs.PersonalizationJob` with the
   candidate profiles under anonymous tokens, and
4. on the follow-up ``/neighbors/`` call, validate and store the new
   KNN row.

Traffic through the server is metered (raw and gzipped sizes) on two
channels, ``server->client`` and ``client->server``; Figures 9-10 and
the Section 5.6 bandwidth numbers read these meters.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.anonymizer import AnonymousMapping
from repro.core.config import HyRecConfig
from repro.core.jobs import JobResult, PersonalizationJob
from repro.core.profiles import Profile
from repro.core.sampler import HyRecSampler
from repro.core.tables import KnnTable, ProfileTable
from repro.engine.jobs import EngineJob
from repro.engine.liked_matrix import LikedMatrix
from repro.messages import (
    FragmentGzipWriter,
    MessageMeter,
    deflate_segment,
    encode_json,
    gzip_compress,
)
from repro.obs import Observability
from repro.obs.registry import MetricSample
from repro.sim.randomness import derive_rng

if TYPE_CHECKING:  # imported lazily at runtime (cluster imports core back)
    from repro.cluster import ClusterCoordinator, ShardStats
    from repro.cluster.rebalance import ShardRebalancer

#: Profile fragments below this many bytes are cheaper to re-compress
#: inline than to splice (each splice costs a full flush).
SPLICE_THRESHOLD = 256


def _job_tail(k: int, metric: str) -> bytes:
    """The job JSON between the candidate map and the own profile."""
    return b',"k":%d,"m":%s,"p":' % (k, encode_json(metric))


def _interleave(first: Iterable[bytes], second: Iterable[bytes]) -> list[bytes]:
    """``[first[0], second[0], first[1], second[1], ...]``."""
    return list(chain.from_iterable(zip(first, second)))


class _KeyRuns(dict):
    """Deflated form of the run ``,"<token>":`` by token, made on first
    lookup.  A :func:`~repro.messages.deflate_segment` is a pure function
    of its bytes, so an entry is valid in any response; the memo holds at
    most one entry per token of the current epoch."""

    def __missing__(self, token: str) -> bytes:
        run = self[token] = deflate_segment(b',"%s":' % token.encode("ascii"))
        return run


@dataclass(frozen=True)
class ServerStats:
    """Counters exposed for the evaluation harness.

    Reads are non-destructive: polling ``server.stats`` twice in a row
    returns identical counts (per-shard rows included -- their round
    trips ship point-in-time worker counters, never deltas), so a
    dashboard polling loop can never double-count.  The counters
    accumulate from the server's birth; :meth:`HyRecServer.reset_stats`
    rebases the deltas without touching the underlying counters (whose
    raw values drive behavior like the reshuffle cadence, and remain
    the source of truth for the ``/metrics`` exposition).
    """

    online_requests: int
    knn_updates: int
    reshuffles: int
    #: Per-shard load/churn counters; empty unless ``engine="sharded"``.
    #: With ``executor="process"`` each entry is read over the wire
    #: from the worker process hosting the shard and carries its
    #: ``pid``.  This is the operator-facing load view; the
    #: :class:`~repro.cluster.rebalance.ShardRebalancer` keeps its own
    #: per-bucket write histogram from the same write stream (worker
    #: ``writes`` counters double-count handoff replays).
    shards: tuple["ShardStats", ...] = field(default=())
    #: Routing epoch of the movable placement map (bumped by every
    #: bucket migration); ``0`` unless ``engine="sharded"``.
    placement_version: int = 0
    #: Bucket migrations applied so far; ``0`` unless ``engine="sharded"``.
    migrations: int = 0
    #: Requests not served exactly because a shard was down (degraded
    #: results plus fail-fast losses); ``0`` unless ``executor="process"``.
    dropped_requests: int = 0
    #: Successful automatic worker recoveries (supervisor respawns);
    #: ``0`` unless ``executor="process"``.
    recoveries: int = 0
    #: Live shard joins applied so far (autoscaler or operator);
    #: ``0`` unless ``engine="sharded"``.
    shards_added: int = 0
    #: Live shard retires applied so far; ``0`` unless ``engine="sharded"``.
    shards_removed: int = 0
    #: Bucket-space splits applied so far (each doubles-or-more the
    #: placement's bucket count); ``0`` unless ``engine="sharded"``.
    bucket_splits: int = 0


class HyRecServer:
    """Profile/KNN tables + sampler + personalization orchestrator."""

    def __init__(self, config: HyRecConfig | None = None, seed: int = 0) -> None:
        self.config = config if config is not None else HyRecConfig()
        self.profiles = ProfileTable()
        self.knn_table = KnnTable()
        self.sampler = HyRecSampler(
            self.knn_table,
            user_registry=None,
            k=self.config.k,
            rng=derive_rng(seed, "server:sampler"),
            include_two_hop=self.config.include_two_hop,
            num_random=self.config.num_random,
        )
        self.anonymizer = AnonymousMapping(seed=derive_seed_for_anonymizer(seed))
        #: The deployment's shared observability: metrics registry,
        #: request tracer, and event log -- one instance threaded
        #: through the cluster layers, so worker-process samples and
        #: spans aggregate with the server's own.
        self.obs = Observability.from_config(self.config)
        #: CSR-style integer mirror of the profile table, maintained
        #: incrementally from ProfileTable writes.  Only materialized
        #: for the vectorized engine; ``None`` on the other engines.
        self.liked_matrix: LikedMatrix | None = (
            LikedMatrix(self.profiles, events=self.obs.events)
            if self.config.engine == "vectorized"
            else None
        )
        #: Sharded twin of :attr:`liked_matrix`: partitioned shards
        #: behind a scatter/gather coordinator.  Only materialized for
        #: ``engine="sharded"``.
        self.cluster: "ClusterCoordinator | None" = None
        #: Churn-driven bucket migrator *and autoscaler* over the
        #: cluster's movable placement map; only materialized for
        #: ``engine="sharded"``.  Runs manually
        #: (``rebalancer.run_once()``) and, when ``rebalance_interval``
        #: or ``autoscale_interval`` is set, on a background
        #: control-loop thread -- write-count kicks and the timer both
        #: signal it, so handoffs overlap live serving.
        self.rebalancer: "ShardRebalancer | None" = None
        if self.config.engine == "sharded":
            # Imported here, not at module top: the cluster package
            # imports core modules back, and a top-level circular
            # import would leave whichever package loads second
            # half-initialized.
            from repro.cluster import ClusterCoordinator, make_executor
            from repro.cluster.rebalance import ShardRebalancer

            # Worker lifecycle note: with executor="process" this
            # constructor is the spawn point -- the coordinator forks
            # one worker per shard, warm-start-replays any profiles
            # already in the table, and subscribes the write stream.
            # close() is the matching clean shutdown.
            self.cluster = ClusterCoordinator(
                self.profiles,
                num_shards=self.config.num_shards,
                executor=make_executor(
                    self.config.executor,
                    truncate_partials=self.config.truncate_partials,
                    ipc_write_batch=self.config.ipc_write_batch,
                    worker_timeout=self.config.worker_timeout,
                    max_respawns=self.config.max_respawns,
                    retry_backoff=self.config.retry_backoff,
                    degraded_reads=self.config.degraded_reads,
                    obs=self.obs,
                ),
                obs=self.obs,
            )
            # Constructed after the coordinator so its write listener
            # fires after the engine's own router: by the time a
            # cadence check migrates, the triggering write has been
            # routed under the old map and the drain delivers it.
            self.rebalancer = ShardRebalancer(
                self.cluster,
                threshold=self.config.rebalance_threshold,
                max_moves=self.config.rebalance_max_moves,
                interval=self.config.rebalance_interval,
                autoscale_interval=self.config.autoscale_interval,
                min_shards=self.config.autoscale_min_shards,
                max_shards=self.config.autoscale_max_shards,
                high_water=self.config.autoscale_high_water,
                low_water=self.config.autoscale_low_water,
                split_ratio=self.config.split_hot_bucket_ratio,
            )
        self.meter = MessageMeter()
        self._tail = _job_tail(self.config.k, self.config.metric)
        #: Deflated key runs between two spliced profiles; dropped when
        #: the anonymizer reshuffles.
        self._key_runs = _KeyRuns()
        self._key_runs_epoch = self.anonymizer.epoch
        #: Per-user write observers: called with the user id after any
        #: write that changes what that user's next personalization
        #: response may contain (a profile rating or a ``/neighbors/``
        #: KNN update).  The HTTP front door's response cache hooks in
        #: here for write-driven invalidation; see
        #: :meth:`add_user_write_listener`.
        self._user_write_listeners: list = []
        self._bootstrap_rng = derive_rng(seed, "server:bootstrap")
        self._online_requests = 0
        self._knn_updates = 0
        self._reshuffles = 0
        #: Snapshot the counters were rebased to by :meth:`reset_stats`
        #: (all zero at birth); ``stats`` reports deltas against it.
        self._stats_baseline = {
            "online_requests": 0,
            "knn_updates": 0,
            "reshuffles": 0,
            "migrations": 0,
            "dropped_requests": 0,
            "recoveries": 0,
            "shards_added": 0,
            "shards_removed": 0,
            "bucket_splits": 0,
        }
        if self.obs.registry.enabled:
            # Collector pattern: exposition reads the existing
            # source-of-truth counters at snapshot time instead of
            # duplicating increments on the hot path (which could
            # drift from the counters behavior depends on).
            self.obs.registry.add_collector(self._collect_metrics)

    def close(self) -> None:
        """Release engine resources (the cluster's executor workers).

        Idempotent and a no-op on the python/vectorized engines.  On
        ``executor="thread"`` this drains the pool; on
        ``executor="process"`` it performs the clean worker shutdown
        (a ``Shutdown`` frame per worker process, then join).  Sweeps
        constructing many sharded deployments should call this (or
        :meth:`HyRecSystem.close`) instead of reaching into
        ``server.cluster``.
        """
        if self.rebalancer is not None:
            self.rebalancer.close()
        if self.cluster is not None:
            self.cluster.close()

    # --- write observation ----------------------------------------------------

    def add_user_write_listener(self, listener) -> None:
        """Subscribe ``listener(user_id)`` to every write touching a user.

        Fires *after* the write is applied, on both write paths --
        :meth:`record_rating` (profile writes) and
        :meth:`handle_knn_update` (the ``/neighbors/`` endpoint) -- so
        a read issued by the listener observes the new state.  This is
        the invalidation feed of the HTTP response cache
        (:mod:`repro.web.cache`): because every state-changing
        operation of the deployment funnels through these two methods,
        a cache that evicts on this signal can never serve a response
        predating its own user's latest write.
        """
        self._user_write_listeners.append(listener)

    def remove_user_write_listener(self, listener) -> None:
        """Unsubscribe a user-write listener (no-op if absent)."""
        try:
            self._user_write_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_user_write(self, user_id: int) -> None:
        for listener in self._user_write_listeners:
            listener(user_id)

    # --- profile management ---------------------------------------------------

    def register_user(self, user_id: int) -> Profile:
        """Create the user's (empty) profile and make her sampleable.

        New users "start with random KNN" (Section 5.3): the server
        seeds their row of the KNN table with up to ``k`` random
        existing users so their very first candidate set is already a
        full sample rather than just the random component.
        """
        if user_id in self.profiles:
            return self.profiles.get(user_id)
        profile = self.profiles.get_or_create(user_id)
        # Read the sampler's registry in place: copying it here made
        # bulk-loading n users cost ~n^2/2 list-element copies.  A
        # brand-new user is never in the registry yet (we register her
        # below), so no self-exclusion filter is needed on this path.
        existing = self.sampler.registry_view()
        if self.sampler.is_registered(user_id):  # defensive, never via this path
            existing = [uid for uid in existing if uid != user_id]
        if existing:
            count = min(self.config.k, len(existing))
            bootstrap = self._bootstrap_rng.sample(existing, count)
            self.knn_table.update(user_id, bootstrap)
        self.sampler.register_user(user_id)
        return profile

    def record_rating(
        self, user_id: int, item: int, value: float, timestamp: float = 0.0
    ) -> None:
        """Update the Profile Table with one fresh opinion."""
        self.register_user(user_id)
        self.profiles.record(user_id, item, value, timestamp)
        if self._user_write_listeners:
            self._notify_user_write(user_id)

    # --- orchestration -----------------------------------------------------------

    def _begin_request(self, user_id: int, now: float) -> set[int]:
        """Shared request preamble; returns the sampled candidate set.

        Both online entry points (wire and engine) must mutate the
        request counter, the anonymizer epoch, and the sampler RNG in
        exactly this order -- the engines' bit-for-bit contract
        (including byte-identical wire metering) rides on the two
        paths staying in lockstep, which is why this lives in one
        place.
        """
        self.register_user(user_id)
        self._online_requests += 1
        if (
            self.config.reshuffle_every
            and self._online_requests % self.config.reshuffle_every == 0
        ):
            self.anonymizer.reshuffle()
            self._reshuffles += 1
        return self.sampler.sample(user_id, now=now)

    def handle_online_request(
        self, user_id: int, now: float = 0.0
    ) -> PersonalizationJob:
        """Build the personalization job answering ``/online/?uid=``.

        A periodic anonymizer reshuffle (if configured) happens at the
        *start* of a request so that the job and its result live in the
        same epoch.  Wire metering happens in
        :meth:`render_online_response`, which turns the job into bytes
        exactly once.
        """
        candidate_ids = self._begin_request(user_id, now)
        candidates = {
            self.anonymizer.token_for_user(uid): self._profile_payload(uid)
            for uid in candidate_ids
            if uid in self.profiles
        }
        return PersonalizationJob(
            user_token=self.anonymizer.token_for_user(user_id),
            user_profile=self._profile_payload(user_id),
            candidates=candidates,
            k=self.config.k,
            r=self.config.r,
            metric=self.config.metric,
        )

    def handle_engine_request(self, user_id: int, now: float = 0.0) -> EngineJob:
        """Integer-id twin of :meth:`handle_online_request`.

        Performs the exact same orchestration (registration, request
        counting, reshuffle epochs, sampling, token minting -- in the
        same order, so RNG and anonymizer state stay in lockstep with
        the wire path) but skips the ``{str(item): value}`` payload
        materialization: the widget reads liked sets straight from
        :attr:`liked_matrix` (or the shard arenas of :attr:`cluster`).
        Requires an array engine -- ``"vectorized"`` or ``"sharded"``
        -- and no item anonymization (item tokens only exist on wire
        payloads).
        """
        if self.liked_matrix is None and self.cluster is None:
            raise RuntimeError(
                "engine requests need HyRecConfig(engine='vectorized') "
                "or engine='sharded'"
            )
        if self.config.anonymize_items:
            raise RuntimeError(
                "the in-process fast path cannot anonymize items; "
                "use handle_online_request"
            )
        # Tokens are minted in the sampler set's iteration order
        # (matching the wire path's dict comprehension), *then* the
        # candidates are sorted by token -- the deterministic order
        # tie-breaks and rendering share.
        sampled = list(self._begin_request(user_id, now))
        profiles = list(map(self.profiles.lookup(), sampled))
        if None in profiles:  # sampled users whose profile has left the table
            sampled = [uid for uid, p in zip(sampled, profiles) if p is not None]
            profiles = [p for p in profiles if p is not None]
        tokens = self.anonymizer.tokens_for_users(sampled)
        order = sorted(range(len(tokens)), key=tokens.__getitem__)
        return EngineJob(
            user_id=user_id,
            user_token=self.anonymizer.token_for_user(user_id),
            candidate_ids=tuple(map(sampled.__getitem__, order)),
            candidate_tokens=tuple(map(tokens.__getitem__, order)),
            k=self.config.k,
            r=self.config.r,
            metric=self.config.metric,
            user_profile_size=len(self.profiles.get(user_id)),
            candidate_profile_sizes=tuple(
                map(len, map(profiles.__getitem__, order))
            ),
            # None unless an active "request" span exists -- the job
            # then carries its context through the scheduler and the
            # JobSlices frames, so scatter/score/merge spans (worker
            # processes included) stitch into that request's trace.
            trace_ctx=self.obs.tracer.current,
        )

    def render_online_response(
        self, job: PersonalizationJob, *, body: bool = True
    ) -> bytes | None:
        """Serialize (and compress) a job; meters the wire bytes.

        Fast path: the job JSON is assembled by joining each candidate
        profile's cached fragment, and the gzip body by splicing each
        large profile's cached *deflate segment* -- per-request
        compression work is the envelope (tokens, braces) and the small
        profiles, in one run, plus the CRC.  A plain body is
        byte-identical to ``encode_json(job.to_payload())`` (keys in
        sorted order; fragments are themselves sorted-key encodings).
        A gzip body decodes to the same JSON value and length, with the
        candidate map in two token-sorted groups: small profiles, then
        spliced ones (see :meth:`_render_tokenized`).

        Item-anonymized jobs fall back to the generic encoder because
        their item keys are per-epoch tokens that cannot be cached on
        the profile.

        ``body=False`` meters the very same sizes but returns ``None``
        (see :meth:`_render_tokenized`): for callers that replay the
        exchange in process and never put the bytes on a socket.
        """
        if self.config.anonymize_items:
            raw = encode_json(job.to_payload())
            wire = gzip_compress(raw) if self.config.compress else raw
            self.meter.record_bytes("server->client", len(raw), len(wire))
            return wire if body else None

        resolve = self.anonymizer.resolve_user
        tokens = sorted(job.candidates)
        return self._render_tokenized(
            resolve(job.user_token),
            job.user_token,
            tokens,
            [resolve(token) for token in tokens],
            job.metric,
            body,
        )

    def render_engine_response(
        self, job: EngineJob, *, body: bool = True
    ) -> bytes | None:
        """Render an :class:`EngineJob` to the wire; meters the bytes.

        Byte-identical to :meth:`render_online_response` on the
        equivalent :class:`PersonalizationJob` -- both feed the same
        token-sorted candidate list to the same fragment renderer, so
        Figure 9/10 metering does not depend on the engine.
        """
        return self._render_tokenized(
            job.user_id,
            job.user_token,
            job.candidate_tokens,
            job.candidate_ids,
            job.metric,
            body,
        )

    def _render_tokenized(
        self,
        user: int,
        user_token: str,
        tokens: Sequence[str],
        candidates: Sequence[int],
        metric: str,
        body: bool,
    ) -> bytes | None:
        """Shared fragment-splicing renderer over parallel token / user-id
        sequences.

        ``tokens`` must be ascending (both callers guarantee it);
        profiles are embedded via their cached JSON / deflate
        fragments.  A gzip body lists the candidates below
        :data:`SPLICE_THRESHOLD` first and the spliced ones after, each
        group in token order; a plain body splices nothing and keeps
        token order throughout.  The same code serves all four cases:
        gzip or plain, and with or without the body -- without, the
        same pieces are only weighed, so the metered ``(raw, wire)``
        sizes are those of the body not built.
        """
        if self.config.compress:
            writer = FragmentGzipWriter(keep_body=body)
            write, splice = writer.write, writer.write_deflated
            threshold = SPLICE_THRESHOLD
            if self._key_runs_epoch != self.anonymizer.epoch:
                self._key_runs = _KeyRuns()
                self._key_runs_epoch = self.anonymizer.epoch
            key_runs = self._key_runs
        else:
            parts: list[bytes] = []
            write = parts.append
            threshold = sys.maxsize  # plain never splices: no writer needed

        # Two groups, each token-ascending: first every profile written
        # inline, then every profile spliced.  The inline ones then share
        # the leading run -- one compress and one full flush however many
        # there are -- and the spliced group is cached bytes end to end.
        # JSON member order carries no meaning; a plain body splices
        # nothing, so it is one group, in token order.
        profiles = list(map(self.profiles.lookup(), candidates))
        fragments = list(map(Profile.json_fragment, profiles))
        inline = [len(fragment) < threshold for fragment in fragments]
        spliced = [not flag for flag in inline]
        small = list(compress(tokens, inline))
        large = list(compress(tokens, spliced))
        # Every candidate's key -- ``"<token>":``, comma-led after the
        # first -- in one encode, in emission order.  A token is hex, so
        # never holds the separator.
        order = small + large
        keys = (
            ('"' + '":\n,"'.join(order) + '":').encode("ascii").split(b"\n")
            if order
            else []
        )
        write(b'{"c":{')
        write(b"".join(_interleave(keys, compress(fragments, inline))))
        if large:
            # The first spliced key closes the leading run, hence the
            # empty slot before the first segment.  Every later key sits
            # between two splices, so it is spliced as well, from the
            # per-token memo of its deflated form.
            large_keys = keys[len(small) :]
            write(large_keys[0])
            splice(
                _interleave(
                    [b"", *map(key_runs.__getitem__, large[1:])],
                    map(Profile.deflated_fragment, compress(profiles, spliced)),
                ),
                _interleave([b"", *large_keys[1:]], compress(fragments, spliced)),
            )
        write(b"}")
        write(
            self._tail
            if metric == self.config.metric
            else _job_tail(self.config.k, metric)
        )
        own = self.profiles.get(user)
        fragment = own.json_fragment()
        if len(fragment) < threshold:
            write(fragment)
        else:
            splice([own.deflated_fragment()], [fragment])
        write(b',"r":%d,"u":%s}' % (self.config.r, encode_json(user_token)))

        if self.config.compress:
            wire = writer.finish()
            raw_size, wire_size = writer.raw_size, writer.wire_size
        else:
            wire = b"".join(parts) if body else None
            raw_size = wire_size = sum(map(len, parts))
        self.meter.record_bytes("server->client", raw_size, wire_size)
        return wire

    def handle_knn_update(self, user_id: int, result: JobResult) -> list[int]:
        """Apply the widget's KNN selection; return recommended item ids.

        The server re-validates everything a client reports: tokens
        must resolve, neighbors must be known users, and the user can
        never be her own neighbor (malicious widgets are contained to
        their own recommendations, Section 6).
        """
        self.meter.record_payload(
            "client->server", result.to_payload(), compress=self.config.compress
        )
        neighbor_ids: list[int] = []
        for token in result.neighbor_tokens:
            neighbor = self.anonymizer.resolve_user(token)
            if neighbor != user_id and neighbor in self.profiles:
                neighbor_ids.append(neighbor)
        self.knn_table.update(user_id, neighbor_ids[: self.config.k])
        self._knn_updates += 1
        if self._user_write_listeners:
            self._notify_user_write(user_id)
        return [self._resolve_item_key(key) for key in result.recommended_items]

    # --- helpers -------------------------------------------------------------------

    def _profile_payload(self, user_id: int) -> dict[str, float]:
        payload = self.profiles.get(user_id).to_payload()
        if not self.config.anonymize_items:
            return payload
        return {
            self.anonymizer.token_for_item(int(item)): value
            for item, value in payload.items()
        }

    def _resolve_item_key(self, key: str) -> int:
        if self.config.anonymize_items:
            return self.anonymizer.resolve_item(key)
        return int(key)

    @property
    def stats(self) -> ServerStats:
        """Request counters for the evaluation harness.

        Reported values are deltas since the last :meth:`reset_stats`
        (since birth by default).  The read itself never mutates
        anything, so polling twice returns identical counts.
        """
        base = self._stats_baseline
        return ServerStats(
            online_requests=self._online_requests - base["online_requests"],
            knn_updates=self._knn_updates - base["knn_updates"],
            reshuffles=self._reshuffles - base["reshuffles"],
            shards=(
                self.cluster.shard_stats() if self.cluster is not None else ()
            ),
            placement_version=(
                self.cluster.placement.version
                if self.cluster is not None
                else 0
            ),
            migrations=(
                self.cluster.migrations - base["migrations"]
                if self.cluster is not None
                else 0
            ),
            dropped_requests=(
                self.cluster.dropped_requests - base["dropped_requests"]
                if self.cluster is not None
                else 0
            ),
            recoveries=(
                self.cluster.recoveries - base["recoveries"]
                if self.cluster is not None
                else 0
            ),
            shards_added=(
                self.cluster.shards_added - base["shards_added"]
                if self.cluster is not None
                else 0
            ),
            shards_removed=(
                self.cluster.shards_removed - base["shards_removed"]
                if self.cluster is not None
                else 0
            ),
            bucket_splits=(
                self.cluster.bucket_splits - base["bucket_splits"]
                if self.cluster is not None
                else 0
            ),
        )

    def reset_stats(self) -> None:
        """Rebase :attr:`stats` so subsequent reads count from zero.

        Only the *reported deltas* reset: the underlying counters keep
        accumulating, because raw values drive behavior (the
        anonymizer's reshuffle cadence is ``online_requests %
        reshuffle_every``) and feed the monotone ``/metrics``
        exposition, both of which a destructive reset would corrupt.
        Per-shard rows are point-in-time worker counters and are not
        rebased.
        """
        self._stats_baseline = {
            "online_requests": self._online_requests,
            "knn_updates": self._knn_updates,
            "reshuffles": self._reshuffles,
            "migrations": (
                self.cluster.migrations if self.cluster is not None else 0
            ),
            "dropped_requests": (
                self.cluster.dropped_requests
                if self.cluster is not None
                else 0
            ),
            "recoveries": (
                self.cluster.recoveries if self.cluster is not None else 0
            ),
            "shards_added": (
                self.cluster.shards_added if self.cluster is not None else 0
            ),
            "shards_removed": (
                self.cluster.shards_removed if self.cluster is not None else 0
            ),
            "bucket_splits": (
                self.cluster.bucket_splits if self.cluster is not None else 0
            ),
        }

    def _collect_metrics(self) -> list[MetricSample]:
        """Snapshot-time samples pulled from the source-of-truth counters.

        Raw (never baseline-subtracted) values: ``/metrics`` consumers
        expect monotone counters and compute their own deltas, and the
        raw counters are exactly what behavior like the reshuffle
        cadence runs on.  Deliberately avoids ``shard_stats()`` -- that
        would add one IPC round trip per shard to every scrape; the
        per-shard view comes from the worker registries instead
        (merged in :func:`repro.obs.exposition.server_samples`).
        """

        def counter(name: str, value: float, **labels: object) -> MetricSample:
            label_set = tuple(
                sorted((key, str(val)) for key, val in labels.items())
            )
            return MetricSample(
                name=name, kind="counter", labels=label_set, value=float(value)
            )

        samples = [
            counter("hyrec_online_requests_total", self._online_requests),
            counter("hyrec_knn_updates_total", self._knn_updates),
            counter("hyrec_reshuffles_total", self._reshuffles),
            MetricSample(
                name="hyrec_users", kind="gauge", value=float(len(self.profiles))
            ),
        ]
        for channel, reading in sorted(self.meter.channels.items()):
            samples.append(
                counter(
                    "hyrec_wire_bytes_total",
                    reading.wire_bytes,
                    channel=channel,
                )
            )
            samples.append(
                counter(
                    "hyrec_wire_messages_total",
                    reading.messages,
                    channel=channel,
                )
            )
        if self.cluster is not None:
            samples.append(
                MetricSample(
                    name="hyrec_placement_epoch",
                    kind="gauge",
                    value=float(self.cluster.placement.version),
                )
            )
            samples.append(
                counter(
                    "hyrec_dropped_requests_total",
                    self.cluster.dropped_requests,
                )
            )
        return samples

    @property
    def num_users(self) -> int:
        """Registered users."""
        return len(self.profiles)


def derive_seed_for_anonymizer(seed: int) -> int:
    """Keep the anonymizer's stream independent of the sampler's."""
    from repro.sim.randomness import derive_seed

    return derive_seed(seed, "server:anonymizer")
