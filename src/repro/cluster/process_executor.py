"""Long-lived worker processes behind the executor interface.

:class:`ProcessExecutor` is the cross-process back-end of the sharded
engine: it owns one forked worker process per shard (each hosting its
shard's :class:`~repro.engine.liked_matrix.LikedMatrix` arena, see
:mod:`repro.cluster.worker`) and speaks the serialized shard protocol
(:mod:`repro.cluster.transport`) over a private socket pair per
worker.  Where the thread-pool executor overlaps shard tasks only
while the numpy kernels release the GIL, worker processes run whole
Python interpreters in parallel -- real multi-core scaling for the
scatter/score phase.

Parent-side responsibilities:

* **Master vocabulary** -- the parent keeps the authoritative
  :class:`~repro.engine.liked_matrix.ItemVocabulary` (queries are
  projected to columns here, and merged popularity columns resolve to
  item ids here) and replicates it to every worker via append-only
  :class:`~repro.cluster.transport.VocabDelta` frames, flushed before
  any frame that could reference the new columns.
* **Write routing** -- a :class:`~repro.core.tables.ProfileTable`
  listener buffers each write for its owning shard (placement hash)
  and flushes buffers as :class:`~repro.cluster.transport.WriteBatch`
  frames lazily: before job dispatch, before stats reads, at
  ``ipc_write_batch`` buffered writes, and at shutdown.  Reads only
  ever happen through job frames, so deferred delivery is invisible.
* **Lifecycle** -- ``attach`` forks the workers and replays the
  table's pre-existing profiles as ordinary write frames (the
  *warm start*: a worker's state is always exactly "every write of my
  users, in order", no matter when it was born); ``close`` sends
  :class:`~repro.cluster.transport.Shutdown`, joins, and escalates
  terminate ``->`` kill for a wedged worker, so shutdown always reaps.
* **Supervision** -- every parent-side socket carries a
  ``worker_timeout`` deadline, so a dead or wedged worker surfaces as
  an error at the next round trip instead of a hang.  The attached
  :class:`~repro.cluster.supervisor.WorkerSupervisor` then re-forks
  the shard's worker and warm-starts it from the parent table (the
  replay log): recovery is exact because a worker's state is by
  construction "every write of my buckets, replayed".  A shard whose
  respawn budget is exhausted is *down*: reads fail fast with
  :class:`~repro.cluster.supervisor.ShardUnavailable`, or -- with
  ``degraded_reads=True`` -- serve the surviving shards' partials
  (the coordinator flags those results ``degraded``).  Writes are
  never dropped while a shard is down: the table keeps them, and the
  next respawn replays them.
* **Elastic topology** -- :meth:`~ProcessExecutor.add_shard` forks,
  handshakes, and vocab-replicates a late joiner (an ordinary Hello at
  the current epoch -- a join owns nothing, so it never moves the
  routing version) that owns no buckets until the coordinator
  migrates its share in; :meth:`~ProcessExecutor.remove_shard` retires
  the last, already drained shard with a clean Shutdown; and
  :meth:`~ProcessExecutor.split_buckets` refines the bucket space in
  place via the :class:`~repro.cluster.transport.SplitBuckets`
  frame -- zero data motion, because the modular bucket hash is
  stable under multiplication of the bucket count.
* **Concurrency** -- every bidirectional exchange (job dispatch,
  stats, handoffs, topology changes) serializes on :attr:`ops_lock`,
  taken per *step* by background movers so serving interleaves with a
  multi-bucket drain.  Table writes never wait on it: they append to
  the per-shard buffers under the cheap :attr:`_buffer_lock` (which
  also makes route+append atomic against a concurrent map bump, with
  in-flight buffered writes rerouted at the bump) and only *try* the
  ops lock for an eager flush.

The executor deliberately does *not* implement the in-process
``run(tasks)`` call: shard state lives in the workers, so the
coordinator hands it serialized job slices (:meth:`run_slices`)
instead of closures.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from typing import Sequence

import numpy as np

from repro.cluster.placement import PlacementMap
from repro.cluster.scoring import ShardSlice, WirePartial
from repro.cluster.sharded_matrix import ShardStats
from repro.cluster.supervisor import ShardUnavailable, WorkerSupervisor
from repro.cluster.transport import (
    HELLO_FLAG_METRICS,
    Channel,
    HandoffData,
    HandoffRequest,
    Hello,
    JobSlices,
    MapUpdate,
    Message,
    MetricsRequest,
    MetricsSnapshot,
    Partials,
    Ready,
    Shutdown,
    SplitBuckets,
    StatsReply,
    StatsRequest,
    TransportError,
    VocabDelta,
    WriteBatch,
)
from repro.cluster.worker import worker_main
from repro.core.tables import ProfileTable
from repro.engine.liked_matrix import ItemVocabulary
from repro.obs import Observability
from repro.obs.exposition import sample_from_wire
from repro.obs.registry import MetricSample
from repro.obs.tracing import SpanContext, SpanRecord


class ProcessExecutor:
    """N worker processes, one per shard, fed by the shard protocol."""

    #: Tells the coordinator this executor *hosts* shard state (fed by
    #: serialized frames) instead of running closures over in-process
    #: shards; see :class:`repro.cluster.coordinator.ClusterCoordinator`.
    hosts_shards = True

    def __init__(
        self,
        workers: int | None = None,
        *,
        ipc_write_batch: int = 1024,
        truncate_partials: bool = True,
        worker_timeout: float = 5.0,
        max_respawns: int = 3,
        retry_backoff: float = 0.05,
        degraded_reads: bool = False,
        obs: Observability | None = None,
    ) -> None:
        """
        Args:
            workers: Accepted for :func:`make_executor` signature
                compatibility; the process executor always runs one
                worker per shard (shard state is not divisible), so
                this is ignored.
            ipc_write_batch: Buffered writes per worker that trigger an
                eager flush; smaller values trade syscalls for lower
                write-visibility latency (results never change --
                reads always flush first).
            truncate_partials: Ship only each shard's local top-``k``
                scored candidates (exactness-preserving; see
                :func:`repro.cluster.scoring.truncate_topk`).  ``False``
                ships full partials -- useful for measuring what the
                truncation saves.
            worker_timeout: Deadline (seconds) on every parent-side
                socket operation, and the per-stage join timeout during
                shutdown escalation.  Must exceed the worst-case time a
                worker legitimately spends on one frame (scoring one
                batch), or healthy-but-slow workers get respawned.
            max_respawns: Re-fork attempts per failure incident before
                a shard is declared down; ``0`` disables automatic
                respawn entirely.
            retry_backoff: Base of the exponential backoff (seconds)
                between respawn attempts within one incident.
            degraded_reads: When a shard is down, serve reads from the
                surviving shards (results are flagged ``degraded``)
                instead of raising :class:`ShardUnavailable`.
            obs: The deployment's shared :class:`~repro.obs.Observability`.
                With metrics enabled, workers run live registries
                (:data:`~repro.cluster.transport.HELLO_FLAG_METRICS`)
                polled by :meth:`metrics_samples`; with tracing
                enabled, traced batches stitch worker score spans into
                the parent's traces.  Defaults to a disabled instance.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "executor='process' needs the fork start method "
                "(POSIX); use 'thread' on this platform"
            )
        del workers  # one process per shard, always
        if ipc_write_batch < 1:
            raise ValueError(
                f"ipc_write_batch must be at least 1, got {ipc_write_batch}"
            )
        if worker_timeout <= 0:
            raise ValueError(
                f"worker_timeout must be positive, got {worker_timeout}"
            )
        if max_respawns < 0:
            raise ValueError(
                f"max_respawns must be non-negative, got {max_respawns}"
            )
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be non-negative, got {retry_backoff}"
            )
        self._ctx = multiprocessing.get_context("fork")
        self.ipc_write_batch = ipc_write_batch
        self.truncate_partials = truncate_partials
        self.worker_timeout = worker_timeout
        self.max_respawns = max_respawns
        self.retry_backoff = retry_backoff
        self.degraded_reads = degraded_reads
        self.obs = obs if obs is not None else Observability.disabled()
        self.vocab = ItemVocabulary()
        self.placement: PlacementMap | None = None
        self.supervisor: WorkerSupervisor | None = None
        #: Shards the last ``run_slices`` could not serve (down while
        #: ``degraded_reads`` was on); the coordinator reads this to
        #: flag the affected jobs.
        self.last_degraded: tuple[int, ...] = ()
        self._table: ProfileTable | None = None
        self._channels: list[Channel | None] = []
        self._procs: list[multiprocessing.process.BaseProcess | None] = []
        self._write_buffers: list[tuple[list[int], list[int], list[float]]] = []
        self._vocab_synced: list[int] = []
        #: Shards whose channel failed outside a read (a write-path
        #: flush, a handoff): the next read forces a recovery first.
        self._suspect: set[int] = set()
        self._next_batch_id = 0
        self._closed = False
        #: Serializes everything that exchanges frames bidirectionally
        #: or mutates topology -- batch dispatch, migrations, splits,
        #: joins/retires, stats and metrics polls.  A background
        #: rebalancer takes it per single step, so serving interleaves
        #: with topology work instead of waiting out a whole pass.
        #: Table writes never block on it: they append to the buffers
        #: below and only *try* the lock for an eager flush.
        self.ops_lock = threading.RLock()
        #: Guards the write buffers themselves (append vs. the swap in
        #: ``_flush`` and the reroute in ``migrate_bucket``).  Held for
        #: list operations only, never across socket I/O.
        self._buffer_lock = threading.Lock()

    # --- lifecycle ----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        if self.placement is None:
            raise RuntimeError("executor not attached to a cluster yet")
        return self.placement.num_shards

    def attach(
        self,
        table: ProfileTable,
        num_shards: int,
        placement: PlacementMap | None = None,
    ) -> "ProcessExecutor":
        """Spawn the workers and subscribe to the table's write stream.

        Called once by the coordinator.  Profiles already in ``table``
        are warm-started: replayed to their owning workers as ordinary
        write frames (current value per rated item -- bit-equivalent
        to the write history for every liked/rated-set read), so a
        cluster attached to a populated table answers exactly like one
        that saw every write live.

        Attach is loud and atomic: the supervisor only comes online
        after the warm start completes, so a handshake or replay
        failure propagates naming the shard that failed, and the
        ``close()`` below reaps every worker already spawned.
        """
        if self.placement is not None:
            raise RuntimeError("ProcessExecutor is already attached")
        if self._closed:
            raise RuntimeError("ProcessExecutor is closed")
        if placement is not None and placement.num_shards != num_shards:
            # Validated before any state mutates: a failed attach must
            # leave the executor attachable/closable, not half-built.
            raise ValueError("placement and num_shards disagree")
        self.placement = (
            placement if placement is not None else PlacementMap(num_shards)
        )
        self._table = table
        self._write_buffers = [([], [], []) for _ in range(num_shards)]
        self._vocab_synced = [0] * num_shards
        self._channels = [None] * num_shards
        self._procs = [None] * num_shards

        try:
            for shard in range(num_shards):
                self._spawn_worker(shard)
            for shard in range(num_shards):
                self._handshake(shard)

            # Warm start: the pre-attach table state, as write frames.
            # The supervisor is still None here, so a delivery failure
            # propagates (naming the shard) instead of being absorbed
            # into the recovery machinery.
            for user_id in table:
                profile = table.get(user_id)
                for item in profile.rated_items():
                    value = profile.value_of(item)
                    assert value is not None  # rated_items() lists opinions
                    self._buffer_write(user_id, item, value)
        except BaseException:
            self.close()  # reap any workers already spawned
            raise
        self.supervisor = WorkerSupervisor(
            self,
            worker_timeout=self.worker_timeout,
            max_respawns=self.max_respawns,
            retry_backoff=self.retry_backoff,
        )
        table.add_listener(self._route_write)
        return self

    def close(self) -> None:
        """Shut the workers down cleanly (idempotent).

        Buffered writes are NOT flushed -- nothing will read them --
        but every worker gets a :class:`Shutdown` frame and a join;
        one that fails to exit is terminated, and one that survives
        SIGTERM (wedged or stopped) is killed.  Every child is reaped:
        no zombies outlive a closed executor.
        """
        with self.ops_lock:
            if self._closed:
                return
            self._closed = True
            if self._table is not None:
                # Detach the write router: writes recorded after close()
                # must not buffer into (or index) the torn-down channels.
                self._table.remove_listener(self._route_write)
                self._table = None
            for channel in self._channels:
                if channel is None:
                    continue
                try:
                    channel.send(Shutdown())
                except (TransportError, OSError):
                    pass  # worker already gone; reap below cleans up
                channel.close()
            for proc in self._procs:
                if proc is not None:
                    self._reap(proc)
            self._channels = []
            self._procs = []

    def _reap(self, proc: multiprocessing.process.BaseProcess) -> None:
        """Join with escalation: wait, then terminate, then kill.

        A wedged worker (stopped, or stuck inside a handler) ignores
        the Shutdown frame and can leave SIGTERM pending forever;
        SIGKILL cannot be blocked, so the final stage always reaps.
        """
        proc.join(timeout=self.worker_timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=self.worker_timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()

    # --- spawn / respawn ----------------------------------------------------

    def _spawn_worker(self, shard: int) -> None:
        """Fork one shard's worker over a fresh deadline socket pair."""
        parent_sock, child_sock = socket.socketpair()
        # The child must close every parent-side fd it inherits across
        # the fork (the other live shards' and its own): otherwise it
        # holds both ends of the pairs and the workers' clean-EOF exit
        # (parent gone without a Shutdown frame) could never fire.
        inherited = tuple(
            ch.sock for ch in self._channels if ch is not None
        ) + (parent_sock,)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_sock, shard, inherited),
            name=f"hyrec-shard-{shard}",
            daemon=True,
        )
        proc.start()
        child_sock.close()  # the worker holds the only live end now
        parent_sock.settimeout(self.worker_timeout)
        self._procs[shard] = proc
        self._channels[shard] = Channel(parent_sock)

    def _handshake(self, shard: int) -> None:
        """Hello/Ready exchange pinning the shard at the current epoch."""
        assert self.placement is not None
        channel = self._channels[shard]
        assert channel is not None
        flags = HELLO_FLAG_METRICS if self.obs.registry.enabled else 0
        try:
            channel.send(
                Hello(
                    shard=shard,
                    num_shards=self.num_shards,
                    num_buckets=self.placement.num_buckets,
                    map_version=self.placement.version,
                    flags=flags,
                )
            )
            ready = channel.recv()
        except OSError as exc:
            raise TransportError(
                f"worker {shard} failed the handshake: {exc}"
            ) from exc
        if not isinstance(ready, Ready) or ready.shard != shard:
            raise TransportError(
                f"worker {shard} answered the handshake with {ready!r}"
            )

    def _warm_replay(self, shard: int) -> None:
        """Rebuild one shard's worker state from the replay log.

        The parent table holds every write of every bucket, so "every
        write of this shard's users, in table order, current value per
        rated item" is bit-equivalent to the history the dead worker
        had applied -- plus anything that was still buffered or
        recorded while it was down, which is why respawn never loses a
        write.  Resets the shard's buffer and vocab cursor first: the
        fresh replica starts from column zero.
        """
        assert self._table is not None and self.placement is not None
        self._write_buffers[shard] = ([], [], [])
        self._vocab_synced[shard] = 0
        shard_of = self.placement.shard_of
        for user_id in self._table:
            if shard_of(user_id) != shard:
                continue
            profile = self._table.get(user_id)
            users, items, values = self._write_buffers[shard]
            for item in profile.rated_items():
                value = profile.value_of(item)
                assert value is not None  # rated_items() lists opinions
                users.append(user_id)
                items.append(item)
                values.append(value)
            if len(users) >= self.ipc_write_batch:
                self._flush(shard)

    def _respawn(self, shard: int) -> None:
        """Replace one shard's worker: reap, re-fork, handshake, replay.

        The fresh worker's Hello pins the *current* routing epoch, so
        no migration history needs replaying; the warm-start replay
        then delivers the shard's full state from the parent table.
        Raises :class:`TransportError`/``OSError`` on failure (the
        supervisor's budget loop decides whether to retry).
        """
        assert self.placement is not None and self._table is not None
        channel = self._channels[shard]
        if channel is not None:
            channel.close()
        old = self._procs[shard]
        self._channels[shard] = None
        self._procs[shard] = None
        if old is not None:
            self._reap(old)
        self._spawn_worker(shard)
        self._handshake(shard)
        self._warm_replay(shard)
        self._flush(shard)
        self._suspect.discard(shard)

    def respawn(self, shard: int) -> None:
        """Force-respawn one shard's worker (the manual operator path).

        Unlike the supervisor's budgeted ``recover``, this always
        attempts exactly one respawn and raises on failure; success
        books a restart and clears the shard's down/degraded state.
        """
        with self.ops_lock:
            if self._closed or self.placement is None:
                raise RuntimeError("ProcessExecutor is not running")
            if not 0 <= shard < self.num_shards:
                raise ValueError(f"no such shard: {shard}")
            self._respawn(shard)
            if self.supervisor is not None:
                self.supervisor.restarts[shard] += 1
                self.supervisor.down.discard(shard)

    def rolling_restart(self) -> int:
        """Cycle every worker, one at a time, under live traffic.

        Per shard: **drain** (flush buffered writes, send a clean
        :class:`Shutdown`), **respawn** (re-fork; the Hello pins the
        current routing epoch), **warm replay** (full state from the
        replay log), then **epoch re-broadcast** (an idempotent
        :class:`MapUpdate` at the current version -- survivors confirm
        their epoch, the newcomer already holds it).  The executor is
        synchronous, so each cycle completes between requests: no
        request ever observes a half-restarted cluster, and results
        are bit-for-bit unchanged.  Downed shards are revived on the
        way through.  Returns the number of workers cycled.
        """
        with self.ops_lock:
            if self._closed or self.placement is None:
                raise RuntimeError("ProcessExecutor is not running")
            start = time.perf_counter()
            for shard in range(self.num_shards):
                channel = self._channels[shard]
                if channel is not None and not self._shard_unhealthy(shard):
                    try:
                        self._flush(shard)
                        channel.send(Shutdown())
                    except (TransportError, OSError):
                        pass  # died just now; _respawn escalates the reap
                self.respawn(shard)
                self._broadcast_epoch()
            self.obs.events.record(
                "rolling_restart",
                workers=self.num_shards,
                duration_ms=round((time.perf_counter() - start) * 1e3, 3),
            )
            return self.num_shards

    # --- health -------------------------------------------------------------

    def _shard_unhealthy(self, shard: int) -> bool:
        """True when the shard needs a recovery before its next read."""
        if shard in self._suspect:
            return True
        return self.supervisor is not None and shard in self.supervisor.down

    def _recover(self, shard: int) -> bool:
        """Budgeted recovery via the supervisor (False = shard down)."""
        if self.supervisor is None:
            return False
        return self.supervisor.recover(shard)

    def _broadcast_epoch(self) -> None:
        """Idempotent MapUpdate at the current version, to every live worker.

        A bystander dying mid-broadcast is marked suspect (its next
        read recovers it -- and the respawn Hello carries the current
        epoch anyway) instead of failing the caller's operation.
        """
        assert self.placement is not None
        for shard in range(self.num_shards):
            if self._channels[shard] is None or self._shard_unhealthy(shard):
                continue
            try:
                self._deliver(shard, MapUpdate(version=self.placement.version))
            except TransportError:
                self._suspect.add(shard)

    # --- write routing ------------------------------------------------------

    def _route_write(
        self, user_id: int, item: int, value: float, previous: float | None
    ) -> None:
        """ProfileTable hook: buffer the write for the owning worker."""
        del previous  # workers reconstruct it from their local replica
        self._buffer_write(user_id, item, value)

    def _buffer_write(self, user_id: int, item: int, value: float) -> None:
        assert self.placement is not None
        self.vocab.intern(item)  # master assigns the column in write order
        with self._buffer_lock:
            # Routing and buffering are atomic against a concurrent
            # map bump: migrate_bucket reroutes the old owner's
            # buffered writes under this same lock, so a write can
            # never land on the old owner *after* the reroute swept it.
            shard = self.placement.shard_of(user_id)
            if self.supervisor is not None and self._shard_unhealthy(shard):
                # The table already holds the write (it IS the replay
                # log); the recovery that brings the shard back replays
                # it.  Buffering for a channel that will be torn down
                # anyway would only grow memory.
                return
            users, items, values = self._write_buffers[shard]
            users.append(user_id)
            items.append(item)
            values.append(value)
            pending = len(users)
        if pending >= self.ipc_write_batch:
            if self.supervisor is None:
                self._flush(shard)  # attach-time warm start: fail loudly
                return
            # The eager flush is best-effort: it only *tries* the ops
            # lock, so a write recorded while a migration or batch is
            # in flight buffers instead of blocking (or interleaving
            # frames into a channel mid-exchange).  The next flush
            # point -- dispatch, stats, or the op's own drain --
            # delivers it.
            if not self.ops_lock.acquire(blocking=False):
                return
            try:
                self._flush(shard)
            except (TransportError, OSError):
                # Never fail the caller's table write: the write is
                # durable in the table, and marking the shard suspect
                # forces the next read to recover (which replays it).
                self._suspect.add(shard)
            finally:
                self.ops_lock.release()

    def _deliver(self, shard: int, msg: Message) -> None:
        """Send one frame, wrapping socket errors with the shard index."""
        channel = self._channels[shard]
        if channel is None:
            raise TransportError(f"worker {shard} has no live channel")
        try:
            channel.send(msg)
        except OSError as exc:
            raise TransportError(
                f"worker {shard} unreachable ({exc})"
            ) from exc

    def _sync_vocab(self, shard: int) -> None:
        """Send the columns this worker has not seen yet (if any)."""
        total = len(self.vocab)
        synced = self._vocab_synced[shard]
        if total > synced:
            self._deliver(
                shard,
                VocabDelta(base=synced, items=self.vocab.item_array()[synced:]),
            )
            self._vocab_synced[shard] = total

    def _flush(self, shard: int) -> None:
        """Deliver the shard's buffered writes (vocab delta first).

        The buffers are swapped out under the buffer lock *before* the
        vocabulary sync: any write in the taken batch interned its item
        before appending, so syncing afterwards always covers the
        batch's columns -- even when a concurrent writer thread appends
        mid-flush.  A failed delivery restores the taken writes at the
        front of the buffer (order preserved) so no flush point can
        silently drop them.
        """
        with self._buffer_lock:
            users, items, values = self._write_buffers[shard]
            taken = bool(users)
            if taken:
                self._write_buffers[shard] = ([], [], [])
        try:
            self._sync_vocab(shard)
            if not taken:
                return
            self._deliver(
                shard,
                WriteBatch(
                    user_ids=np.asarray(users, dtype=np.int64),
                    items=np.asarray(items, dtype=np.int64),
                    values=np.asarray(values, dtype=np.float64),
                ),
            )
        except BaseException:
            if taken:
                with self._buffer_lock:
                    later = self._write_buffers[shard]
                    self._write_buffers[shard] = (
                        users + later[0],
                        items + later[1],
                        values + later[2],
                    )
            raise

    # --- coordinator surface ------------------------------------------------

    def partition(
        self, user_ids: Sequence[int]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split a candidate list by owning shard (see ``PlacementMap``)."""
        assert self.placement is not None
        return self.placement.partition(user_ids)

    def run_slices(
        self,
        shard_slices: Sequence[Sequence[ShardSlice]],
        trace: SpanContext | None = None,
    ) -> list[dict[int, WirePartial]]:
        """Execute one batch: slices out to every worker, partials back.

        All job frames are written before any reply is read, so the
        workers score their slices concurrently -- this is where the
        multi-core parallelism lives.  Pending vocabulary deltas and
        write buffers flush first (to *every* worker: query columns
        interned this batch must exist on all replicas before their
        slices arrive).  Results preserve shard order, and partials
        within a shard are keyed by job index, so the merge is
        deterministic regardless of worker timing.

        A shard that fails anywhere in the exchange (EOF, deadline,
        protocol violation) drops out of the concurrent path and is
        retried synchronously after a supervisor recovery -- the
        retried worker warm-started from the replay log computes the
        identical partials, so recovery is invisible in the results.
        A shard that stays down either raises
        :class:`ShardUnavailable` or, with ``degraded_reads``, serves
        nothing this batch (see :attr:`last_degraded`).

        ``trace`` is the coordinator's score-span context when the
        batch is traced: it stamps every job frame, and the workers'
        measured score spans (returned on the Partials) are adopted
        into the parent tracer -- once per shard, on the successful
        receive only, so a recovery retry never duplicates spans.
        """
        with self.ops_lock:
            if self._closed or self.placement is None:
                raise RuntimeError("ProcessExecutor is not running")
            if len(shard_slices) != self.num_shards:
                raise ValueError("one slice list per shard required")
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            trace_id = trace[0] if trace is not None else 0
            trace_parent = trace[1] if trace is not None else 0
            frames: list[JobSlices | None] = [
                JobSlices(
                    batch_id=batch_id,
                    truncate=self.truncate_partials,
                    slices=tuple(slices),
                    map_version=self.placement.version,
                    trace_id=trace_id,
                    trace_parent=trace_parent,
                )
                if slices
                else None
                for slices in shard_slices
            ]
            failed: set[int] = set()
            for shard, frame in enumerate(frames):
                if self._shard_unhealthy(shard):
                    failed.add(shard)
                    continue
                try:
                    self._flush(shard)
                    if frame is not None:
                        self._deliver(shard, frame)
                except (TransportError, OSError):
                    failed.add(shard)
            # Drain every healthy shard's reply *before* any retry can
            # raise: a ShardUnavailable escaping mid-drain would strand
            # unread Partials in the surviving channels and desync them.
            results: list[dict[int, WirePartial] | None] = [None] * len(frames)
            for shard, frame in enumerate(frames):
                if shard in failed:
                    continue
                if frame is None:
                    results[shard] = {}
                    continue
                try:
                    results[shard] = self._recv_partials(shard, batch_id, trace)
                except (TransportError, OSError):
                    failed.add(shard)
            degraded: list[int] = []
            for shard in sorted(failed):
                partials = self._retry_shard(
                    shard, frames[shard], batch_id, trace
                )
                if partials is None:
                    degraded.append(shard)
                    results[shard] = {}
                else:
                    results[shard] = partials
            self.last_degraded = tuple(degraded)
            return results

    def _recv_partials(
        self,
        shard: int,
        batch_id: int,
        trace: SpanContext | None = None,
    ) -> dict[int, WirePartial]:
        channel = self._channels[shard]
        assert channel is not None
        reply = channel.recv()
        if not isinstance(reply, Partials) or reply.batch_id != batch_id:
            raise TransportError(
                f"worker {shard} answered batch {batch_id} with {reply!r}"
            )
        if trace is not None and reply.spans:
            self.obs.tracer.adopt(
                SpanRecord(
                    trace_id=trace[0],
                    span_id=span.span_id,
                    parent_id=span.parent_id,
                    name=span.name,
                    start_us=span.start_us,
                    dur_us=span.dur_us,
                    pid=span.pid,
                )
                for span in reply.spans
            )
        return {partial.job_index: partial for partial in reply.partials}

    def _retry_shard(
        self,
        shard: int,
        frame: JobSlices | None,
        batch_id: int,
        trace: SpanContext | None = None,
    ) -> dict[int, WirePartial] | None:
        """Recover a failed shard and re-run its half of the batch.

        The coordinator is synchronous, so no write lands between the
        failed attempt and the retry: the respawned worker scores the
        identical frame against identical state, keeping the batch
        bit-for-bit exact.  Returns ``None`` when the shard stays down
        and ``degraded_reads`` allows serving without it; raises
        :class:`ShardUnavailable` otherwise.
        """
        for _ in range(2):
            if not self._recover(shard):
                break
            if frame is None:
                return {}
            try:
                self._flush(shard)
                self._deliver(shard, frame)
                return self._recv_partials(shard, batch_id, trace)
            except (TransportError, OSError):
                continue
        if self.degraded_reads:
            return None
        raise ShardUnavailable(shard, "respawn budget exhausted")

    def migrate_bucket(self, bucket: int, new_owner: int) -> int:
        """Hand one placement bucket from its owner to ``new_owner``.

        The live-handoff sequence (see ``docs/architecture.md``):

        1. **Drain** -- every worker's write buffer flushes, so all
           writes routed under the old map reach the old owner before
           extraction (they travel with the handoff).
        2. **Extract** -- a :class:`HandoffRequest` for the next epoch
           goes to the old owner, which replays the bucket's users out
           (warm-start form), evicts them locally, and bumps its epoch.
        3. **Replay** -- the :class:`HandoffData` reply is forwarded
           verbatim to the new owner (after a vocab sync, so every
           replayed item already has its column), which absorbs the
           rows and bumps its epoch.
        4. **Map bump** -- only now does the parent's placement map
           move the bucket (atomically, on the routing thread), so a
           handoff that fails at any earlier step leaves routing
           untouched and the error surfaces loudly.
        5. **Epoch broadcast** -- a :class:`MapUpdate` goes to every
           worker; the participants already hold the new epoch (the
           broadcast is idempotent for them), the bystanders advance.

        Migrations do not self-heal: a participant dying mid-handoff
        fails this call loudly (routing untouched) and marks the
        worker for recovery at its next read; callers wanting moves
        during an outage must recover first (the rebalancer simply
        pauses -- see ``ShardRebalancer``).

        The whole exchange runs under :attr:`ops_lock`, so a handoff
        driven from a background rebalancer thread serializes against
        batch dispatch.  Concurrent table *writes* never wait: they
        buffer (the eager flush only tries the lock), and any write
        for the moving bucket that buffered mid-handoff is rerouted to
        the new owner atomically with the map bump -- delivered after
        the absorbed handoff data, in its original order, so nothing
        is lost or applied out of order.

        Returns the new map version.
        """
        with self.ops_lock:
            if self._closed or self.placement is None:
                raise RuntimeError("ProcessExecutor is not running")
            placement = self.placement
            old_owner = placement.validate_move(bucket, new_owner)
            for shard in range(self.num_shards):
                if self._shard_unhealthy(shard):
                    raise ShardUnavailable(
                        shard, "cannot migrate while a shard needs recovery"
                    )
                self._flush(shard)
            new_version = placement.version + 1
            try:
                self._deliver(
                    old_owner,
                    HandoffRequest(bucket=bucket, version=new_version),
                )
                channel = self._channels[old_owner]
                assert channel is not None
                reply = channel.recv()
            except (TransportError, OSError):
                self._suspect.add(old_owner)
                raise
            if (
                not isinstance(reply, HandoffData)
                or reply.bucket != bucket
                or reply.version != new_version
            ):
                raise TransportError(
                    f"worker {old_owner} answered the handoff of bucket "
                    f"{bucket} with {reply!r}"
                )
            try:
                self._sync_vocab(new_owner)
                self._deliver(new_owner, reply)
            except TransportError:
                self._suspect.add(new_owner)
                raise
            with self._buffer_lock:
                placement.move_bucket(bucket, new_owner)
                self._reroute_bucket_locked(bucket, old_owner, new_owner)
            assert placement.version == new_version
            self._broadcast_epoch()
            return new_version

    def _reroute_bucket_locked(
        self, bucket: int, old_owner: int, new_owner: int
    ) -> None:
        """Move a migrated bucket's buffered writes to its new owner.

        Called with the buffer lock held, atomically with the map
        bump.  Writes recorded during the handoff (after the drain)
        buffered under the old map; the extraction never saw them, so
        they belong at the new owner, *after* the handoff data it just
        absorbed -- which appending achieves, since the buffer flushes
        later than the forwarded frame.  Per-user order is preserved
        (the scan keeps buffer order), and cross-user order between
        buffers is irrelevant: replay semantics are per user.
        """
        assert self.placement is not None
        users, items, values = self._write_buffers[old_owner]
        if not users:
            return
        bucket_of = self.placement.bucket_of
        keep: tuple[list[int], list[int], list[float]] = ([], [], [])
        moved: tuple[list[int], list[int], list[float]] = ([], [], [])
        for user_id, item, value in zip(users, items, values):
            dest = moved if bucket_of(user_id) == bucket else keep
            dest[0].append(user_id)
            dest[1].append(item)
            dest[2].append(value)
        if not moved[0]:
            return
        self._write_buffers[old_owner] = keep
        target = self._write_buffers[new_owner]
        target[0].extend(moved[0])
        target[1].extend(moved[1])
        target[2].extend(moved[2])

    # --- elastic topology ---------------------------------------------------

    def add_shard(self) -> int:
        """Grow the fleet by one empty worker; returns its index.

        The joiner is spawned and handshaken at the *current* epoch
        and bucket count (its Hello pins both), then receives the full
        vocabulary replica -- at which point it is a first-class,
        supervised worker that simply owns no buckets yet; the
        coordinator migrates its share in through the ordinary
        epoch-bumped handoff.  A spawn or handshake failure rolls the
        topology back completely and raises; the join never moves the
        epoch.
        """
        with self.ops_lock:
            if self._closed or self.placement is None:
                raise RuntimeError("ProcessExecutor is not running")
            for shard in range(self.num_shards):
                if self._shard_unhealthy(shard):
                    raise ShardUnavailable(
                        shard, "cannot grow while a shard needs recovery"
                    )
            placement = self.placement
            shard = placement.add_shard()
            with self._buffer_lock:
                self._write_buffers.append(([], [], []))
            self._vocab_synced.append(0)
            self._channels.append(None)
            self._procs.append(None)
            try:
                self._spawn_worker(shard)
                self._handshake(shard)
                self._sync_vocab(shard)
            except BaseException:
                channel = self._channels[shard]
                if channel is not None:
                    channel.close()
                proc = self._procs[shard]
                if proc is not None:
                    self._reap(proc)
                self._channels.pop()
                self._procs.pop()
                self._vocab_synced.pop()
                with self._buffer_lock:
                    self._write_buffers.pop()
                placement.remove_last_shard()
                raise
            if self.supervisor is not None:
                self.supervisor.add_shard()
        return shard

    def remove_shard(self) -> int:
        """Retire the last, already drained worker; returns its index.

        Only the last index can retire (lower ones would renumber the
        fleet), and only once the coordinator has migrated its buckets
        out -- :meth:`PlacementMap.remove_last_shard` refuses it
        otherwise.  The empty worker gets a clean :class:`Shutdown` and
        is reaped.  Like a join, the retire never moves the epoch.
        """
        with self.ops_lock:
            if self._closed or self.placement is None:
                raise RuntimeError("ProcessExecutor is not running")
            for other in range(self.num_shards):
                if self._shard_unhealthy(other):
                    raise ShardUnavailable(
                        other, "cannot shrink while a shard needs recovery"
                    )
            shard = self.placement.remove_last_shard()
            channel = self._channels[shard]
            if channel is not None:
                try:
                    self._flush(shard)  # vocab cursor tidiness only
                    channel.send(Shutdown())
                except (TransportError, OSError):
                    pass  # died just now; the reap below still collects
                channel.close()
            proc = self._procs[shard]
            self._channels.pop()
            self._procs.pop()
            self._vocab_synced.pop()
            with self._buffer_lock:
                self._write_buffers.pop()
            self._suspect.discard(shard)
            if self.supervisor is not None:
                self.supervisor.remove_last_shard()
            if proc is not None:
                self._reap(proc)
        return shard

    def split_buckets(self, factor: int = 2) -> int:
        """Refine the bucket space by ``factor``; returns the new version.

        No data moves (see ``PlacementMap.split_buckets``): every
        worker just learns the new bucket count and the epoch the
        split creates through a :class:`SplitBuckets` frame.  The
        split commits on the parent even if a worker fails the
        delivery -- that worker is marked suspect and its respawn
        Hello carries the post-split count, so it can never serve
        under the stale numbering.
        """
        with self.ops_lock:
            if self._closed or self.placement is None:
                raise RuntimeError("ProcessExecutor is not running")
            if factor < 2:
                raise ValueError(f"split factor must be >= 2, got {factor}")
            placement = self.placement
            for shard in range(self.num_shards):
                if self._shard_unhealthy(shard):
                    raise ShardUnavailable(
                        shard, "cannot split while a shard needs recovery"
                    )
                self._flush(shard)
            new_version = placement.version + 1
            new_count = placement.num_buckets * factor
            for shard in range(self.num_shards):
                try:
                    self._deliver(
                        shard,
                        SplitBuckets(
                            num_buckets=new_count, version=new_version
                        ),
                    )
                except TransportError:
                    self._suspect.add(shard)
            with self._buffer_lock:
                placement.split_buckets(factor)
            assert placement.version == new_version
            assert placement.num_buckets == new_count
            return new_version

    def metrics_samples(self) -> list[MetricSample]:
        """Pull every live worker's metrics snapshot over the wire.

        Per healthy shard: flush (so shipped counters include buffered
        writes), one :class:`MetricsRequest` round trip, and the
        :class:`MetricsSnapshot` reply converted back into registry
        samples.  A shard that fails the exchange is marked suspect
        (its next read recovers it) and simply contributes nothing to
        this poll -- exposition must never take the cluster down.
        Returns ``[]`` when metrics are disabled or the executor is
        not running.
        """
        with self.ops_lock:
            if self._closed or self.placement is None:
                return []
            if not self.obs.registry.enabled:
                return []
            samples: list[MetricSample] = []
            for shard in range(self.num_shards):
                if self._shard_unhealthy(shard):
                    continue
                try:
                    self._flush(shard)
                    self._deliver(shard, MetricsRequest())
                    channel = self._channels[shard]
                    assert channel is not None
                    reply = channel.recv()
                    if (
                        not isinstance(reply, MetricsSnapshot)
                        or reply.shard != shard
                    ):
                        raise TransportError(
                            f"worker {shard} answered metrics with {reply!r}"
                        )
                except (TransportError, OSError):
                    self._suspect.add(shard)
                    continue
                samples.extend(
                    sample_from_wire(wire) for wire in reply.samples
                )
            return samples

    def stats(self) -> tuple[ShardStats, ...]:
        """Per-worker load/churn counters, via a stats round trip.

        Each shard is probed (ping, refreshing ``last_ping_ms``)
        and queried; a shard that fails gets one recovery attempt, and
        one that stays down is reported as a dead row
        (``alive=False``) rather than failing the whole read --
        liveness is exactly what stats exist to surface.
        """
        with self.ops_lock:
            if self._closed or self.placement is None:
                raise RuntimeError("ProcessExecutor is not running")
            return tuple(
                self._stat_shard(shard) for shard in range(self.num_shards)
            )

    def _stat_shard(self, shard: int) -> ShardStats:
        supervisor = self.supervisor
        for _ in range(2):
            if self._shard_unhealthy(shard) and not self._recover(shard):
                break
            try:
                self._flush(shard)  # counters must include buffered writes
                if supervisor is not None:
                    supervisor.ping(shard)
                self._deliver(shard, StatsRequest())
                channel = self._channels[shard]
                assert channel is not None
                reply = channel.recv()
                if not isinstance(reply, StatsReply):
                    raise TransportError(
                        f"worker {shard} answered stats with {reply!r}"
                    )
            except (TransportError, OSError):
                self._suspect.add(shard)
                continue
            return ShardStats(
                shard=shard,
                users=reply.users,
                arena_live=reply.arena_live,
                arena_garbage=reply.arena_garbage,
                writes=reply.writes,
                compactions=reply.compactions,
                pid=reply.pid,
                alive=True,
                restarts=supervisor.restarts[shard] if supervisor else 0,
                last_ping_ms=(
                    supervisor.last_ping_ms[shard] if supervisor else -1.0
                ),
                arena_capacity=reply.arena_capacity,
            )
        return ShardStats(
            shard=shard,
            users=0,
            arena_live=0,
            arena_garbage=0,
            writes=0,
            compactions=0,
            pid=0,
            alive=False,
            restarts=supervisor.restarts[shard] if supervisor else 0,
            last_ping_ms=-1.0,
        )

    # --- ShardExecutor protocol compatibility -------------------------------

    def run(self, tasks):  # pragma: no cover - guard rail
        """Unsupported: shard state lives out of process.

        The coordinator detects :attr:`hosts_shards` and dispatches
        serialized slices via :meth:`run_slices` instead of closures.
        """
        raise TypeError(
            "ProcessExecutor hosts shard state in worker processes; "
            "it executes serialized job slices (run_slices), not closures"
        )
