"""Worker supervision: liveness probes, respawn budgets, recovery.

The process executor is exact but, on its own, fragile: a shard worker
that dies (OOM kill, crash, operator signal) turns every subsequent
round trip into an EOF or a timeout.  :class:`WorkerSupervisor` is the
policy layer that turns those low-level failures into recoveries:

* **Detection** is passive -- the executor's framed round trips run
  under a socket deadline (``worker_timeout``), so a dead or wedged
  worker surfaces as a :class:`~repro.cluster.transport.TransportError`
  or ``OSError`` at the next exchange.  :meth:`ping` adds an active
  probe (``Ping``/``Pong``) whose round-trip time is the
  per-worker health signal surfaced in ``ServerStats``.
* **Recovery** (:meth:`recover`) re-forks the dead shard's worker and
  warm-starts it from the coordinator-side replay log -- the parent
  :class:`~repro.core.tables.ProfileTable`, which by construction
  holds every write of every bucket.  Exactness is preserved: a
  worker's state *is* "every write of my buckets, replayed", so the
  respawned worker is bit-for-bit the worker that died.  Respawns are
  budgeted (``max_respawns`` attempts per incident, exponential
  ``retry_backoff`` between them); a shard whose budget is exhausted
  is marked *down*.
* **Downed shards** make reads either fail fast with the typed
  :class:`ShardUnavailable` or -- when the executor was built with
  ``degraded_reads=True`` -- serve partials from the surviving shards
  with a ``degraded`` flag on the result.  Writes are never dropped
  either way: the replay log keeps accepting them, and the next
  successful respawn replays them into the fresh worker.

The supervisor holds policy and counters only; the mechanics of
forking, handshaking, and replaying live in
:meth:`~repro.cluster.process_executor.ProcessExecutor._respawn`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.cluster.transport import Ping, Pong, TransportError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.process_executor import ProcessExecutor


class ShardUnavailable(RuntimeError):
    """A shard's worker is down and its respawn budget is exhausted.

    Raised on the read path when ``degraded_reads`` is off (fail
    fast); with degraded reads on, the coordinator serves survivors'
    partials instead and flags the result.  A manual
    ``ProcessExecutor.respawn`` (or ``rolling_restart``) clears the
    condition.
    """

    def __init__(self, shard: int, detail: str = "") -> None:
        self.shard = shard
        message = f"shard {shard} is unavailable"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class WorkerSupervisor:
    """Liveness tracking and respawn policy for one executor's workers.

    Owns the counters ``ServerStats`` surfaces (per-shard ``restarts``
    and ``last_ping_ms``, cluster-level ``recoveries``) plus the
    ``down`` set and the measured ``recovery_times`` the recovery
    benchmark records.
    """

    def __init__(
        self,
        executor: "ProcessExecutor",
        *,
        worker_timeout: float,
        max_respawns: int,
        retry_backoff: float,
    ) -> None:
        self._executor = executor
        self.worker_timeout = worker_timeout
        self.max_respawns = max_respawns
        self.retry_backoff = retry_backoff
        num_shards = executor.num_shards
        #: Successful respawns per shard (automatic, manual, rolling).
        self.restarts = [0] * num_shards
        #: Last successful probe's round trip in ms; -1.0 = never probed.
        self.last_ping_ms = [-1.0] * num_shards
        #: Shards whose respawn budget is exhausted (serving degraded).
        self.down: set[int] = set()
        #: Automatic recoveries that succeeded (cluster-wide).
        self.recoveries = 0
        #: Wall-clock seconds each successful recovery took.
        self.recovery_times: list[float] = []
        #: True while a recovery is in flight (rebalancer pauses moves).
        self.recovering = False
        self._next_nonce = 0

    # --- health ------------------------------------------------------------

    def alive(self, shard: int) -> bool:
        """Process-level liveness: forked, not reaped, not marked down."""
        proc = self._executor._procs[shard]
        return proc is not None and proc.is_alive() and shard not in self.down

    @property
    def healthy(self) -> bool:
        """No downed shards, no recovery in flight, every worker alive.

        The rebalancer consults this before proposing or applying
        migrations: moving buckets while a shard is down or mid-respawn
        would race the warm-start replay.
        """
        if self.recovering or self.down:
            return False
        return all(
            proc is not None and proc.is_alive()
            for proc in self._executor._procs
        )

    def ping(self, shard: int) -> float:
        """Round-trip a liveness probe; returns the latency in ms.

        Raises :class:`TransportError` (or ``OSError``) when the worker
        is dead, wedged past ``worker_timeout``, or answers with the
        wrong nonce/shard -- the caller decides whether that triggers a
        recovery.
        """
        channel = self._executor._channels[shard]
        if channel is None:
            raise TransportError(f"worker {shard} has no channel")
        self._next_nonce += 1
        nonce = self._next_nonce
        start = time.perf_counter()
        channel.send(Ping(nonce=nonce))
        reply = channel.recv()
        if (
            not isinstance(reply, Pong)
            or reply.nonce != nonce
            or reply.shard != shard
        ):
            raise TransportError(
                f"worker {shard} answered ping with {reply!r}"
            )
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.last_ping_ms[shard] = elapsed_ms
        return elapsed_ms

    # --- elastic topology ---------------------------------------------------

    def add_shard(self) -> None:
        """Start supervising a late-joining worker (one new last index).

        Called by ``ProcessExecutor.add_shard`` once the joiner has
        handshaken: from here on the new shard is probed, budgeted, and
        recovered exactly like a boot-time worker.
        """
        self.restarts.append(0)
        self.last_ping_ms.append(-1.0)

    def remove_last_shard(self) -> None:
        """Stop supervising the retired last shard.

        Its counters leave with it; a retire is deliberate, so nothing
        is booked as a recovery or a down-mark.
        """
        shard = len(self.restarts) - 1
        self.restarts.pop()
        self.last_ping_ms.pop()
        self.down.discard(shard)

    # --- recovery ----------------------------------------------------------

    def recover(self, shard: int) -> bool:
        """Respawn a dead shard's worker within the budget.

        Attempts up to ``max_respawns`` re-forks with exponential
        backoff between attempts; each successful respawn warm-starts
        the worker from the replay log (see ``ProcessExecutor._respawn``).
        Returns True and books the recovery on success; marks the shard
        down and returns False once the budget is spent (including a
        budget of zero, which disables automatic respawn outright).
        """
        self.recovering = True
        start = time.perf_counter()
        try:
            for attempt in range(self.max_respawns):
                if attempt:
                    time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
                try:
                    self._executor._respawn(shard)
                except (TransportError, OSError):
                    continue
                duration = time.perf_counter() - start
                self.restarts[shard] += 1
                self.recoveries += 1
                self.recovery_times.append(duration)
                self.down.discard(shard)
                obs = self._executor.obs
                obs.registry.counter("hyrec_recoveries_total").inc()
                obs.events.record(
                    "worker_recovered",
                    shard=shard,
                    attempts=attempt + 1,
                    duration_ms=round(duration * 1e3, 3),
                )
                return True
            self.down.add(shard)
            self._executor.obs.events.record("shard_down", shard=shard)
            return False
        finally:
            self.recovering = False
