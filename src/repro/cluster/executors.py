"""Pluggable shard-task executors for the cluster coordinator.

A batch of requests decomposes into one independent task per shard
(each task touches only its own shard's matrix, so tasks never share
mutable state).  The executor decides how those tasks run:

* :class:`SerialExecutor` -- in shard order on the calling thread.
  Fully deterministic, zero overhead; the right choice for tests,
  replays, and debugging.
* :class:`ThreadPoolExecutor` -- a persistent worker pool.  The numpy
  kernels release the GIL for the heavy gathers/bincounts, so shard
  tasks genuinely overlap on multi-core hosts.
* :class:`~repro.cluster.process_executor.ProcessExecutor` -- one
  long-lived worker *process* per shard, each hosting its shard's
  matrix arena, fed by the serialized shard protocol
  (:mod:`repro.cluster.transport`).  Whole interpreters run in
  parallel, so shard scoring scales with cores instead of with
  GIL-released kernel time.  It hosts shard state itself
  (``hosts_shards = True``), so the coordinator hands it serialized
  job slices rather than closures.

All three return results in shard order, so the coordinator's merges
-- and therefore the engine's outputs -- are identical under every
executor.

Elasticity: shard count is no longer fixed at construction.  The
in-process executors need no participation -- the coordinator's
:class:`~repro.cluster.sharded_matrix.ShardedLikedMatrix` appends or
drops shard matrices itself and simply hands the executor more or
fewer tasks per batch.  The process executor hosts shard state, so it
implements the topology surface directly (``add_shard`` spawns and
handshakes a late joiner, ``remove_shard`` drains and retires the
last worker, ``split_buckets`` refines the bucket space over the
wire); the coordinator detects the surface with ``getattr``, exactly
like ``rolling_restart``.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Protocol, Sequence, TypeVar

T = TypeVar("T")

#: Executor names accepted by :func:`make_executor` /
#: ``HyRecConfig.executor``.
EXECUTOR_NAMES = ("serial", "thread", "process")


class ShardExecutor(Protocol):
    """Runs independent shard tasks; preserves submission order."""

    def run(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        ...

    def close(self) -> None:
        ...


class SerialExecutor:
    """Run shard tasks one after another on the calling thread."""

    def run(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        return [task() for task in tasks]

    def close(self) -> None:
        pass


class ThreadPoolExecutor:
    """Run shard tasks on a persistent thread pool."""

    def __init__(self, workers: int | None = None) -> None:
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="shard"
        )

    def run(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        if len(tasks) <= 1:  # skip pool hand-off for degenerate fan-outs
            return [task() for task in tasks]
        futures = [self._pool.submit(task) for task in tasks]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def make_executor(
    name: str,
    workers: int | None = None,
    *,
    ipc_write_batch: int = 1024,
    truncate_partials: bool = True,
    worker_timeout: float = 5.0,
    max_respawns: int = 3,
    retry_backoff: float = 0.05,
    degraded_reads: bool = False,
    obs=None,
) -> ShardExecutor:
    """Build the executor selected by ``HyRecConfig.executor``.

    The keyword knobs configure the process executor's IPC behavior
    (write-buffer flush threshold, shard-local top-K truncation of
    shipped partials), its supervision policy (socket deadline,
    respawn budget/backoff, degraded reads), and the shared
    :class:`~repro.obs.Observability` its workers report into; all of
    them are ignored by the in-process executors, which have no
    workers to lose (their shard metrics sample through the
    coordinator into the shared registry directly).
    """
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadPoolExecutor(workers)
    if name == "process":
        # Imported lazily: the process executor pulls in transport +
        # worker machinery that serial/thread deployments never need.
        from repro.cluster.process_executor import ProcessExecutor

        return ProcessExecutor(
            workers,
            ipc_write_batch=ipc_write_batch,
            truncate_partials=truncate_partials,
            worker_timeout=worker_timeout,
            max_respawns=max_respawns,
            retry_backoff=retry_backoff,
            degraded_reads=degraded_reads,
            obs=obs,
        )
    raise ValueError(
        f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}"
    )
