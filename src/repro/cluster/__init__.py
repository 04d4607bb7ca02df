"""The sharded cluster engine.

Runs the vectorized engine across N hash-partitioned shards: a
:class:`ShardedLikedMatrix` of per-shard arenas and posting lists fed
by placement-routed writes, a :class:`ClusterCoordinator` that fans a
request's :class:`~repro.engine.jobs.EngineJob` out to shards and
merges exact partial top-Ks, and a :class:`BatchScheduler` that
coalesces concurrent requests into one batched kernel invocation per
shard.  Shards run in-process (``executor="serial"``/``"thread"``) or
in long-lived worker processes (``executor="process"``) fed by the
serialized shard protocol in :mod:`repro.cluster.transport`.  Placement
is a movable :class:`PlacementMap` (rendezvous-hashed virtual-node
buckets behind a versioned owner table), so a
:class:`ShardRebalancer` can migrate whole buckets off a hot or
churning shard through the live handoff path without changing a
single output bit.  The topology itself is elastic: the coordinator's
``add_shard``/``remove_shard`` grow and shrink the fleet under live
traffic (a join handshakes at the current epoch and migrates its
rendezvous share in; a retire drains its buckets out), the
:class:`ShardRebalancer` doubles as a watermark-driven autoscaler on a
background control-loop thread, and pathologically hot buckets split
(``split_buckets`` -- an epoch-bumped metadata change that moves no
data).  The process executor is fault tolerant: a
:class:`WorkerSupervisor` detects worker death through socket
deadlines and ping probes, re-forks the shard's worker, and
warm-starts it from the coordinator-side replay log -- recovery is
exact, and ``ProcessExecutor.rolling_restart`` cycles the whole
fleet under live traffic.  Selected per deployment with
``HyRecConfig(engine="sharded")``; results are bit-for-bit identical
to the ``"python"`` and ``"vectorized"`` engines for any shard count,
executor, and migration history.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    merge_popularity,
    merge_topk,
)
from repro.cluster.executors import (
    EXECUTOR_NAMES,
    SerialExecutor,
    ShardExecutor,
    ThreadPoolExecutor,
    make_executor,
)
from repro.cluster.placement import PlacementMap
from repro.cluster.process_executor import ProcessExecutor
from repro.cluster.rebalance import BucketMove, ShardRebalancer
from repro.cluster.scheduler import BatchScheduler, BatchTicket
from repro.cluster.scoring import (
    ShardPartial,
    ShardSlice,
    WirePartial,
    merge_popularity_sparse,
    score_slices,
)
from repro.cluster.sharded_matrix import ShardedLikedMatrix, ShardStats
from repro.cluster.supervisor import ShardUnavailable, WorkerSupervisor

__all__ = [
    "BatchScheduler",
    "BatchTicket",
    "BucketMove",
    "ClusterCoordinator",
    "EXECUTOR_NAMES",
    "PlacementMap",
    "ProcessExecutor",
    "ShardRebalancer",
    "ShardUnavailable",
    "SerialExecutor",
    "ShardExecutor",
    "ShardPartial",
    "ShardSlice",
    "ShardStats",
    "ShardedLikedMatrix",
    "ThreadPoolExecutor",
    "WirePartial",
    "WorkerSupervisor",
    "make_executor",
    "merge_popularity",
    "merge_popularity_sparse",
    "merge_topk",
    "score_slices",
]
