"""A :class:`LikedMatrix` partitioned into hash-placed user shards.

:class:`ShardedLikedMatrix` carries the vectorized engine's CSR/CSC
structure across N independent shards: each shard is a plain
:class:`~repro.engine.liked_matrix.LikedMatrix` that materializes only
the rows of the users it owns (ownership is decided by a
:class:`~repro.cluster.placement.PlacementMap` hash of the user id).

Writes stay incremental: the sharded matrix subscribes *once* to the
shared :class:`~repro.core.tables.ProfileTable` and routes every write
to the owning shard's :meth:`~repro.engine.liked_matrix.LikedMatrix.apply_write`,
so the non-owning N-1 shards never touch the write at all.  All
shards intern items in *one shared*
:class:`~repro.engine.liked_matrix.ItemVocabulary`: a column index
means the same item cluster-wide, which is what lets the coordinator
map a query to columns once per request and merge per-shard
popularity counts with a single histogram.  (A cross-process
deployment would replicate this dictionary or shard it separately --
items, unlike users, are shared read-mostly state.)

The per-shard stats (:class:`ShardStats`) expose the load and churn
picture an operator would watch: materialized rows, live/garbage arena
entries, routed writes, and compaction count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.placement import PlacementMap, rendezvous_owner
from repro.core.tables import ProfileTable
from repro.engine.liked_matrix import ItemVocabulary, LikedMatrix, MemoryPolicy


@dataclass(frozen=True)
class ShardStats:
    """Load/churn counters for one shard.

    For the process executor these are read over the wire from the
    worker that hosts the shard; ``pid`` then identifies that worker
    process (it stays 0 for in-process shards).  Together with
    ``users``/``writes`` this is the per-worker load signal the
    rebalancing placement map consumes.

    The liveness fields are parent-side supervisor knowledge (workers
    cannot report their own death): ``alive`` is False for a shard
    whose worker is down, ``restarts`` counts its respawns, and
    ``last_ping_ms`` is the latest v3 liveness probe's round trip
    (-1.0 before the first probe).  In-process shards are trivially
    alive and never restart.
    """

    shard: int
    users: int  # rows materialized in this shard's arena
    arena_live: int  # live liked-item entries
    arena_garbage: int  # superseded entries awaiting compaction
    writes: int  # profile writes routed to this shard
    compactions: int  # arena compactions performed
    pid: int = 0  # hosting worker process (0: in-process shard)
    alive: bool = True  # worker answering (always True in-process)
    restarts: int = 0  # respawns of this shard's worker
    last_ping_ms: float = -1.0  # last liveness probe RTT (-1: never)
    evictions: int = 0  # rows dropped by the memory policy
    arena_capacity: int = 0  # allocated arena cells (0: not reported)


class ShardedLikedMatrix:
    """N hash-partitioned liked matrices behind one write router."""

    def __init__(
        self,
        table: ProfileTable,
        num_shards: int,
        placement: PlacementMap | None = None,
        memory: MemoryPolicy | None = None,
    ) -> None:
        self._table = table
        self.placement = (
            placement if placement is not None else PlacementMap(num_shards)
        )
        if self.placement.num_shards != num_shards:
            raise ValueError("placement and num_shards disagree")
        #: Bounded-memory policy applied to every shard.  The row cap
        #: is *per shard* (each shard evicts its own LRU tail); an
        #: evicted row warm-rebuilds from the shared table on its next
        #: read, which also covers rows arriving via bucket migration.
        self.memory = memory
        #: One vocabulary for all shards: column indices agree across
        #: the cluster, so queries map to columns once per request and
        #: per-shard popularity counts merge with a single histogram.
        self.vocab = ItemVocabulary()
        self.shards: list[LikedMatrix] = [
            LikedMatrix(
                table,
                subscribe=False,
                row_filter=self._owner_filter(shard),
                vocab=self.vocab,
                memory=memory,
            )
            for shard in range(num_shards)
        ]
        #: Serializes write routing against topology changes (grow,
        #: shrink, migrate, split) when those run off-thread.  Held
        #: only for the row-local apply/refresh work -- microseconds,
        #: never across anything blocking.
        self._lock = threading.RLock()
        table.add_listener(self._route_write)

    def _owner_filter(self, shard: int):
        placement = self.placement
        return lambda user_id: placement.shard_of(user_id) == shard

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # --- write routing ------------------------------------------------------

    def _route_write(
        self, user_id: int, item: int, value: float, previous: float | None
    ) -> None:
        """ProfileTable hook: deliver the write to the owning shard."""
        with self._lock:
            self.shards[self.placement.shard_of(user_id)].apply_write(
                user_id, item, value, previous
            )

    # --- rebalancing --------------------------------------------------------

    def migrate_bucket(self, bucket: int, new_owner: int) -> int:
        """Hand one placement bucket to ``new_owner``; returns the version.

        The in-process handoff is the degenerate form of the
        cross-process one: both shards read the *shared* table, so no
        rows travel -- the map bump moves ownership, the old shard's
        rows for the moved users are invalidated (their arena segments
        become garbage, postings rebuild without them), and the new
        shard materializes them lazily from the table on first read,
        exactly as it builds any pre-existing row.  Results are
        therefore bit-for-bit unchanged across the move; only *which*
        shard answers for the bucket changes.
        """
        with self._lock:
            old_owner = self.placement.validate_move(bucket, new_owner)
            user_ids = np.fromiter(
                self._table, dtype=np.int64, count=len(self._table)
            )
            moved = user_ids[
                self.placement.buckets_of(user_ids) == bucket
            ].tolist()
            version = self.placement.move_bucket(bucket, new_owner)
            for user_id in moved:
                # Old shard: drop the row and dirty the postings (they
                # contain the moved users).  New shard: nothing was
                # materialized, but its postings must also rebuild to
                # include the arrivals under the live owner filter.
                self.shards[old_owner].refresh(user_id)
                self.shards[new_owner].refresh(user_id)
            return version

    # --- elastic topology ---------------------------------------------------

    def add_shard(self, migrate: bool = True) -> int:
        """Grow by one shard; returns the new shard's index.

        The in-process join is free: the new :class:`LikedMatrix`
        shares the table and vocabulary and materializes rows lazily,
        so it starts empty *and correct* -- it owns no buckets until
        migrations hand it some.  With ``migrate=True`` its rendezvous
        share moves in immediately (each move an epoch-bumped
        :meth:`migrate_bucket`).
        """
        with self._lock:
            shard = self.placement.add_shard()
            self.shards.append(
                LikedMatrix(
                    self._table,
                    subscribe=False,
                    row_filter=self._owner_filter(shard),
                    vocab=self.vocab,
                    memory=self.memory,
                )
            )
        if migrate:
            for bucket in self.placement.rendezvous_share(shard).tolist():
                if self.placement.owner_of(bucket) != shard:
                    self.migrate_bucket(int(bucket), shard)
        return shard

    def remove_shard(self) -> int:
        """Drain and retire the last shard; returns the retired index.

        Every bucket it owns is first migrated to its rendezvous
        winner among the survivors, then the (now rowless) matrix is
        dropped and the placement shrinks.
        """
        if self.placement.num_shards < 2:
            raise ValueError("cannot remove the only shard")
        shard = self.placement.num_shards - 1
        survivors = self.placement.num_shards - 1
        for bucket in self.placement.buckets_owned_by(shard).tolist():
            self.migrate_bucket(
                int(bucket), rendezvous_owner(int(bucket), survivors)
            )
        with self._lock:
            self.placement.remove_last_shard()
            self.shards.pop()
        return shard

    def split_buckets(self, factor: int = 2) -> int:
        """Refine the bucket space by ``factor``; returns the version.

        Pure metadata for the in-process matrix: the modular bucket
        hash keeps every user's owner across the split (see
        ``PlacementMap.split_buckets``), so no row or posting needs
        a refresh -- the hot bucket's cohabitants merely become
        separately movable from here on.
        """
        with self._lock:
            return self.placement.split_buckets(factor)

    # --- partitioning -------------------------------------------------------

    def shard_of(self, user_id: int) -> int:
        """Owning shard of ``user_id``."""
        return self.placement.shard_of(user_id)

    def partition(
        self, user_ids: Sequence[int]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split a candidate list by owning shard.

        Delegates to :meth:`PlacementMap.partition`; see there for
        the ``(ids, positions)`` contract the cross-shard merges rely
        on.
        """
        return self.placement.partition(user_ids)

    # --- stats --------------------------------------------------------------

    def stats(self) -> tuple[ShardStats, ...]:
        """Per-shard load and churn counters."""
        return tuple(
            ShardStats(
                shard=index,
                users=matrix.num_rows,
                arena_live=matrix.arena_live,
                arena_garbage=matrix.arena_garbage,
                writes=matrix.writes_applied,
                compactions=matrix.compactions,
                evictions=matrix.evictions,
                arena_capacity=matrix.arena_capacity,
            )
            for index, matrix in enumerate(self.shards)
        )

    def memory_stats(self) -> dict[str, int | str]:
        """Cluster-wide memory accounting, summed over the shards."""
        totals: dict[str, int | str] = {}
        for matrix in self.shards:
            for key, value in matrix.memory_stats().items():
                if isinstance(value, str):
                    totals[key] = value
                else:
                    totals[key] = int(totals.get(key, 0)) + value
        return totals
