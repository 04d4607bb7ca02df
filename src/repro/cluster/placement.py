"""Movable user placement: rendezvous-hashed virtual-node buckets.

Users hash to one of ``num_buckets`` *buckets* (virtual nodes) by a
fixed avalanche hash of their id; buckets map to shards through an
explicit, movable ``bucket -> owner`` array.  The indirection is what
makes placement *elastic*: a hot or churning shard sheds load by
handing whole buckets to another shard (see
:meth:`PlacementMap.move_bucket` and the handoff machinery in
:mod:`repro.cluster.rebalance` / :mod:`repro.cluster.transport`),
while the user-to-bucket hash never changes -- so a migration moves
exactly one bucket's users and nobody else.

The initial ``bucket -> owner`` assignment is rendezvous (highest
random weight) hashing: every bucket picks the shard with the maximal
``mix(bucket_key ^ shard_key)`` weight.  Rendezvous gives the map its
elasticity-friendly baseline: adding shard ``N`` moves only the
buckets shard ``N`` wins, and removing the last shard moves only the
buckets it owned -- no global reshuffle (enforced by the hypothesis
suite in ``tests/test_rebalance.py``).

Every mutation bumps :attr:`PlacementMap.version` -- the *routing
epoch*.  The epoch is the coherence token of the cluster: the process
executor stamps job frames with it and workers reject stale stamps,
so a frame routed under an outdated map can never read or write a
moved bucket silently (see ``docs/architecture.md``).

The user hash is the finalizer of SplitMix64: every input bit affects
every output bit, it is exact in int64/uint64 arithmetic, and it is
trivially vectorizable -- :meth:`PlacementMap.shards_of` places a
whole candidate array with five numpy ops plus one owner-table gather.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF

#: Golden-ratio increments keying buckets and shards into the mixer's
#: domain; distinct constants keep the two key families uncorrelated.
_BUCKET_KEY = 0x9E3779B97F4A7C15
_SHARD_KEY = 0xD1B54A32D192ED03

#: Default virtual-node density.  More buckets = finer-grained
#: migrations and a smoother rendezvous assignment, at the cost of one
#: int64 per bucket in the owner table -- negligible at this density.
BUCKETS_PER_SHARD = 64


def _mix(value: int) -> int:
    """SplitMix64 finalizer over a non-negative integer."""
    value &= _MASK
    value ^= value >> 30
    value = (value * _MULT1) & _MASK
    value ^= value >> 27
    value = (value * _MULT2) & _MASK
    value ^= value >> 31
    return value


def bucket_of_id(user_id: int, num_buckets: int) -> int:
    """Bucket of ``user_id`` in a map with ``num_buckets`` buckets.

    A pure function of ``(user_id, num_buckets)`` -- shard workers use
    it to select a handed-off bucket's users from their local tables
    without ever holding the (parent-owned) owner map.
    """
    return _mix(user_id) % num_buckets


def rendezvous_owner(bucket: int, num_shards: int) -> int:
    """Rendezvous winner of ``bucket`` among ``num_shards`` shards.

    The highest-random-weight rule: the owning shard is the one whose
    ``mix(bucket_key ^ shard_key)`` weight is maximal.  Weights are
    independent per (bucket, shard) pair, so changing the shard count
    by one only reassigns buckets the added shard wins (or the removed
    shard owned) -- every other bucket keeps its owner.
    """
    bucket_key = _mix((bucket * _BUCKET_KEY) & _MASK)
    best_shard = 0
    best_weight = -1
    for shard in range(num_shards):
        weight = _mix(bucket_key ^ _mix((shard + 1) * _SHARD_KEY & _MASK))
        if weight > best_weight:
            best_weight = weight
            best_shard = shard
    return best_shard


class PlacementMap:
    """Versioned, movable ``user id -> bucket -> shard`` assignment."""

    def __init__(
        self,
        num_shards: int,
        num_buckets: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        if num_buckets is None:
            num_buckets = BUCKETS_PER_SHARD * num_shards
        if num_buckets < num_shards:
            raise ValueError(
                f"need at least one bucket per shard, got {num_buckets} "
                f"buckets for {num_shards} shards"
            )
        self.num_shards = num_shards
        self.num_buckets = num_buckets
        #: Routing epoch: bumped by every :meth:`move_bucket` and
        #: :meth:`split_buckets` -- every change to the routing
        #: *function* (owner table or bucket count), and nothing else:
        #: shard joins and retires move no bucket and keep the epoch.
        #: All routing peers (coordinator, scheduler, workers) must
        #: agree on it before exchanging placement-routed frames.
        self.version = 0
        self._owner = np.fromiter(
            (rendezvous_owner(bucket, num_shards) for bucket in range(num_buckets)),
            dtype=np.int64,
            count=num_buckets,
        )

    # --- lookup -------------------------------------------------------------

    def bucket_of(self, user_id: int) -> int:
        """Bucket of ``user_id`` (never changes for a given map size)."""
        return _mix(user_id) % self.num_buckets

    def buckets_of(self, user_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bucket_of` over an int array."""
        value = np.asarray(user_ids).astype(np.uint64, copy=True)
        value ^= value >> np.uint64(30)
        value *= np.uint64(_MULT1)
        value ^= value >> np.uint64(27)
        value *= np.uint64(_MULT2)
        value ^= value >> np.uint64(31)
        return (value % np.uint64(self.num_buckets)).astype(np.int64)

    def owner_of(self, bucket: int) -> int:
        """Shard currently owning ``bucket``."""
        if not 0 <= bucket < self.num_buckets:
            raise ValueError(
                f"bucket {bucket} out of range [0, {self.num_buckets})"
            )
        return int(self._owner[bucket])

    def owners(self) -> np.ndarray:
        """Copy of the full ``bucket -> shard`` owner table."""
        return self._owner.copy()

    def buckets_owned_by(self, shard: int) -> np.ndarray:
        """Buckets currently owned by ``shard``, ascending."""
        return np.nonzero(self._owner == shard)[0].astype(np.int64)

    def shard_of(self, user_id: int) -> int:
        """Owning shard of ``user_id`` under the current map."""
        return int(self._owner[_mix(user_id) % self.num_buckets])

    def shards_of(self, user_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shard_of` over an int array."""
        return self._owner[self.buckets_of(user_ids)]

    # --- mutation -----------------------------------------------------------

    def validate_move(self, bucket: int, new_owner: int) -> int:
        """Raise unless moving ``bucket`` to ``new_owner`` is legal.

        The single home of the migration preconditions -- callers that
        perform side effects *before* the map bump (the handoff paths)
        run this up front so an illegal move fails before anything
        mutates.  Returns the bucket's current owner.
        """
        old_owner = self.owner_of(bucket)
        if not 0 <= new_owner < self.num_shards:
            raise ValueError(
                f"shard {new_owner} out of range [0, {self.num_shards})"
            )
        if new_owner == old_owner:
            raise ValueError(
                f"bucket {bucket} already lives on shard {new_owner}"
            )
        return old_owner

    def move_bucket(self, bucket: int, new_owner: int) -> int:
        """Reassign ``bucket`` to ``new_owner``; returns the new version.

        This is the *map bump* of a shard handoff -- callers must move
        the bucket's rows first and apply the bump only once the data
        is safely at the destination, so a failed handoff leaves
        routing untouched.  The version advances by exactly one per
        move; routing peers validate that discipline (a skipped epoch
        means a lost frame).
        """
        self.validate_move(bucket, new_owner)
        self._owner[bucket] = new_owner
        self.version += 1
        return self.version

    # --- elastic topology ---------------------------------------------------

    def add_shard(self) -> int:
        """Grow the shard count by one; returns the new shard's index.

        The new shard joins owning *nothing*: the owner table is
        untouched, so routing -- and therefore the epoch -- does not
        change.  Callers then migrate the joiner's
        :meth:`rendezvous_share` in bucket by bucket, each move an
        ordinary epoch-bumped :meth:`move_bucket`.
        """
        shard = self.num_shards
        self.num_shards += 1
        return shard

    def remove_last_shard(self) -> int:
        """Shrink the shard count by one; returns the removed index.

        Only the *last* shard can retire (lower indices would force a
        global renumbering), and only once it owns no buckets -- the
        caller drains them out first, each drain an epoch-bumped move.
        Like :meth:`add_shard` this leaves the owner table, and hence
        the epoch, untouched.
        """
        if self.num_shards < 2:
            raise ValueError("cannot remove the only shard")
        shard = self.num_shards - 1
        owned = self.buckets_owned_by(shard)
        if owned.size:
            raise ValueError(
                f"shard {shard} still owns {owned.size} buckets; "
                "drain them before retiring it"
            )
        self.num_shards -= 1
        return shard

    def rendezvous_share(self, shard: int) -> np.ndarray:
        """Buckets ``shard`` wins under rendezvous at the current count.

        The minimal-movement migration plan for a joiner: rendezvous
        guarantees these are exactly the buckets that *would* have
        belonged to ``shard`` had it been present at boot, and every
        other bucket's winner is unchanged.  Ascending bucket indices.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        return np.fromiter(
            (
                bucket
                for bucket in range(self.num_buckets)
                if rendezvous_owner(bucket, self.num_shards) == shard
            ),
            dtype=np.int64,
        )

    def split_buckets(self, factor: int = 2) -> int:
        """Refine the bucket space by ``factor``; returns the new version.

        Splitting multiplies ``num_buckets`` and replicates the owner
        table ``factor`` times: because ``mix(uid) % (factor * N)`` is
        congruent to ``mix(uid) % N`` mod ``N``, old bucket ``b``
        splits into new buckets ``{b, b + N, ...}`` and duplicating
        the owner row keeps every user's owner -- *no data moves at
        split time*.  What changes is granularity: a pathologically
        hot bucket's users now spread over ``factor`` independently
        movable buckets, so the rebalancer can peel load off it.  The
        epoch advances by exactly one, handoff-style; process workers
        learn the new count through the ``SplitBuckets`` frame.
        """
        if factor < 2:
            raise ValueError(f"split factor must be >= 2, got {factor}")
        self._owner = np.tile(self._owner, factor)
        self.num_buckets *= factor
        self.version += 1
        return self.version

    # --- partitioning -------------------------------------------------------

    def partition(
        self, user_ids: "Sequence[int] | np.ndarray"
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split a candidate list by owning shard.

        Returns one ``(ids, positions)`` pair per shard, where
        ``positions`` are the candidates' indices in the *input*
        sequence, ascending.  Positions carry the deterministic global
        order (jobs sort candidates by token), so cross-shard merges
        can reproduce the single-matrix tie-breaks exactly without
        shipping tokens to the shards.  Shared by the in-process
        :class:`~repro.cluster.sharded_matrix.ShardedLikedMatrix` and
        the parent side of the process executor.

        The output is always a true partition of the input: every
        candidate lands in exactly one part (each id has exactly one
        bucket and each bucket exactly one owner), which is what makes
        the cross-shard merge exact under *any* owner table.
        """
        ids = np.asarray(user_ids, dtype=np.int64)
        if ids.size == 0:
            empty: np.ndarray = ids
            return [(empty, empty) for _ in range(self.num_shards)]
        shard_of_id = self.shards_of(ids)
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        for shard in range(self.num_shards):
            positions = np.nonzero(shard_of_id == shard)[0]
            parts.append((ids[positions], positions))
        return parts
