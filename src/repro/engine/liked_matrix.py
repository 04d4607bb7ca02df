"""An incrementally-maintained CSR-style view of the Profile Table.

:class:`LikedMatrix` mirrors every user's liked-item set as a segment
of one contiguous integer *arena* of column indices over a dynamically
interned item vocabulary -- row storage is CSR, but rows are
addressable individually so single-user updates stay O(|row|).

It subscribes to :meth:`repro.core.tables.ProfileTable.record`, so a
write invalidates exactly the affected row (O(1)); the row is re-sliced
into the arena lazily on the next read.  Superseded segments become
garbage and the arena compacts itself once garbage outgrows the live
data, keeping memory within ~2x of the live footprint.

Because all rows live in one array, :meth:`gather_liked` assembles the
``(indices, indptr, sizes)`` CSR triple for an arbitrary candidate set
with pure numpy gather arithmetic (``repeat`` + ``cumsum`` + one fancy
index) -- no per-candidate Python work and no concatenation of
thousands of tiny arrays.  That triple is exactly what the batch
kernels in :mod:`repro.engine.kernels` consume, so a request scores
its whole candidate set in a handful of numpy calls.

Membership tests use an epoch-stamped scratch array so building the
query-set flags is O(|query|), not O(#items), per request.

Next to the CSR rows the matrix also maintains the transposed (CSC)
view: per-item *postings* of the users who currently like the item,
kept in sync from the same write stream (a like appends, an un-like
swap-deletes).  Postings turn batch KNN against a large candidate set
into one ``bincount`` over the query items' posting lists -- the
inverted-index formulation production recommenders use (cf. Agarwal
et al.'s item-item serving stack) -- whose cost scales with the query
profile's popularity mass instead of the candidate count.

Memory model
------------
The matrix is a derived index over the table, which stays the source
of truth.  A row is *absent* until first read, then *resident* in the
arena; a write updates it in place, and :meth:`refresh` (or a shard
migration) *invalidates* it back to garbage, to be *rebuilt* lazily
from the table on its next read.  :meth:`_compact` both grows the
arena and shrinks it once the live footprint drops well below the
allocation, so rows drained off a shard hand their memory back.
Postings mirror live table state, not resident rows, and are never
dropped.
"""

from __future__ import annotations

import threading
import time
from itertools import accumulate, chain, compress
from typing import Callable, Collection, Sequence

import numpy as np

from repro.core.profiles import ratings_of
from repro.core.tables import ProfileTable
from repro.engine.kernels import segment_sums
from repro.obs.events import EventLog

_EMPTY = np.zeros(0, dtype=np.int64)

#: Dense-id threshold for the CSC bincount: a dense count array is
#: allowed when the id span is at most ``max(65536, 8 * n)`` for ``n``
#: participating ids -- i.e. a fixed 512 KiB floor, beyond which the
#: span may only exceed the data size 8-fold.  Sparser id spaces use
#: the compressed (unique + searchsorted) counting path instead.
_DENSE_ID_FLOOR = 1 << 16


def _dense_id_ok(span: int, participants: int) -> bool:
    """True if a length-``span`` dense count array is proportionate."""
    return span <= max(_DENSE_ID_FLOOR, 8 * participants)


class ItemVocabulary:
    """Dynamic ``item id -> column`` interning, shareable across matrices.

    A single matrix owns a private vocabulary; the sharded engine hands
    one instance to every shard so that column indices mean the same
    item everywhere -- queries then map to columns once per request and
    per-shard popularity counts merge with a dense integer add.

    Sharing discipline: interning is read-mostly but *not* read-only
    under concurrency.  Most interning happens on the single-threaded
    write path (every rated item passes through ``column_of`` when its
    write is routed), and query projections intern on the coordinator
    thread before shard tasks launch -- but a shard task lazily
    materializing rows of a table that predates the matrix can still
    intern from a pool thread.  That is why :meth:`intern` double-checks
    under a lock.
    """

    __slots__ = ("_col_of", "_item_of", "_item_arr", "_lock")

    def __init__(self) -> None:
        self._col_of: dict[int, int] = {}
        self._item_of: list[int] = []
        self._item_arr = _EMPTY
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._item_of)

    def intern(self, item: int) -> int:
        """Column of ``item``, assigning the next column on first sight.

        The hit path is lock-free; the miss path double-checks under a
        lock so concurrent shard tasks lazily materializing rows of a
        pre-populated table cannot assign one column to two items.
        The item is appended before the column is published, so a
        reader holding a column always finds its item.
        """
        col = self._col_of.get(item)
        if col is None:
            with self._lock:
                col = self._col_of.get(item)
                if col is None:
                    col = len(self._item_of)
                    self._item_of.append(item)
                    self._col_of[item] = col
        return col

    def column_of(self, item: int) -> int | None:
        """Column of ``item`` or ``None`` if never interned."""
        return self._col_of.get(item)

    def item_of(self, col: int) -> int:
        """Inverse of :meth:`intern`."""
        return self._item_of[col]

    def item_array(self) -> np.ndarray:
        """``col -> item id`` as an int64 array (cached between interns)."""
        if self._item_arr.size != len(self._item_of):
            self._item_arr = np.asarray(self._item_of, dtype=np.int64)
        return self._item_arr

    def columns_of(self, items: Sequence[int]) -> np.ndarray:
        """Columns of the given items, *skipping* un-interned ones.

        An item nobody ever rated has no column and can appear in no
        row, so dropping it changes no intersection count.
        """
        cols = [col for col in map(self._col_of.get, items) if col is not None]
        if not cols:
            return _EMPTY
        return np.asarray(cols, dtype=np.int64)

    def intern_columns(self, items: Collection[int]) -> np.ndarray:
        """Columns of the given items, interning any new ones.

        One C-level pass of dict probes straight into the array; only
        when some item is seen for the first time does a second pass
        take the locked :meth:`intern` path for the new ones, in
        iteration order, so columns are assigned exactly as one
        ``intern`` per item would.  Query projections computed before
        shard tasks run use this too: a query item must hold the same
        column a candidate row will intern for it later in the batch,
        so skipping is not an option there.
        """
        if not items:
            return _EMPTY
        try:
            return np.fromiter(
                map(self._col_of.__getitem__, items), np.int64, len(items)
            )
        except KeyError:
            intern = self.intern
            return np.fromiter(map(intern, items), np.int64, len(items))


class LikedMatrix:
    """Integer-array projection of a :class:`ProfileTable`'s liked sets."""

    def __init__(
        self,
        table: ProfileTable,
        initial_capacity: int = 1024,
        *,
        subscribe: bool = True,
        row_filter: Callable[[int], bool] | None = None,
        vocab: ItemVocabulary | None = None,
        events: EventLog | None = None,
    ) -> None:
        """
        Args:
            table: The profile table this matrix mirrors.
            initial_capacity: Starting arena size (grows as needed).
            subscribe: Attach the write hook to ``table`` directly.  A
                :class:`~repro.cluster.ShardedLikedMatrix` sets this to
                ``False`` and routes each write to the owning shard's
                :meth:`apply_write` itself, so non-owning shards never
                see (or pay for) the write.
            row_filter: Restricts which users this matrix considers its
                own when rebuilding the CSC postings from the shared
                table (shards own a hash slice of the user space).
                Rows of non-owned users are never materialized because
                callers only ever ask a shard about its own users.
            vocab: Item vocabulary to intern columns in.  Defaults to
                a private one; the sharded engine passes one shared
                instance to all shards so columns agree across them.
            events: Where cold-path work reports itself: a
                ``postings_rebuild`` event, with its duration, per
                rebuild of the CSC index.
        """
        self._table = table
        self._row_filter = row_filter
        self.vocab = vocab if vocab is not None else ItemVocabulary()
        self._events = events
        # CSR arena: row segments are arena[start : start + length].
        self._arena = np.zeros(max(16, initial_capacity), dtype=np.int64)
        self._used = 0
        self._garbage = 0
        self._start: dict[int, int] = {}
        self._length: dict[int, int] = {}
        # Rated rows are only read one user at a time (the requester's
        # exclusion set), so plain per-user arrays suffice.  Arrays are
        # amortized-doubling capacity buffers; _rated_len holds the
        # filled prefix length.
        self._rated_rows: dict[int, np.ndarray] = {}
        self._rated_len: dict[int, int] = {}
        self._scratch = np.zeros(0, dtype=np.int64)
        self._stamp = 0
        # CSC postings: per-column array of users currently liking the
        # item (amortized append; order is irrelevant).  Built lazily
        # on first use because the table may predate the matrix.
        self._postings: list[np.ndarray] = []
        self._post_len: list[int] = []
        self._postings_dirty = True
        self.compactions = 0
        self.writes_applied = 0
        if subscribe:
            table.add_listener(self._on_record)
        # A table can be populated before the matrix attaches (tests,
        # snapshots): rows are built lazily from the live profiles, so
        # no eager absorption pass is needed.

    # --- vocabulary ---------------------------------------------------------

    @property
    def num_cols(self) -> int:
        """Number of distinct items interned so far."""
        return len(self.vocab)

    @property
    def num_rows(self) -> int:
        """Number of user rows currently materialized in the arena."""
        return len(self._start)

    @property
    def arena_live(self) -> int:
        """Live (non-garbage) index entries in the arena."""
        return self._used - self._garbage

    @property
    def arena_garbage(self) -> int:
        """Superseded index entries awaiting compaction."""
        return self._garbage

    @property
    def arena_capacity(self) -> int:
        """Allocated arena cells (live + garbage + free tail)."""
        return self._arena.size

    def column_of(self, item: int) -> int:
        """Column index of ``item``, interning it on first sight."""
        return self.vocab.intern(item)

    def item_of(self, col: int) -> int:
        """Inverse of :meth:`column_of`."""
        return self.vocab.item_of(col)

    def item_array(self) -> np.ndarray:
        """``col -> item id`` as an int64 array (cached between interns)."""
        return self.vocab.item_array()

    def _sync_postings(self) -> None:
        """Extend the posting lists to cover the whole vocabulary.

        With a shared vocabulary, columns can be interned by sibling
        shards between this matrix's posting reads; those columns have
        (correctly) empty postings here.
        """
        while len(self._postings) < len(self.vocab):
            self._postings.append(np.zeros(4, dtype=np.int64))
            self._post_len.append(0)

    def memory_stats(self) -> dict[str, int]:
        """Point-in-time memory accounting for benchmarks and /stats."""
        postings_bytes = sum(p.nbytes for p in self._postings)
        rated_bytes = sum(r.nbytes for r in self._rated_rows.values())
        return {
            "rows_resident": len(self._start),
            "arena_entries": self._used,
            "arena_capacity": self._arena.size,
            "arena_live": self.arena_live,
            "arena_garbage": self._garbage,
            "arena_bytes": int(self._arena.nbytes),
            "postings_bytes": int(postings_bytes),
            "rated_bytes": int(rated_bytes),
            "evictions": 0,  # rows are never evicted; key kept for readers
            "compactions": self.compactions,
        }

    # --- write propagation --------------------------------------------------

    def _on_record(
        self, user_id: int, item: int, value: float, previous: float | None
    ) -> None:
        """ProfileTable write hook: apply the like/un-like transition.

        Materialized rows are updated in place (a numpy segment copy,
        not a Python rebuild): a new like re-slices the row with the
        column appended, an un-like swap-deletes inside the segment,
        and a re-rate that doesn't flip the opinion costs nothing.
        """
        self.writes_applied += 1
        col = self.vocab.intern(item)
        liked_now = value == 1.0
        liked_before = previous == 1.0
        if liked_now and not liked_before:
            self._row_append(user_id, col)
        elif liked_before and not liked_now:
            self._row_remove(user_id, col)
        rated = self._rated_rows.get(user_id)
        if rated is not None and previous is None:
            length = self._rated_len[user_id]
            if length == rated.size:
                grown = np.zeros(max(4, 2 * rated.size), dtype=np.int64)
                grown[:length] = rated[:length]
                self._rated_rows[user_id] = rated = grown
            rated[length] = col
            self._rated_len[user_id] = length + 1
        if not self._postings_dirty:
            if liked_now and not liked_before:
                self._posting_append(col, user_id)
            elif liked_before and not liked_now:
                self._posting_remove(col, user_id)

    def apply_write(
        self, user_id: int, item: int, value: float, previous: float | None
    ) -> None:
        """Public entry for externally-routed writes (sharded setups).

        Identical to the table-subscribed hook; exists so a placement
        router built with ``subscribe=False`` has a stable name to
        deliver writes to.
        """
        self._on_record(user_id, item, value, previous)

    def refresh(self, user_id: int) -> None:
        """Force a rebuild of ``user_id``'s rows on next read.

        Only needed if a profile was mutated behind the table's back
        (i.e. not through :meth:`ProfileTable.record`).  Postings are
        rebuilt wholesale on the next CSC query, since the out-of-band
        write carries no before/after transition.
        """
        self._invalidate(user_id)
        self._postings_dirty = True

    def _invalidate(self, user_id: int) -> None:
        length = self._length.pop(user_id, None)
        if length is not None:
            self._start.pop(user_id)
            self._garbage += length
        self._rated_rows.pop(user_id, None)
        self._rated_len.pop(user_id, None)

    def _row_append(self, user_id: int, col: int) -> None:
        """Re-slice the user's liked row with ``col`` appended."""
        length = self._length.get(user_id)
        if length is None:
            return  # not materialized; built lazily on next read
        start = self._start[user_id]
        if (
            self._used + length + 1 > self._arena.size
            or self._garbage > max(1024, self._used - self._garbage)
        ):
            self._compact(length + 1)
            start = self._start[user_id]
        new_start = self._used
        arena = self._arena
        arena[new_start : new_start + length] = arena[start : start + length]
        arena[new_start + length] = col
        self._used = new_start + length + 1
        self._garbage += length
        self._start[user_id] = new_start
        self._length[user_id] = length + 1

    def _row_remove(self, user_id: int, col: int) -> None:
        """Swap-delete ``col`` inside the user's liked segment."""
        length = self._length.get(user_id)
        if length is None:
            return
        start = self._start[user_id]
        segment = self._arena[start : start + length]
        where = np.nonzero(segment == col)[0]
        if where.size:  # row order carries no meaning
            segment[where[0]] = segment[length - 1]
            self._length[user_id] = length - 1
            self._garbage += 1

    # --- arena management ---------------------------------------------------

    def _compact(self, extra: int) -> None:
        """Drop garbage segments, ensure room for ``extra``, return slack.

        Capacity targets 2x the live footprint.  It never shrinks by
        less than half the current allocation (hysteresis), so steady
        workloads keep the classic grow-only behaviour while bulk
        invalidation (rows drained off a shard) hands memory back.
        """
        live = self._used - self._garbage
        target = max(2 * (live + extra), 16)
        if 2 * target <= self._arena.size:
            capacity = target
        else:
            capacity = max(self._arena.size, target)
        fresh = np.zeros(capacity, dtype=np.int64)
        cursor = 0
        for uid, start in self._start.items():
            length = self._length[uid]
            fresh[cursor : cursor + length] = self._arena[start : start + length]
            self._start[uid] = cursor
            cursor += length
        self._arena = fresh
        self._used = cursor
        self._garbage = 0
        self.compactions += 1

    def _materialize(self, user_id: int) -> None:
        """Slice the user's liked set into the arena."""
        liked = self._table.get(user_id).liked_live()
        length = len(liked)
        if (
            self._used + length > self._arena.size
            or self._garbage > max(1024, self._used - self._garbage)
        ):
            self._compact(length)
        start = self._used
        self._arena[start : start + length] = self.vocab.intern_columns(liked)
        self._used += length
        self._start[user_id] = start
        self._length[user_id] = length

    # --- rows ---------------------------------------------------------------

    def liked_row(self, user_id: int) -> np.ndarray:
        """Column indices of the user's liked items (an arena view)."""
        if user_id not in self._start:
            self._materialize(user_id)
        start = self._start[user_id]
        return self._arena[start : start + self._length[user_id]]

    def rated_row(self, user_id: int) -> np.ndarray:
        """Column indices of every item the user has an opinion on."""
        row = self._rated_rows.get(user_id)
        if row is None:
            rated = self._table.get(user_id).rated_items()
            row = self.vocab.intern_columns(rated)
            self._rated_rows[user_id] = row
            self._rated_len[user_id] = row.size
        return row[: self._rated_len[user_id]]

    def known_columns(self, items: Sequence[int]) -> np.ndarray:
        """Columns of the given items, *skipping* un-interned ones."""
        return self.vocab.columns_of(items)

    def _resident_sizes(self, user_ids: Sequence[int]) -> np.ndarray:
        """``|L_u|`` per user, materializing cold rows on the way.

        C-level dict probes straight into the array; a miss builds
        every cold row of the list and probes again.  Once this
        returns, all of ``user_ids`` are in the arena and stay put, so
        their offsets can be read.
        """
        length_of = self._length
        count = len(user_ids)
        try:
            return np.fromiter(map(length_of.__getitem__, user_ids), np.int64, count)
        except KeyError:
            for uid in user_ids:
                if uid not in length_of:
                    self._materialize(uid)
            return np.fromiter(map(length_of.__getitem__, user_ids), np.int64, count)

    def gather_liked(
        self, user_ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR triple ``(indices, indptr, sizes)`` over the given users.

        The per-row arena offsets are collected by C-level dict probes
        and the index assembly is pure numpy, so cost scales with the
        total number of liked items, not the number of candidates.
        """
        count = len(user_ids)
        # Sizes first: a cold row's materialization may compact the
        # arena, so offsets are only read once every row is in.
        sizes = self._resident_sizes(user_ids)
        starts = np.fromiter(map(self._start.__getitem__, user_ids), np.int64, count)
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        total = int(indptr[-1])
        if total == 0:
            indices = _EMPTY
        else:
            positions = np.arange(total, dtype=np.int64)
            positions += np.repeat(starts - indptr[:-1], sizes)
            indices = self._arena.take(positions)  # a copy
        return indices, indptr, sizes

    def liked_sizes(self, user_ids: Sequence[int]) -> np.ndarray:
        """``|L_u|`` per user, without assembling the CSR indices."""
        return self._resident_sizes(user_ids)

    # --- batched membership -------------------------------------------------

    def _ensure_scratch(self) -> None:
        """Grow the epoch-stamped scratch to cover the vocabulary."""
        if self._scratch.size < self.num_cols:
            grown = np.zeros(
                max(self.num_cols, 2 * self._scratch.size + 64), dtype=np.int64
            )
            grown[: self._scratch.size] = self._scratch
            self._scratch = grown

    def batch_intersections(
        self, query_cols: np.ndarray, indices: np.ndarray, indptr: np.ndarray
    ) -> np.ndarray:
        """``|query ∩ row_i|`` for every CSR row, in one pass.

        Uses an epoch-stamped scratch array: marking the query set is
        O(|query|) and nothing is ever zeroed, so back-to-back requests
        do not pay O(#items) each.
        """
        if indices.size == 0 or query_cols.size == 0:
            return np.zeros(indptr.size - 1, dtype=np.int64)
        self._ensure_scratch()
        self._stamp += 1
        self._scratch[query_cols] = self._stamp
        hits = (self._scratch[indices] == self._stamp).astype(np.int64)
        return segment_sums(hits, indptr)

    def mark_hits(
        self, query_cols: np.ndarray, indices: np.ndarray, out: np.ndarray
    ) -> None:
        """Write membership flags of ``indices`` in the query set to ``out``.

        The building block batched multi-query intersections are made
        of: callers mark one query, flag its rows' indices, and defer
        the per-row summation so a whole batch shares *one*
        :func:`~repro.engine.kernels.segment_sums` pass.  Same
        epoch-stamped scratch as :meth:`batch_intersections`.
        """
        if indices.size == 0:
            return
        self._ensure_scratch()
        self._stamp += 1
        self._scratch[query_cols] = self._stamp
        out[:] = self._scratch[indices] == self._stamp

    # --- postings (CSC) -----------------------------------------------------

    def _posting_append(self, col: int, user_id: int) -> None:
        if col >= len(self._postings):
            self._sync_postings()
        posting = self._postings[col]
        length = self._post_len[col]
        if length == posting.size:
            grown = np.zeros(max(4, 2 * length), dtype=np.int64)
            grown[:length] = posting
            self._postings[col] = posting = grown
        posting[length] = user_id
        self._post_len[col] = length + 1

    def _posting_remove(self, col: int, user_id: int) -> None:
        if col >= len(self._postings):
            self._sync_postings()
        posting = self._postings[col]
        length = self._post_len[col]
        where = np.nonzero(posting[:length] == user_id)[0]
        if where.size:  # swap-delete: posting order carries no meaning
            posting[where[0]] = posting[length - 1]
            self._post_len[col] = length - 1

    def _rebuild_postings(self) -> None:
        """Recompute every posting from the live (owned) profiles.

        One flat pass over the profiles' ``item -> opinion`` dicts: the
        opinions are the like mask that picks the liked keys out of the
        chained dicts (:func:`itertools.compress`), the liked keys go to
        columns in one :meth:`ItemVocabulary.intern_columns` call, and
        each user repeats once per like -- no Python list or set per
        profile, no per-like Python work.  A stable sort by column then
        lays all postings out back to back, each in table order (what
        appending like by like would give), and the lists become views
        of that one array.  A view has no spare capacity, so a column's
        first later append moves it to a buffer of its own.
        Temporaries are a few ints per like.
        """
        started = time.perf_counter()
        owns = self._row_filter
        users = list(self._table) if owns is None else list(filter(owns, self._table))
        dicts = list(map(ratings_of, map(self._table.lookup(), users)))
        cols = self.vocab.intern_columns(
            list(
                compress(
                    chain.from_iterable(dicts),
                    chain.from_iterable(map(dict.values, dicts)),
                )
            )
        )
        # Likes per user: opinions are 1.0 / 0.0, so a sum counts them.
        likes = np.fromiter(map(sum, map(dict.values, dicts)), np.int64, len(dicts))
        # Stable sort by column as two radix passes over 16-bit halves:
        # numpy radix-sorts 16-bit keys, several times faster than its
        # 64-bit merge sort.
        order = np.lexsort(
            ((cols & 0xFFFF).astype(np.uint16), (cols >> 16).astype(np.uint16))
        )
        likers = np.repeat(np.asarray(users, dtype=np.int64), likes)[order]
        per_col = np.bincount(cols, minlength=len(self.vocab)).tolist()
        del cols, order
        ends = list(accumulate(per_col))
        self._postings = [
            likers[end - length : end] for end, length in zip(ends, per_col)
        ]
        self._post_len = per_col
        self._postings_dirty = False
        if self._events is not None:
            self._events.record(
                "postings_rebuild",
                duration_ms=round((time.perf_counter() - started) * 1e3, 3),
                likes=likers.size,
                columns=len(per_col),
            )

    def posting(self, item: int) -> np.ndarray:
        """Users currently liking ``item`` (unordered; a live view)."""
        self._postings_ready()
        col = self.vocab.column_of(item)
        if col is None or col >= len(self._postings):
            return _EMPTY
        return self._postings[col][: self._post_len[col]]

    def _postings_ready(self) -> None:
        """Bring the CSC postings up to date for a read.

        Rebuilds from the live profiles when an out-of-band write
        dirtied them; otherwise just extends the lists over columns
        sibling shards interned since the last read.
        """
        if self._postings_dirty:
            self._rebuild_postings()
        else:
            self._sync_postings()

    def _csc_candidates(
        self,
        query_cols: np.ndarray,
        nnz: int,
        candidate_ids: Sequence[int] | np.ndarray,
    ) -> np.ndarray | None:
        """The candidate-id array if the inverted index wins, else None.

        One shared decision for both adaptive entry points: the CSC
        bincount costs O(query posting mass) and requires non-negative
        user ids; the CSR scan costs O(candidate nnz).  Small jobs
        never bother building postings at all, and sparse id spaces
        (max id far beyond the candidate count) stay on CSR so the
        dense count array cannot dominate memory.
        """
        if nnz < 4096 or not query_cols.size:
            return None
        self._postings_ready()
        post_len = self._post_len
        posting_mass = sum(post_len[col] for col in query_cols.tolist())
        ids = np.asarray(candidate_ids, dtype=np.int64)
        if (
            posting_mass < nnz
            and int(ids.min()) >= 0
            and _dense_id_ok(int(ids.max()) + 1, ids.size)
        ):
            return ids
        return None

    def intersections_auto(
        self,
        query_cols: np.ndarray,
        candidate_ids: Sequence[int] | np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
    ) -> np.ndarray:
        """Pick the cheaper intersection kernel for this request.

        The CSR scan costs O(candidate nnz); the CSC bincount costs
        O(query posting mass).  Typical online requests (~``2k + k^2``
        candidates) stay on CSR -- the gathered indices are already in
        hand for the recommendation step -- while jobs scoring a large
        slice of the user base switch to the inverted index once the
        posting mass undercuts the candidate mass.
        """
        ids = self._csc_candidates(query_cols, indices.size, candidate_ids)
        if ids is not None:
            return self.batch_intersections_csc(query_cols, ids)
        return self.batch_intersections(query_cols, indices, indptr)

    def knn_intersections(
        self, query_cols: np.ndarray, candidate_ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(intersections, sizes)`` for a KNN-only job.

        The entry point for callers that rank neighbors without also
        computing recommendations (offline back-ends, benchmarks):
        unlike :meth:`intersections_auto` there is no gathered CSR in
        hand, so the kernel choice weighs the query's posting mass
        against the candidates' total liked mass before deciding
        whether assembling the CSR triple is worth it.
        """
        ids_list = (
            candidate_ids
            if isinstance(candidate_ids, list)
            else list(candidate_ids)
        )
        sizes = self.liked_sizes(ids_list)
        ids = self._csc_candidates(query_cols, int(sizes.sum()), ids_list)
        if ids is not None:
            return self.batch_intersections_csc(query_cols, ids), sizes
        indices, indptr, _ = self.gather_liked(ids_list)
        return self.batch_intersections(query_cols, indices, indptr), sizes

    def batch_intersections_csc(
        self, query_cols: np.ndarray, candidate_ids: np.ndarray
    ) -> np.ndarray:
        """``|query ∩ L_c|`` per candidate via the inverted index.

        One ``bincount`` over the concatenated postings of the query's
        items: cost scales with the query profile's popularity mass,
        *independent of the candidate count* -- the right kernel shape
        when a job scores most of the user base (user ids must be
        non-negative, which every workload in this repo satisfies).
        Results are identical to :meth:`batch_intersections`.

        Dense counting allocates O(max id) cells, which is fine for the
        dense sequential id spaces the synthetic workloads use but
        explodes for sparse ones (a handful of 10-digit ids would ask
        for gigabytes).  When the id span fails the density check the
        counts are taken over the *compressed* id space instead --
        ``unique`` + ``searchsorted`` + a bincount over candidate
        ranks -- which is exact for duplicate likers and duplicate
        candidates alike and allocates O(n log n) work, O(n) memory.
        """
        self._postings_ready()
        candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
        if candidate_ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        if query_cols.size == 0:
            return np.zeros(candidate_ids.size, dtype=np.int64)
        parts = [
            self._postings[col][: self._post_len[col]]
            for col in query_cols.tolist()
        ]
        likers = np.concatenate(parts) if parts else _EMPTY
        if likers.size == 0:
            return np.zeros(candidate_ids.size, dtype=np.int64)
        span = max(int(likers.max()), int(candidate_ids.max())) + 1
        if _dense_id_ok(span, likers.size + candidate_ids.size):
            per_user = np.bincount(likers, minlength=span)
            return per_user[candidate_ids]
        uniq, inverse = np.unique(candidate_ids, return_inverse=True)
        ranks = np.searchsorted(uniq, likers)
        ranks = np.minimum(ranks, uniq.size - 1)
        hits = uniq[ranks] == likers
        counts = np.bincount(ranks[hits], minlength=uniq.size)
        return counts[inverse]
