"""Per-user recommendation response cache (the front door's L1).

The async front door (:mod:`repro.web.async_server`) serves
``/online/?uid=`` from this cache whenever a fresh-enough rendered
response exists, skipping the engine entirely.  The design follows the
multi-layer caching of aws-samples/personalization-apis, adapted to
HyRec's single write path:

* **L1 (this module)** -- a bounded, thread-safe LRU of fully rendered
  response bytes keyed by user id.  Hits are served straight off the
  event loop: no admission slot, no engine work, no new wire metering.
* **L2 (already in the server)** -- the per-profile JSON fragment and
  deflate-segment caches that :meth:`HyRecServer.render_engine_response
  <repro.core.server.HyRecServer.render_engine_response>` splices into
  the integer job ``WebApi.online`` builds, so even an L1 miss only
  pays for sampling and the response envelope.

Staleness contract (see ``docs/http.md``):

* A ``/neighbors/`` or rating write for user ``u`` *immediately*
  evicts ``u``'s entry (the server's user-write listener feed), so a
  cached response is never stale with respect to its own user's
  writes.
* Other users' writes do not evict; the ``ttl`` bounds that staleness:
  no hit is ever served more than ``ttl`` seconds after the response
  was rendered.

Invalidation is versioned to stay correct under concurrency: renders
race with writes, so :meth:`ResponseCache.put` only stores a response
tagged with the user's invalidation version observed *before* the
render started (:meth:`ResponseCache.version`).  A write landing
mid-render bumps the version and the late ``put`` is discarded --
the cache can never resurrect a response older than the last
invalidation.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters (monotone since construction)."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    expirations: int
    size: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class _Entry:
    body: bytes
    rendered_at: float
    version: int


class ResponseCache:
    """Bounded LRU of rendered responses with versioned invalidation.

    ``ttl`` is the staleness bound in seconds; ``capacity`` the L1
    entry budget.  ``clock`` is injectable for tests and must be
    monotone (defaults to :func:`time.monotonic`).

    Thread-safe: lookups come from the event loop, stores from the
    front door's engine lane, and invalidations from whichever thread
    runs the write path.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl: float = 0.0,
        clock=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        if ttl < 0:
            raise ValueError(f"ttl cannot be negative, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        #: Invalidation version per user; grows with the user set (an
        #: int per user ever written), never with the entry set -- an
        #: evicted entry's version must survive the eviction, or a
        #: racing put could slip a pre-invalidation response back in.
        self._versions: dict[int, int] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._expirations = 0

    @property
    def enabled(self) -> bool:
        """Whether the cache can ever serve a hit (``ttl > 0``)."""
        return self.ttl > 0

    def version(self, user_id: int) -> int:
        """The user's current invalidation version.

        Read it *before* rendering; pass it to :meth:`put` so a write
        landing mid-render discards the stale store.
        """
        with self._lock:
            return self._versions.get(user_id, 0)

    def get(self, user_id: int, now: float | None = None) -> bytes | None:
        """The user's cached response bytes, or ``None``.

        Expired entries (older than ``ttl``) are dropped on sight and
        counted as both an expiration and a miss.
        """
        if not self.enabled:
            return None
        if now is None:
            now = self._clock()
        with self._lock:
            entry = self._entries.get(user_id)
            if entry is None:
                self._misses += 1
                return None
            if now - entry.rendered_at > self.ttl:
                del self._entries[user_id]
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(user_id)
            self._hits += 1
            return entry.body

    def put(
        self,
        user_id: int,
        body: bytes,
        version: int,
        now: float | None = None,
    ) -> bool:
        """Store a rendered response; returns whether it was kept.

        ``version`` must be the value :meth:`version` returned before
        the response was rendered -- a mismatch means an invalidation
        raced the render, and the store is discarded.
        """
        if not self.enabled:
            return False
        if now is None:
            now = self._clock()
        with self._lock:
            if self._versions.get(user_id, 0) != version:
                return False
            self._entries[user_id] = _Entry(
                body=body, rendered_at=now, version=version
            )
            self._entries.move_to_end(user_id)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return True

    def invalidate(self, user_id: int) -> None:
        """Evict the user's entry and bump her invalidation version.

        Matches the :meth:`HyRecServer.add_user_write_listener
        <repro.core.server.HyRecServer.add_user_write_listener>`
        signature, so the front door subscribes this method directly.
        """
        with self._lock:
            self._versions[user_id] = self._versions.get(user_id, 0) + 1
            self._entries.pop(user_id, None)
            self._invalidations += 1

    def clear(self) -> None:
        """Drop every entry (versions and counters survive)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                expirations=self._expirations,
                size=len(self._entries),
            )
