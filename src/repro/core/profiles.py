"""User profiles: the ``<user, item, value>`` opinion sets of Section 2.1.

A profile collects a user's binary opinions (1.0 = liked, 0.0 =
disliked) with the timestamp of each rating.  The liked-item set is
maintained incrementally because every similarity computation needs it
and profiles are read far more often than they are written.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Iterator, Mapping


class Profile:
    """One user's rating history.

    Values are binary (the paper binarizes all workloads up front; see
    :mod:`repro.datasets.binarize`).  Re-rating an item overwrites the
    previous opinion, matching how a user changing their mind works on
    a real site.
    """

    __slots__ = (
        "user_id",
        "_ratings",
        "_liked",
        "_payload_cache",
        "_liked_frozen",
        "_disliked_frozen",
        "_fragment_cache",
        "_deflated_cache",
    )

    def __init__(self, user_id: int) -> None:
        self.user_id = user_id
        self._ratings: dict[int, tuple[float, float]] = {}  # item -> (value, ts)
        self._liked: set[int] = set()
        self._payload_cache: dict[str, float] | None = None
        self._liked_frozen: frozenset[int] | None = None
        self._disliked_frozen: frozenset[int] | None = None
        self._fragment_cache: bytes | None = None
        self._deflated_cache: bytes | None = None

    def __len__(self) -> int:
        return len(self._ratings)

    def __contains__(self, item: int) -> bool:
        return item in self._ratings

    def __iter__(self) -> Iterator[int]:
        return iter(self._ratings)

    @property
    def size(self) -> int:
        """Number of rated items (the paper's "profile size")."""
        return len(self._ratings)

    def add(self, item: int, value: float, timestamp: float = 0.0) -> None:
        """Record (or overwrite) the opinion on ``item``."""
        if value not in (0.0, 1.0):
            raise ValueError(
                f"profiles store binary opinions; got value={value!r} "
                "(binarize the trace first)"
            )
        self._ratings[item] = (value, timestamp)
        if value == 1.0:
            self._liked.add(item)
        else:
            self._liked.discard(item)
        self._payload_cache = None
        self._liked_frozen = None
        self._disliked_frozen = None
        self._fragment_cache = None
        self._deflated_cache = None

    def value_of(self, item: int) -> float | None:
        """The stored opinion on ``item`` or ``None`` if unrated."""
        entry = self._ratings.get(item)
        return entry[0] if entry is not None else None

    def liked_items(self) -> frozenset[int]:
        """Items this user liked (the vector used by cosine similarity).

        Cached between writes: similarity engines call this once per
        candidate appearance, which is hundreds of times per update in
        a busy server.
        """
        if self._liked_frozen is None:
            self._liked_frozen = frozenset(self._liked)
        return self._liked_frozen

    def liked_live(self) -> AbstractSet[int]:
        """The liked set itself -- no snapshot, no copy.

        For one-shot bulk reads that are done with it before the next
        write (an index rebuild over every profile): freezing a copy
        per profile, as :meth:`liked_items` does for its many-reads
        callers, would cost more than the read.  Read-only.
        """
        return self._liked

    def disliked_items(self) -> frozenset[int]:
        """Items this user explicitly disliked (cached between writes)."""
        if self._disliked_frozen is None:
            self._disliked_frozen = frozenset(self._ratings) - self._liked
        return self._disliked_frozen

    def rated_items(self) -> frozenset[int]:
        """All items with any opinion (Algorithm 2 excludes these)."""
        return frozenset(self._ratings)

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready form: ``{item-id-string: value}``.

        Timestamps never go on the wire -- the widget does not need
        them, and omitting them keeps Figure 10's message sizes honest.

        The payload is cached until the next write: a profile is
        serialized into every candidate set it appears in, so the
        orchestrator would otherwise rebuild the same dict hundreds of
        times between two ratings.  Callers must treat the returned
        dict as read-only.
        """
        if self._payload_cache is None:
            self._payload_cache = {
                str(item): value for item, (value, _) in self._ratings.items()
            }
        return self._payload_cache

    def json_fragment(self) -> bytes:
        """This profile's wire form as pre-encoded JSON bytes.

        The personalization orchestrator embeds a profile into every
        candidate set it ships; caching the encoded bytes turns job
        serialization into a byte join (the Jackson-level optimization
        a production server would apply).  Matches
        ``encode_json(self.to_payload())`` byte for byte.
        """
        if self._fragment_cache is None:
            from repro.messages import encode_json

            self._fragment_cache = encode_json(self.to_payload())
        return self._fragment_cache

    def deflated_fragment(self) -> bytes:
        """Sync-flushed deflate segment of :meth:`json_fragment`.

        Cached between writes so the server can assemble gzipped
        responses by splicing byte segments instead of re-compressing
        every candidate profile on every request (see
        :class:`repro.messages.FragmentGzipWriter`).
        """
        if self._deflated_cache is None:
            from repro.messages import deflate_segment

            self._deflated_cache = deflate_segment(self.json_fragment())
        return self._deflated_cache

    @classmethod
    def from_payload(cls, user_id: int, payload: Mapping[str, float]) -> "Profile":
        """Rebuild a profile from its wire form."""
        profile = cls(user_id)
        for item_str, value in payload.items():
            profile.add(int(item_str), float(value))
        return profile

    def copy(self) -> "Profile":
        """Deep copy (used by offline baselines taking snapshots)."""
        duplicate = Profile(self.user_id)
        duplicate._ratings = dict(self._ratings)
        duplicate._liked = set(self._liked)
        return duplicate

    def __repr__(self) -> str:
        return (
            f"Profile(user={self.user_id}, size={self.size}, "
            f"liked={len(self._liked)})"
        )
