"""User profiles: the ``<user, item, value>`` opinion sets of Section 2.1.

A profile collects a user's binary opinions (1.0 = liked, 0.0 =
disliked) as one dict entry per rated item, ``item -> opinion``, and
nothing else per rating.  The opinion is always one of the two shared
constants :data:`LIKE` and :data:`DISLIKE`, whatever type the caller
passed (``True``, ``1``, ``np.float64(1.0)``...): the table keeps no
number object of its own per rating, and a like has one wire form.
Rating timestamps are accepted but not stored -- no reader needs them
(they never go on the wire, and a replay schedules by the trace's own
timestamps).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterator, Mapping

#: The stored opinions.  Every profile shares these two objects.
LIKE = 1.0
DISLIKE = 0.0

#: Accepted rating value -> stored opinion.  ``True``, ``1`` and numpy
#: scalars hash and compare equal to the float keys, so one probe both
#: validates a value and canonicalizes it.
OPINIONS: dict[float, float] = {LIKE: LIKE, DISLIKE: DISLIKE}


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
        "_payload_cache",
        "_liked_frozen",
        "_disliked_frozen",
        "_fragment_cache",
        "_deflated_cache",
    )

    def __init__(self, user_id: int) -> None:
        self.user_id = user_id
        self._ratings: dict[int, float] = {}  # item -> LIKE | DISLIKE
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

    def add(self, item: int, value: float, timestamp: float = 0.0) -> float | None:
        """Record (or overwrite) the opinion on ``item``.

        Stores the shared constant for ``value`` (see :data:`OPINIONS`);
        ``timestamp`` is accepted for the callers that carry one and
        dropped.  Returns the previous opinion, ``None`` if the item was
        unrated.  Re-stating the opinion already held changes nothing,
        so the cached wire forms survive it.
        """
        try:
            opinion = OPINIONS.get(value)
        except TypeError:  # unhashable
            opinion = None
        if opinion is None:
            raise ValueError(
                f"profiles store binary opinions; got value={value!r} "
                "(binarize the trace first)"
            )
        ratings = self._ratings
        previous = ratings.get(item)
        if previous is not opinion:
            ratings[item] = opinion
            self._payload_cache = None
            self._liked_frozen = None
            self._disliked_frozen = None
            self._fragment_cache = None
            self._deflated_cache = None
        return previous

    def value_of(self, item: int) -> float | None:
        """The stored opinion on ``item`` or ``None`` if unrated."""
        return self._ratings.get(item)

    def liked_items(self) -> frozenset[int]:
        """Items this user liked (the vector used by cosine similarity).

        Cached between writes: similarity engines call this once per
        candidate appearance, which is hundreds of times per update in
        a busy server.
        """
        if self._liked_frozen is None:
            self._liked_frozen = frozenset(
                [item for item, opinion in self._ratings.items() if opinion]
            )
        return self._liked_frozen

    def liked_live(self) -> list[int] | frozenset[int]:
        """The liked items, computed on each call and not cached.

        For one-shot readers that copy the items elsewhere (the liked
        matrix slicing a row into its arena): caching a frozenset per
        profile, as :meth:`liked_items` does for its many-reads callers,
        would keep a second copy of every like alive for nothing.
        Returns the cached frozenset when one already exists.
        """
        if self._liked_frozen is not None:
            return self._liked_frozen
        return [item for item, opinion in self._ratings.items() if opinion]

    def disliked_items(self) -> frozenset[int]:
        """Items this user explicitly disliked (cached between writes)."""
        if self._disliked_frozen is None:
            self._disliked_frozen = frozenset(
                [item for item, opinion in self._ratings.items() if not opinion]
            )
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
                str(item): opinion for item, opinion in self._ratings.items()
            }
        return self._payload_cache

    def json_fragment(self) -> bytes:
        """This profile's wire form as pre-encoded JSON bytes.

        The personalization orchestrator embeds a profile into every
        candidate set it ships; caching the encoded bytes turns job
        serialization into a byte join (the Jackson-level optimization
        a production server would apply).  Matches
        ``encode_json(self.to_payload())`` byte for byte, but does not
        cache that payload dict: most profiles only ever travel as these
        bytes, and the dict would outlive its one use.
        """
        if self._fragment_cache is None:
            from repro.messages import encode_json

            payload = self._payload_cache
            if payload is None:
                payload = {
                    str(item): opinion for item, opinion in self._ratings.items()
                }
            self._fragment_cache = encode_json(payload)
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
        return duplicate

    def __repr__(self) -> str:
        return (
            f"Profile(user={self.user_id}, size={self.size}, "
            f"liked={sum(self._ratings.values()):.0f})"
        )


#: ``profile -> its item -> opinion dict``: the live dict itself, for
#: bulk readers that walk every profile in one flat pass (the liked
#: matrix's postings rebuild) and are done with it before the next
#: write.  A C-level getter, so a pass over many profiles pays no
#: Python call per profile.  Read-only.
ratings_of: Callable[[Profile], Mapping[int, float]] = attrgetter("_ratings")
