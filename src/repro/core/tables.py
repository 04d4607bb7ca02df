"""The server's two global data structures (Section 2.2 / 3.1).

    "The server maintains two global data structures: A Profile Table,
    recording the profiles of all the users in the system and the KNN
    Table containing the k nearest neighbors of each user."
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.core.profiles import OPINIONS, Profile

#: Observer signature for profile writes:
#: ``(user_id, item, value, previous_value_or_None)``.
WriteListener = Callable[[int, int, float, "float | None"], None]


class ProfileTable:
    """User id -> :class:`Profile`, with lazy creation."""

    def __init__(self) -> None:
        self._profiles: dict[int, Profile] = {}
        self._listeners: list[WriteListener] = []
        # One int object per item id, shared by every profile's dict:
        # a write stream boxes a fresh int per write, and a key kept
        # per rating would cost more than the rating's dict entry.
        self._items: dict[int, int] = {}

    def add_listener(self, listener: WriteListener) -> None:
        """Subscribe to every write that goes through :meth:`record`.

        This is how incrementally-maintained read structures (e.g. the
        vectorized engine's :class:`~repro.engine.LikedMatrix`) stay in
        sync without polling: the server funnels all rating writes
        through :meth:`record`.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener: WriteListener) -> None:
        """Unsubscribe a write listener (no-op if it is not subscribed).

        Structures with an explicit shutdown (the process executor's
        write router) must detach here, or writes recorded after their
        teardown would still be delivered to them.
        """
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._profiles

    def __iter__(self) -> Iterator[int]:
        return iter(self._profiles)

    def users(self) -> list[int]:
        """All registered user ids."""
        return list(self._profiles)

    def get(self, user_id: int) -> Profile:
        """The profile of ``user_id``; raises ``KeyError`` if unknown."""
        return self._profiles[user_id]

    def lookup(self) -> Callable[[int], "Profile | None"]:
        """The table's ``user_id -> profile or None`` lookup itself.

        For loops that fetch many profiles: bind it once and each fetch
        is a single dict probe, with no ``in`` test before it.
        """
        return self._profiles.get

    def get_or_create(self, user_id: int) -> Profile:
        """The profile of ``user_id``, registering the user if new."""
        profile = self._profiles.get(user_id)
        if profile is None:
            profile = Profile(user_id)
            self._profiles[user_id] = profile
        return profile

    def remove(self, user_id: int) -> None:
        """Forget ``user_id`` entirely (no-op for unknown users).

        This is *not* a write: listeners are not notified.  It exists
        for shard-local tables handing a placement bucket's users off
        to another shard -- the profiles leave with the handoff replay,
        so keeping them here would double-count the users.  Derived
        read structures over this table must be invalidated by the
        caller (e.g. ``LikedMatrix.refresh``).
        """
        self._profiles.pop(user_id, None)

    def record(
        self, user_id: int, item: int, value: float, timestamp: float = 0.0
    ) -> Profile:
        """Add one rating, creating the user on first sight.

        One probe for the profile and one for the table's shared copy
        of the item id; :meth:`Profile.add` hands back the previous
        opinion the listeners need.  Listeners receive the shared item
        and the stored opinion (:data:`~repro.core.profiles.LIKE` or
        :data:`~repro.core.profiles.DISLIKE`), not the caller's objects.
        """
        profile = self._profiles.get(user_id)
        if profile is None:
            profile = self._profiles[user_id] = Profile(user_id)
        item = self._items.setdefault(item, item)
        previous = profile.add(item, value, timestamp)
        if self._listeners:
            opinion = OPINIONS[value]
            for listener in self._listeners:
                listener(user_id, item, opinion, previous)
        return profile

    def liked_sets(self) -> dict[int, frozenset[int]]:
        """Snapshot of every user's liked-item set.

        This is what the offline baselines feed to exact KNN; taking a
        snapshot decouples their periodic computation from concurrent
        profile updates, like the paper's back-end does.
        """
        return {uid: p.liked_items() for uid, p in self._profiles.items()}

    def snapshot(self) -> "ProfileTable":
        """Deep copy of the whole table."""
        duplicate = ProfileTable()
        duplicate._profiles = {uid: p.copy() for uid, p in self._profiles.items()}
        duplicate._items = dict(self._items)
        return duplicate


class KnnTable:
    """User id -> current KNN approximation (ordered, best first)."""

    def __init__(self) -> None:
        self._neighbors: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._neighbors)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._neighbors

    def neighbors_of(self, user_id: int) -> list[int]:
        """Current neighbor list (empty for unknown users)."""
        return list(self._neighbors.get(user_id, ()))

    def update(self, user_id: int, neighbors: Sequence[int]) -> None:
        """Replace the user's neighborhood with a fresh KNN iteration.

        Self-loops are rejected: the sampler and Algorithm 1 both
        exclude the user, so one showing up here indicates a protocol
        bug (or a malicious client -- the server re-validates).
        """
        cleaned: list[int] = []
        seen: set[int] = set()
        for neighbor in neighbors:
            if neighbor == user_id:
                raise ValueError(f"user {user_id} cannot be her own neighbor")
            if neighbor in seen:
                continue
            seen.add(neighbor)
            cleaned.append(neighbor)
        self._neighbors[user_id] = cleaned

    def as_dict(self) -> dict[int, list[int]]:
        """Copy of the full table (uid -> neighbor list)."""
        return {uid: list(nbrs) for uid, nbrs in self._neighbors.items()}

    def users(self) -> list[int]:
        """Users with a recorded neighborhood."""
        return list(self._neighbors)
