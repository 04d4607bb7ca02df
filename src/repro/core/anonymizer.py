"""Anonymous user/item mapping (Section 3.1, privacy paragraph).

    "HyRec hides the user/profile association through an anonymous
    mapping that associates identifiers with users and items.  HyRec
    periodically changes these identifiers to prevent curious users
    from determining which user corresponds to which profile in the
    received candidate set."

Tokens are random hex strings drawn from a seeded generator; a
``reshuffle()`` bumps the epoch and invalidates every outstanding
token.  Tokens embed the epoch so that resolving a stale token fails
loudly instead of silently mapping to the wrong user.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.randomness import derive_rng


class StaleTokenError(KeyError):
    """A token from a previous epoch was presented after a reshuffle."""


class AnonymousMapping:
    """Bidirectional id <-> token maps for users and items."""

    def __init__(self, seed: int = 0, token_bytes: int = 6) -> None:
        if token_bytes < 2:
            raise ValueError("token_bytes must be at least 2")
        self._seed = seed
        self._token_bytes = token_bytes
        self.epoch = 0
        self._rng = derive_rng(seed, "anonymizer:epoch:0")
        self._user_tokens: dict[int, str] = {}
        self._token_users: dict[str, int] = {}
        self._item_tokens: dict[int, str] = {}
        self._token_items: dict[str, int] = {}

    # --- token generation -------------------------------------------------

    def _fresh_token(self, prefix: str, taken: dict[str, int]) -> str:
        while True:
            body = self._rng.getrandbits(self._token_bytes * 8)
            token = f"{prefix}{self.epoch}_{body:0{self._token_bytes * 2}x}"
            if token not in taken:
                return token

    # --- users -------------------------------------------------------------

    def token_for_user(self, user_id: int) -> str:
        """Opaque token for ``user_id``, stable within the epoch."""
        token = self._user_tokens.get(user_id)
        if token is None:
            token = self._fresh_token("u", self._token_users)
            self._user_tokens[user_id] = token
            self._token_users[token] = user_id
        return token

    def tokens_for_users(self, user_ids: Sequence[int]) -> list[str]:
        """:meth:`token_for_user` of each id, in order.

        One C-level pass of dict probes when every user already has a
        token this epoch; otherwise tokens are minted in the order the
        users appear in ``user_ids``, exactly as one call per id would.
        """
        tokens = list(map(self._user_tokens.get, user_ids))
        if None in tokens:
            tokens = list(map(self.token_for_user, user_ids))
        return tokens

    def resolve_user(self, token: str) -> int:
        """Real user id behind ``token``.

        Raises :class:`StaleTokenError` for tokens minted before the
        last reshuffle and plain ``KeyError`` for garbage.
        """
        try:
            return self._token_users[token]
        except KeyError:
            if self._looks_stale(token, "u"):
                raise StaleTokenError(
                    f"user token {token!r} predates epoch {self.epoch}"
                ) from None
            raise

    # --- items ---------------------------------------------------------------

    def token_for_item(self, item_id: int) -> str:
        """Opaque token for ``item_id``, stable within the epoch."""
        token = self._item_tokens.get(item_id)
        if token is None:
            token = self._fresh_token("i", self._token_items)
            self._item_tokens[item_id] = token
            self._token_items[token] = item_id
        return token

    def resolve_item(self, token: str) -> int:
        """Real item id behind ``token`` (stale tokens raise)."""
        try:
            return self._token_items[token]
        except KeyError:
            if self._looks_stale(token, "i"):
                raise StaleTokenError(
                    f"item token {token!r} predates epoch {self.epoch}"
                ) from None
            raise

    # --- lifecycle ------------------------------------------------------------

    def reshuffle(self) -> None:
        """Start a new epoch: all existing tokens become invalid."""
        self.epoch += 1
        self._rng = derive_rng(self._seed, f"anonymizer:epoch:{self.epoch}")
        self._user_tokens.clear()
        self._token_users.clear()
        self._item_tokens.clear()
        self._token_items.clear()

    def _looks_stale(self, token: str, prefix: str) -> bool:
        """Heuristically detect a token from an earlier epoch."""
        if not token.startswith(prefix):
            return False
        head, _, _ = token.partition("_")
        digits = head[len(prefix):]
        return digits.isdigit() and int(digits) < self.epoch

    def __repr__(self) -> str:
        return (
            f"AnonymousMapping(epoch={self.epoch}, "
            f"users={len(self._user_tokens)}, items={len(self._item_tokens)})"
        )
