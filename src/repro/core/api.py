"""The public web API of Table 1, as payload-level operations.

    https://HyRec/online/?uid=uid                       Client request
    https://HyRec/neighbors/?uid=uid&id0=..&id1=..&...  Update KNN selection

:class:`WebApi` turns those calls into bytes-in/bytes-out operations
(JSON, gzipped when the config says so); :mod:`repro.web` mounts them
on a real HTTP server.  Content providers building their own widget
would program against exactly this surface.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.jobs import JobResult
from repro.core.server import HyRecServer
from repro.messages import decode_json, encode_json, gzip_compress, gzip_decompress


class WebApi:
    """Byte-level facade over a :class:`HyRecServer`."""

    def __init__(self, server: HyRecServer) -> None:
        self.server = server

    @property
    def compress(self) -> bool:
        """Whether responses are gzipped (mirrors the server config)."""
        return self.server.config.compress

    # --- endpoint: /online/?uid= ------------------------------------------------

    def online(self, uid: int, now: float = 0.0) -> bytes:
        """Serve a personalization job for ``uid`` as wire bytes.

        Builds the integer job (:meth:`HyRecServer.handle_engine_request`)
        and renders it from the profiles' cached fragments
        (:meth:`HyRecServer.render_engine_response`), which also meters
        the response on the ``server->client`` channel -- on every
        engine, with no payload dict per candidate.  Only
        ``anonymize_items`` takes the generic builder: it mints item
        tokens in one stream with the user tokens, in its own order.
        """
        server = self.server
        if server.config.anonymize_items:
            job = server.handle_online_request(uid, now=now)
            return server.render_online_response(job)
        return server.render_engine_response(server.handle_engine_request(uid, now=now))

    # --- endpoint: /neighbors/?uid=&id0=&id1=... -----------------------------------

    def neighbors(self, uid: int, params: Mapping[str, str]) -> bytes:
        """Apply a widget's KNN update delivered as query parameters.

        ``params`` holds the widget's ``id0..idN`` neighbor tokens and
        optional ``rec0..recN`` recommended item keys, exactly like the
        querystring of the paper's API.
        """
        result = parse_neighbors_params(uid_token(self.server, uid), params)
        recommendations = self.server.handle_knn_update(uid, result)
        return self._encode({"ok": True, "recommended": recommendations})

    def neighbors_from_body(self, uid: int, body: bytes) -> bytes:
        """Apply a KNN update delivered as a (possibly gzipped) JSON body."""
        if body[:2] == b"\x1f\x8b":  # gzip magic
            body = gzip_decompress(body)
        result = JobResult.from_payload(decode_json(body))
        recommendations = self.server.handle_knn_update(uid, result)
        return self._encode({"ok": True, "recommended": recommendations})

    # --- helpers --------------------------------------------------------------------

    def _encode(self, payload: Any) -> bytes:
        raw = encode_json(payload)
        return gzip_compress(raw) if self.compress else raw

    def decode(self, data: bytes) -> Any:
        """Decode a response produced by this API (for clients/tests)."""
        if data[:2] == b"\x1f\x8b":
            data = gzip_decompress(data)
        return decode_json(data)


def uid_token(server: HyRecServer, uid: int) -> str:
    """Current anonymous token of ``uid`` (the widget echoes it back)."""
    return server.anonymizer.token_for_user(uid)


def parse_neighbors_params(
    user_token: str, params: Mapping[str, str]
) -> JobResult:
    """Rebuild a :class:`JobResult` from ``id0..idN`` / ``rec0..recN``."""
    neighbors: list[str] = []
    index = 0
    while f"id{index}" in params:
        neighbors.append(params[f"id{index}"])
        index += 1
    recommended: list[str] = []
    index = 0
    while f"rec{index}" in params:
        recommended.append(params[f"rec{index}"])
        index += 1
    return JobResult(
        user_token=user_token,
        neighbor_tokens=neighbors,
        recommended_items=recommended,
    )
