"""Asyncio HTTP front door: admission control + response caching.

This is the production path in front of a :class:`HyRecServer` (any
engine, including the sharded/process cluster): a single-threaded
asyncio accept/parse/respond loop, a bounded admission queue feeding
one engine lane, and the per-user L1 response cache of
:mod:`repro.web.cache`.  It mounts :class:`~repro.core.api.WebApi`,
so the endpoints are the paper's Table 1 (``/online``, ``/neighbors``)
plus ``/stats`` and ``/metrics``; ``docs/http.md`` documents them.

Request flow::

                       ┌──────────────── event loop ────────────────┐
    socket ── parse ──▶│ /online  cache hit? ──────────────▶ respond │
                       │    │ miss                                   │
                       │    ▼                                        │
                       │ admission (1 executing + ≤ http_max_pending)│
                       │    │ full: 503 + Retry-After (shed)     ▲   │
                       └────┼────────────────────────────────────┼───┘
                            ▼ queue                call_soon_threadsafe
                 engine lane (one thread, FIFO)                  │
                 WebApi.online → cache.put ──────────────────────┘

A miss runs :meth:`WebApi.online <repro.core.api.WebApi.online>`: the
server samples an integer job (``handle_engine_request``) and renders
it from the profiles' cached fragments (``render_engine_response``) --
the same two calls an in-process request makes, on every engine, with
no payload dict built per candidate.

One lane, not a pool: over HTTP the server only samples, renders and
applies KNN updates (scoring is the browser's job) -- Python under the
interpreter lock, in a :class:`HyRecServer` not written to be entered
twice.  A second lane only made each render wait for the lock the
first one held (measurements in ``docs/http.md``).

Contracts the test suite pins down:

* **Exactness (cache off).** With ``cache_ttl=0`` every response body
  is byte-identical to calling :class:`~repro.core.api.WebApi`
  in-process in the same order, wire metering included.
* **Bounded staleness (cache on).** A hit is never served more than
  ``cache_ttl`` seconds after its response was rendered, and a user's
  own write always invalidates her entry immediately (the server's
  user-write listener feed).
* **Deterministic shedding.** Engine endpoints past the admission
  bound get ``503`` with a ``Retry-After: http_retry_after`` header
  and count into the shed counter; nothing is queued unboundedly.
* **Health bypass.** ``/stats/`` and ``/metrics`` never enter the
  admission queue and are never cached; they run on a dedicated
  thread so a busy engine lane cannot starve them.
* **Graceful drain.** :meth:`AsyncHyRecServer.stop` stops accepting,
  lets every admitted request finish, then closes idle keep-alive
  connections -- zero in-flight requests dropped.
"""

from __future__ import annotations

import asyncio
import logging
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from time import perf_counter
from typing import Callable
from urllib.parse import parse_qsl

from repro.core.api import WebApi
from repro.core.server import HyRecServer
from repro.messages import encode_json
from repro.obs.exposition import metrics_text
from repro.obs.registry import MetricSample, log_buckets
from repro.web.cache import ResponseCache

logger = logging.getLogger("repro.web")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
_ENDPOINTS = frozenset({"/online", "/neighbors", "/stats", "/metrics"})
_TEXT = "text/plain; charset=utf-8"
_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
#: 50 us .. ~1.6 s, doubling: an idle lane picks work up in tens of
#: microseconds, a full queue holds it for ``http_max_pending`` renders.
_ADMIT_WAIT_BUCKETS = log_buckets(0.00005, 2.0, 16)


class AsyncHyRecServer:
    """Lifecycle wrapper around the asyncio front door.

    Construct over a live :class:`HyRecServer`, :meth:`start` (binds
    and serves on a background event-loop thread, returns the port),
    :meth:`stop` (graceful drain).  Admission and cache knobs default
    to the server config (``http_max_pending``, ``http_retry_after``,
    ``cache_ttl``, ``cache_capacity``); keyword overrides exist for
    tests and sweeps.
    """

    def __init__(
        self,
        server: HyRecServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int | None = None,
        retry_after: int | None = None,
        cache_ttl: float | None = None,
        cache_capacity: int | None = None,
        drain_timeout: float = 10.0,
    ) -> None:
        config = server.config
        self.hyrec = server
        self.api = WebApi(server)
        self._host = host
        self._port = port
        self.max_pending = (
            config.http_max_pending if max_pending is None else max_pending
        )
        self.retry_after = (
            config.http_retry_after if retry_after is None else retry_after
        )
        if self.max_pending < 0:
            raise ValueError("max_pending cannot be negative")
        self.drain_timeout = drain_timeout
        self.cache = ResponseCache(
            capacity=(
                config.cache_capacity
                if cache_capacity is None
                else cache_capacity
            ),
            ttl=config.cache_ttl if cache_ttl is None else cache_ttl,
        )
        # The engine lane: every WebApi call of the front door runs on
        # this one thread, in admission order.
        self._lane: threading.Thread | None = None
        self._lane_queue: queue.SimpleQueue = queue.SimpleQueue()
        self._busy_seconds = 0.0  # written by the lane only
        # Health endpoints get their own thread so a busy engine lane
        # can never starve /stats//metrics (the bypass contract).
        self._health_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="hyrec-health"
        )
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._address: tuple[str, int] | None = None
        # Open connections and the handler task serving each.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        # Admission state; touched only on the event-loop thread.
        # Engine calls handed to the lane and not yet answered: the
        # lane is FIFO, so one of them is executing, the rest wait.
        self._admitted = 0
        self._active_requests = 0
        self._closing = False
        # Source-of-truth front-door counters (ints under the GIL;
        # /stats and the metrics collector read them).
        self._shed = 0
        self._served: dict[tuple[str, int], int] = {}
        self._heads: dict[tuple[int, str, bool, str], bytes] = {}
        registry = server.obs.registry
        self._latency = registry.histogram("hyrec_http_request_latency_seconds")
        self._admit_wait = registry.histogram(
            "hyrec_http_admit_wait_seconds", buckets=_ADMIT_WAIT_BUCKETS
        )
        registry.add_collector(self._collect_metrics)
        # Write-driven invalidation: every profile/KNN write for a user
        # evicts her cached response, whatever the TTL.
        server.add_user_write_listener(self.cache.invalidate)

    # --- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """(host, actual port) after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self, timeout: float = 10.0) -> int:
        """Bind and serve on a background event loop; returns the port."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="hyrec-async-http", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("async server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("async server failed to bind") from (
                self._startup_error
            )
        return self.address[1]

    def stop(self) -> None:
        """Graceful shutdown: drain in-flight requests, then close.

        Idempotent.  Detaches the cache's write listener and the
        metrics collector so a new front door can be mounted on the
        same :class:`HyRecServer`.
        """
        if self._thread is not None:
            loop, stop_event = self._loop, self._stop_event
            if loop is not None and stop_event is not None:
                loop.call_soon_threadsafe(stop_event.set)
            self._thread.join(timeout=self.drain_timeout + 5)
            self._thread = None
        if self._lane is not None:
            # Queued behind everything admitted: the lane answers all
            # of it before it sees the sentinel.
            self._lane_queue.put(None)
            self._lane.join(timeout=5)
            self._lane = None
        self._health_pool.shutdown(wait=False)
        self.hyrec.remove_user_write_listener(self.cache.invalidate)
        self.hyrec.obs.registry.remove_collector(self._collect_metrics)

    def __enter__(self) -> "AsyncHyRecServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except BaseException as error:  # pragma: no cover - diagnostic
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()
            else:
                logger.exception("async front door crashed")
        finally:
            loop.close()

    async def _serve(self) -> None:
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self._lane = threading.Thread(
            target=self._run_lane, name="hyrec-engine", daemon=True
        )
        self._lane.start()
        self._address = server.sockets[0].getsockname()[:2]
        self._started.set()
        await self._stop_event.wait()
        # Graceful drain: no new connections, in-flight requests run
        # to completion, then idle keep-alive connections are closed.
        self._closing = True
        server.close()
        await server.wait_closed()
        deadline = loop.time() + self.drain_timeout
        while self._active_requests > 0:
            if loop.time() >= deadline:
                logger.warning(
                    "drain timeout with %d requests in flight",
                    self._active_requests,
                )
                break
            await asyncio.sleep(0.005)
        connections = dict(self._connections)
        for writer in connections:
            writer.close()
        if connections:  # let idle handlers see EOF and return
            await asyncio.wait(connections.values(), timeout=self.drain_timeout)

    # --- the engine lane ----------------------------------------------------------

    def _run_lane(self) -> None:
        """Answer admitted engine calls one at a time, in order."""
        deliver = self._loop.call_soon_threadsafe
        while (item := self._lane_queue.get()) is not None:
            future, call, admitted_at = item
            picked_up = perf_counter()
            self._admit_wait.observe(picked_up - admitted_at)
            result = error = None
            try:
                result = call()
            except Exception as caught:  # answered as 400/500 by _dispatch
                error = caught
            self._busy_seconds += perf_counter() - picked_up
            try:
                deliver(self._deliver, future, result, error)
            except RuntimeError:  # loop closed: the drain timed out
                return

    def _deliver(
        self, future: asyncio.Future, result: bytes, error: Exception | None
    ) -> None:
        self._admitted -= 1
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)

    # --- connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError as error:
                    reason = f"bad request: {error}".encode()
                    writer.write(
                        self._finish(
                            "/", 400, perf_counter(), reason, extra="Connection: close"
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, close, body = request
                self._active_requests += 1
                try:
                    writer.write(await self._dispatch(method, target, body))
                    await writer.drain()
                finally:
                    self._active_requests -= 1
                if close or self._closing:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, bool, bytes] | None:
        """``(method, target, close, body)`` of the next request, or
        ``None`` at a clean end of stream; ``ValueError`` if malformed."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise ValueError("truncated request head") from None
        except asyncio.LimitOverrunError:
            raise ValueError("request head too large") from None
        request_line, *lines = head[:-4].decode("latin1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        headers: dict[str, str] = {}
        for line in lines:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        if length < 0:
            raise ValueError("negative Content-Length")
        body = await reader.readexactly(length) if length else b""
        close = headers.get("connection", "").lower() == "close"
        return parts[0], parts[1], close, body

    # --- dispatch --------------------------------------------------------------

    async def _dispatch(self, method: str, target: str, body: bytes) -> bytes:
        start = perf_counter()
        path, _, query = target.partition("?")
        path = path.rstrip("/")
        try:
            if path == "/online" and method == "GET":
                return await self._online(int(dict(parse_qsl(query))["uid"]), start)
            if path == "/neighbors" and method in ("GET", "POST"):
                params = dict(parse_qsl(query))
                uid = int(params.pop("uid"))
                if method == "POST":
                    call = partial(self.api.neighbors_from_body, uid, body)
                else:
                    call = partial(self.api.neighbors, uid, params)
                return await self._engine("/neighbors", start, call)
            if path == "/stats" and method == "GET":
                payload = await self._loop.run_in_executor(
                    self._health_pool, self._stats_body
                )
                return self._finish("/stats", 200, start, payload, _JSON)
            if path == "/metrics" and method == "GET":
                payload = await self._loop.run_in_executor(
                    self._health_pool,
                    lambda: metrics_text(self.hyrec).encode("utf-8"),
                )
                return self._finish("/metrics", 200, start, payload, _PROMETHEUS)
            # Unknown paths share one label: the label set stays bounded.
            endpoint = path if path in _ENDPOINTS else "other"
            return self._finish(endpoint, 404, start, b"unknown endpoint")
        except (KeyError, ValueError) as error:
            return self._finish(
                path or "/", 400, start, f"bad request: {error}".encode()
            )
        except Exception:  # pragma: no cover - diagnostic
            logger.exception("request failed: %s %s", method, target)
            return self._finish(path or "/", 500, start, b"internal error")

    async def _online(self, uid: int, start: float) -> bytes:
        x_cache = ""
        if self.cache.enabled:
            cached = self.cache.get(uid)
            if cached is not None:
                return self._finish(
                    "/online", 200, start, cached, _JSON, "X-Cache: hit",
                    self.api.compress,
                )
            x_cache = "X-Cache: miss"

        def work() -> bytes:
            # Version read precedes the render: a write landing
            # mid-render bumps it and the put below is discarded,
            # so the cache never holds a pre-invalidation response.
            version = self.cache.version(uid)
            rendered = self.api.online(uid)
            self.cache.put(uid, rendered, version)
            return rendered

        return await self._engine("/online", start, work, x_cache)

    # --- admission control ------------------------------------------------------

    async def _engine(
        self, endpoint: str, start: float, call: Callable[[], bytes], extra: str = ""
    ) -> bytes:
        """Answer ``endpoint`` with ``call()`` run on the engine lane,
        or shed it when one call executes and ``max_pending`` wait."""
        if self._admitted > self.max_pending:
            self._shed += 1
            overloaded = b'{"error": "server overloaded"}'
            return self._finish(
                endpoint, 503, start, overloaded, _JSON,
                f"Retry-After: {self.retry_after}",
            )
        self._admitted += 1
        future = self._loop.create_future()
        self._lane_queue.put((future, call, perf_counter()))
        payload = await future
        return self._finish(
            endpoint, 200, start, payload, _JSON, extra, self.api.compress
        )

    # --- responses and telemetry -------------------------------------------------

    def _finish(
        self,
        endpoint: str,
        status: int,
        start: float,
        body: bytes,
        content_type: str = _TEXT,
        extra: str = "",
        compressed: bool = False,
    ) -> bytes:
        """Render one response and book its counters/latency.

        ``extra`` is one more ``Name: value`` header line, if any.
        """
        key = (endpoint, status)
        self._served[key] = self._served.get(key, 0) + 1
        self._latency.observe(max(0.0, perf_counter() - start))
        shape = (status, content_type, compressed, extra)
        head = self._heads.get(shape)
        if head is None:
            lines = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {content_type}",
            ]
            if compressed:
                lines.append("Content-Encoding: gzip")
            if extra:
                lines.append(extra)
            lines.append("Content-Length: ")
            head = self._heads[shape] = "\r\n".join(lines).encode("latin1")
        return b"%b%d\r\n\r\n%b" % (head, len(body), body)

    def _stats_body(self) -> bytes:
        server = self.hyrec
        cache = self.cache.stats
        admitted = self._admitted  # one read: the loop thread writes it
        stats = {
            "users": server.num_users,
            "online_requests": server.stats.online_requests,
            "knn_updates": server.stats.knn_updates,
            "wire_bytes": server.meter.total_wire_bytes,
            "cache_enabled": self.cache.enabled,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_evictions": cache.evictions,
            "cache_invalidations": cache.invalidations,
            "cache_expirations": cache.expirations,
            "cache_size": cache.size,
            "shed_requests": self._shed,
            "pending": max(0, admitted - 1),
            "in_flight": min(1, admitted),
        }
        return encode_json(stats)

    def _collect_metrics(self) -> list[MetricSample]:
        """Front-door samples for the shared registry (collector).

        Reads the same source-of-truth ints `/stats/` serves, so the
        two surfaces can never disagree.
        """

        def sample(
            name: str, value: float, kind: str = "counter", **labels: object
        ) -> MetricSample:
            label_set = tuple(
                sorted((key, str(val)) for key, val in labels.items())
            )
            return MetricSample(
                name=name, kind=kind, labels=label_set, value=float(value)
            )

        cache = self.cache.stats
        admitted = self._admitted
        samples = [
            sample("hyrec_http_shed_total", self._shed),
            sample("hyrec_http_cache_hits_total", cache.hits),
            sample("hyrec_http_cache_misses_total", cache.misses),
            sample("hyrec_http_cache_evictions_total", cache.evictions),
            sample("hyrec_http_cache_invalidations_total", cache.invalidations),
            sample("hyrec_http_engine_busy_seconds_total", self._busy_seconds),
            sample("hyrec_http_pending_requests", max(0, admitted - 1), "gauge"),
            sample("hyrec_http_in_flight_requests", min(1, admitted), "gauge"),
        ]
        samples += [
            sample(
                "hyrec_http_requests_total", count, endpoint=endpoint, status=status
            )
            for (endpoint, status), count in sorted(self._served.items())
        ]
        return samples
