"""Load generators: one thread, closed or open loop, count-based windows.

Two drivers with one result shape (:func:`new_window`):

* :class:`InprocLoad` calls ``HyRecSystem.request`` on the calling
  thread -- no transport, so the engine is all there is to measure.
* :class:`HttpLoad` drives ``GET /online`` (optionally followed by
  ``POST /neighbors``) over keep-alive sockets.  It is a single-threaded
  ``selectors`` loop over at most ``nproc`` connections, so the
  generator never contends with itself for the interpreter lock and its
  own lateness is measurable.

Closed loop: a connection sends its next operation as soon as the
previous one completes.  Open loop: operation ``i`` is due at
``start + i / rate`` whether or not earlier ones have completed;
latency is timed **from the due time**, so a stall charges every
request that queued behind it.  ``lags_ms`` records how late the
generator itself was: send time minus the moment the operation was due
*and* a connection was free.

An operation has ``failed`` on a transport error, a status other than
200 or a body that does not check out.  Only transport errors are
caught; anything else is a bug in the suite or the program and
propagates.
"""

from __future__ import annotations

import gzip
import json
import selectors
import socket
import time
from typing import Callable, Sequence

from repro.core.system import HyRecSystem

#: Busy-poll instead of sleeping for the last stretch before a due
#: time; a sleep overshoots by tens of microseconds, which at a 1 ms
#: send interval would be most of the allowed generator lag.
SPIN_S = 0.0003
#: An open-loop reply later than this after its due time has missed the
#: latency limit.  It is counted as ``late``, not as ``failed``: on a
#: shared host a 50 ms stall of the whole machine is not an operation
#: of the program going wrong.
LATE_MS = 50.0
#: One in this many ``/online`` bodies is gunzipped, decoded and checked.
BODY_CHECK_EVERY = 64
JOB_KEYS = {"c", "k", "m", "p", "r", "u"}

perf = time.perf_counter


def new_window() -> dict:
    """Raw result of one window; ``workloads`` turns it into metrics."""
    return {
        "ops": 0,
        "elapsed_s": 0.0,
        "latencies_ms": [],
        "lags_ms": [],
        "wire_bytes": 0,
        "failed": 0,
        "late": 0,
        "transport_errors": 0,
        "bad_bodies": 0,
        "statuses": {},
        "cache_hits": 0,
        "candidates": 0,
    }


def wait_until(due: float) -> None:
    """Sleep, then spin, until ``perf_counter() >= due``."""
    while True:
        remaining = due - perf()
        if remaining <= 0:
            return
        if remaining > SPIN_S:
            time.sleep(remaining - SPIN_S)


class InprocLoad:
    """Closed/open loop of full in-process round trips, one thread."""

    def __init__(self, system: HyRecSystem, request=None) -> None:
        """``request`` replaces ``system.request`` (the traced run wraps
        it in a root span)."""
        self.system = system
        self.request = request if request is not None else system.request

    def run(self, users: Sequence[int], rate: float | None = None) -> dict:
        """One window over ``users``; open loop when ``rate`` is given."""
        window = new_window()
        latencies, lags = window["latencies_ms"], window["lags_ms"]
        request, meter = self.request, self.system.server.meter
        bytes_before = meter.total_wire_bytes
        start = free_at = perf()
        for index, uid in enumerate(users):
            if rate is None:
                due = free_at
            else:
                due = start + index / rate
                wait_until(due)
                lags.append((perf() - max(due, free_at)) * 1e3)
            outcome = request(uid)
            free_at = perf()
            latency_ms = (free_at - due) * 1e3
            latencies.append(latency_ms)
            window["candidates"] += outcome.job.candidate_count()
            if rate is not None and latency_ms > LATE_MS:
                window["late"] += 1
        window["elapsed_s"] = perf() - start
        window["ops"] = len(users)
        window["wire_bytes"] = meter.total_wire_bytes - bytes_before
        return window


class _Connection:
    """One keep-alive connection and the operation in flight on it."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self.sock: socket.socket | None = None
        self.buffer = bytearray()
        self.expect: int | None = None  # full response size once the head is in
        self.head_end = 0
        self.status = 0
        self.idle_since = 0.0
        # The operation in flight.
        self.due = 0.0
        self.post: bytes | None = None  # still to send once the GET lands
        self.awaiting_get = True
        self.op_bytes = 0
        self.op_ok = True

    def connect(self) -> None:
        self.close()
        self.sock = socket.create_connection(self.address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer.clear()
        self.expect = None

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def send(self, request: bytes) -> None:
        self.sock.sendall(request)
        self.op_bytes += len(request)

    def receive(self) -> tuple[int, bytes, bytes] | None:
        """Read what is available; ``(status, head, body)`` once complete."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        if self.expect is None:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return None
            head = bytes(self.buffer[:end]).lower()
            self.status = int(head[9:12])
            mark = head.find(b"content-length:")
            length = int(head[mark + 15 :].split(b"\r\n", 1)[0]) if mark >= 0 else 0
            self.head_end = end + 4
            self.expect = self.head_end + length
        if len(self.buffer) < self.expect:
            return None
        head = bytes(self.buffer[: self.head_end])
        body = bytes(self.buffer[self.head_end : self.expect])
        self.op_bytes += self.expect
        del self.buffer[: self.expect]
        self.expect = None
        return self.status, head, body


def _get(uid: int) -> bytes:
    return b"GET /online/?uid=%d HTTP/1.1\r\nHost: hyrec\r\n\r\n" % uid


def _post(uid: int, body: bytes) -> bytes:
    return (
        b"POST /neighbors/?uid=%d HTTP/1.1\r\nHost: hyrec\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (uid, len(body), body)
    )


def check_job_body(body: bytes) -> bool:
    """Whether a ``/online`` body is a gzipped job with the Table-1 keys."""
    try:
        payload = json.loads(gzip.decompress(body))
    except (OSError, EOFError, ValueError):
        return False
    return isinstance(payload, dict) and set(payload) == JOB_KEYS


class HttpLoad:
    """Single-threaded closed/open-loop HTTP client over keep-alive sockets.

    An operation is ``(uid, post_body_or_None)``: a ``GET /online`` and,
    when a body is given, a ``POST /neighbors`` for the same uid on the
    same connection -- the paper's Table-1 exchange.  When set,
    ``on_send(uid)`` returns a token handed back to ``on_done(token)``
    when the operation completes; the traced run opens and closes its
    root span there.
    """

    def __init__(self, host: str, port: int, connections: int = 2) -> None:
        self.on_send: Callable[[int], object] | None = None
        self.on_done: Callable[[object], None] | None = None
        self._connections = [_Connection((host, port)) for _ in range(connections)]
        # select(2), not epoll: epoll rounds a timeout up to whole
        # milliseconds, which would make every open-loop send late.
        self._selector = selectors.SelectSelector()
        self._bodies_seen = 0
        self._sampled: list[bytes] = []
        for connection in self._connections:
            self._connect(connection)

    def close(self) -> None:
        for connection in self._connections:
            connection.close()
        self._selector.close()

    def finish(self) -> dict:
        """Say goodbye on every connection; returns the server's ``/stats/``.

        The goodbye is a ``GET /stats/`` with ``Connection: close``, read
        to end of stream, so each server-side handler has returned before
        anyone stops the server -- and the counters it reports are final.
        """
        stats: dict = {}
        for connection in self._connections:
            connection.sock.sendall(
                b"GET /stats/ HTTP/1.1\r\nHost: hyrec\r\nConnection: close\r\n\r\n"
            )
            reply = b""
            while chunk := connection.sock.recv(1 << 16):
                reply += chunk
            stats = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        self.close()
        return stats

    def _connect(self, connection: _Connection) -> None:
        if connection.sock is not None:
            self._selector.unregister(connection.sock)
        connection.connect()
        self._selector.register(connection.sock, selectors.EVENT_READ, connection)

    def run(
        self, ops: Sequence[tuple[int, bytes | None]], rate: float | None = None
    ) -> dict:
        """One window over ``ops``; open loop when ``rate`` is given."""
        window = new_window()
        latencies, lags = window["latencies_ms"], window["lags_ms"]
        statuses = window["statuses"]
        total = len(ops)
        idle = list(self._connections)
        tokens: dict[_Connection, object] = {}
        started = completed = 0
        start = perf()
        for connection in idle:
            connection.idle_since = start

        def complete(connection: _Connection) -> None:
            nonlocal completed
            now = perf()
            latency_ms = (now - connection.due) * 1e3
            latencies.append(latency_ms)
            window["wire_bytes"] += connection.op_bytes
            if not connection.op_ok:
                window["failed"] += 1
            elif rate is not None and latency_ms > LATE_MS:
                window["late"] += 1
            if self.on_done is not None:
                self.on_done(tokens.pop(connection))
            connection.idle_since = now
            idle.append(connection)
            completed += 1

        def transport_error(connection: _Connection) -> None:
            window["transport_errors"] += 1
            connection.op_ok = False
            self._connect(connection)
            complete(connection)

        def readable(connection: _Connection) -> None:
            try:
                reply = connection.receive()
                if reply is None:
                    return
                status, head, body = reply
                statuses[status] = statuses.get(status, 0) + 1
                if status != 200:
                    connection.op_ok = False
                elif connection.awaiting_get:
                    if b"X-Cache: hit" in head:
                        window["cache_hits"] += 1
                    self._bodies_seen += 1
                    if self._bodies_seen % BODY_CHECK_EVERY == 0:
                        self._sampled.append(body)
                if connection.awaiting_get and connection.post is not None:
                    connection.awaiting_get = False
                    connection.send(connection.post)
                    return
            except OSError:
                transport_error(connection)
                return
            complete(connection)

        while completed < total:
            now = perf()
            next_due = now
            while idle and started < total:
                if rate is not None:
                    next_due = start + started / rate
                    if next_due > now:
                        break
                connection = idle.pop()
                uid, body = ops[started]
                started += 1
                connection.due = next_due
                connection.post = None if body is None else _post(uid, body)
                connection.awaiting_get = True
                connection.op_bytes = 0
                connection.op_ok = True
                if self.on_send is not None:
                    tokens[connection] = self.on_send(uid)
                if rate is not None:
                    lags.append((perf() - max(next_due, connection.idle_since)) * 1e3)
                try:
                    connection.send(_get(uid))
                except OSError:
                    transport_error(connection)
            # Block until a reply lands -- or, with a free connection and
            # arrivals left, only until shortly before the next due time,
            # then poll (timeout 0) through the last stretch.
            timeout = None
            if idle and started < total:
                timeout = max(0.0, next_due - perf() - SPIN_S)
            for key, _ in self._selector.select(timeout):
                readable(key.data)
        window["elapsed_s"] = perf() - start
        window["ops"] = total
        # Deep checks wait until the clock has stopped: gunzipping a job
        # inside the loop would make the generator late for the next send.
        bad = sum(1 for body in self._sampled if not check_job_body(body))
        self._sampled.clear()
        window["bad_bodies"] = bad
        window["failed"] += bad
        return window
