"""End-to-end tests of the asyncio front door over real sockets.

Twin-server methodology: the same trace is loaded into two servers
built from the same config and seed -- one mounted behind
:class:`AsyncHyRecServer`, one driven in-process through
:class:`WebApi`.  ``/online`` is not a pure function (each request
advances the sampler RNG, the request counter, and the anonymizer
epoch), so issuing the *same request sequence* against both must yield
byte-identical responses when the cache is off -- wire metering
included.  With the cache on, the contract weakens to *previously
rendered* responses with bounded staleness (``cache_ttl``), and a
user's own write invalidates immediately.
"""

from __future__ import annotations

import gc
import http.client
import logging
import re
import socket
import threading
import time

import pytest

from repro.core.api import WebApi
from repro.core.client import HyRecWidget
from repro.core.config import HyRecConfig
from repro.core.jobs import PersonalizationJob
from repro.core.server import HyRecServer
from repro.datasets.schema import Trace
from repro.web.async_server import AsyncHyRecServer


def build_server(toy_trace: Trace, **overrides: object) -> HyRecServer:
    """One deterministic toy-trace server; call twice for twins."""
    server = HyRecServer(HyRecConfig(k=2, r=3, **overrides), seed=7)
    for rating in toy_trace:
        server.record_rating(
            rating.user, rating.item, rating.value, rating.timestamp
        )
    return server


def http_get(
    connection: http.client.HTTPConnection, path: str
) -> tuple[int, dict[str, str], bytes]:
    connection.request("GET", path)
    response = connection.getresponse()
    body = response.read()
    headers = {key.lower(): value for key, value in response.getheaders()}
    return response.status, headers, body


ENGINES = [
    pytest.param({}, id="vectorized"),
    pytest.param(
        {"engine": "sharded", "num_shards": 2, "executor": "process"},
        id="sharded-process",
    ),
]


class TestByteParity:
    """Cache off: the HTTP path is byte-identical to in-process."""

    @pytest.mark.parametrize("engine_kwargs", ENGINES)
    def test_online_sequence_matches_in_process(self, toy_trace, engine_kwargs):
        behind_http = build_server(toy_trace, **engine_kwargs)
        in_process = build_server(toy_trace, **engine_kwargs)
        replica = WebApi(in_process)
        sequence = [0, 1, 2, 3, 1, 0, 3, 2, 0, 0, 2, 1]
        try:
            with AsyncHyRecServer(behind_http, cache_ttl=0.0) as door:
                connection = http.client.HTTPConnection(*door.address, timeout=30)
                try:
                    for uid in sequence:
                        status, headers, body = http_get(
                            connection, f"/online/?uid={uid}"
                        )
                        assert status == 200
                        # Cache off means no cache headers at all.
                        assert "x-cache" not in headers
                        assert body == replica.online(uid)
                finally:
                    connection.close()
            # Figure 10 wire metering must tick identically: the front
            # door serves through the same metered render path.
            assert (
                behind_http.meter.total_wire_bytes
                == in_process.meter.total_wire_bytes
            )
            assert (
                behind_http.stats.online_requests
                == in_process.stats.online_requests
                == len(sequence)
            )
        finally:
            behind_http.close()
            in_process.close()

    @pytest.mark.parametrize("engine_kwargs", ENGINES)
    def test_full_widget_cycle_matches_in_process(self, toy_trace, engine_kwargs):
        """online -> widget KNN -> /neighbors, twinned step by step."""
        behind_http = build_server(toy_trace, **engine_kwargs)
        in_process = build_server(toy_trace, **engine_kwargs)
        replica = WebApi(in_process)
        try:
            with AsyncHyRecServer(behind_http, cache_ttl=0.0) as door:
                connection = http.client.HTTPConnection(*door.address, timeout=30)
                try:
                    for uid in (0, 2):
                        status, _, wire = http_get(
                            connection, f"/online/?uid={uid}"
                        )
                        assert status == 200
                        twin_wire = replica.online(uid)
                        assert wire == twin_wire
                        job = PersonalizationJob.from_payload(
                            replica.decode(wire)
                        )
                        result = HyRecWidget().process_job(job)
                        query = "&".join(
                            [f"uid={uid}"]
                            + [
                                f"id{i}={token}"
                                for i, token in enumerate(result.neighbor_tokens)
                            ]
                        )
                        status, _, body = http_get(
                            connection, f"/neighbors/?{query}"
                        )
                        assert status == 200
                        assert body == replica.neighbors(
                            uid,
                            {
                                f"id{i}": token
                                for i, token in enumerate(result.neighbor_tokens)
                            },
                        )
                finally:
                    connection.close()
            assert behind_http.stats.knn_updates == in_process.stats.knn_updates == 2
        finally:
            behind_http.close()
            in_process.close()


class TestConcurrentClients:
    @pytest.mark.parametrize("engine_kwargs", ENGINES)
    def test_parallel_clients_all_served(self, toy_trace, engine_kwargs):
        server = build_server(toy_trace, **engine_kwargs)
        api = WebApi(server)
        clients, per_client = 6, 8
        failures: list[str] = []

        def client(slot: int, address: tuple[str, int]) -> None:
            connection = http.client.HTTPConnection(*address, timeout=30)
            try:
                for i in range(per_client):
                    uid = (slot + i) % 4
                    status, _, body = http_get(connection, f"/online/?uid={uid}")
                    if status != 200:
                        failures.append(f"slot {slot}: status {status}")
                        return
                    # Interleaving makes bytes non-deterministic, but
                    # every response must still parse into a valid job.
                    PersonalizationJob.from_payload(api.decode(body))
            except Exception as error:  # noqa: BLE001 - report to main thread
                failures.append(f"slot {slot}: {error!r}")
            finally:
                connection.close()

        try:
            with AsyncHyRecServer(server, cache_ttl=0.0) as door:
                threads = [
                    threading.Thread(target=client, args=(slot, door.address))
                    for slot in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            assert not failures, failures[:3]
            assert server.stats.online_requests == clients * per_client
        finally:
            server.close()


class TestBoundedStaleness:
    """Cache on: previously-rendered responses, never older than ttl."""

    def test_hit_serves_rendered_bytes_until_ttl(self, toy_trace):
        ttl = 0.6
        server = build_server(toy_trace)
        try:
            with AsyncHyRecServer(server, cache_ttl=ttl) as door:
                connection = http.client.HTTPConnection(*door.address, timeout=30)
                try:
                    status, headers, first = http_get(connection, "/online/?uid=0")
                    rendered_at = time.monotonic()
                    assert status == 200 and headers["x-cache"] == "miss"

                    status, headers, second = http_get(connection, "/online/?uid=0")
                    assert status == 200 and headers["x-cache"] == "hit"
                    # The hit is the previously-rendered response,
                    # byte for byte, and is within the staleness bound.
                    assert second == first
                    assert time.monotonic() - rendered_at < ttl
                    # A hit does not re-render: engine counter is still 1.
                    assert server.stats.online_requests == 1

                    time.sleep(ttl + 0.3)
                    status, headers, third = http_get(connection, "/online/?uid=0")
                    assert status == 200 and headers["x-cache"] == "miss"
                    assert server.stats.online_requests == 2
                finally:
                    connection.close()
        finally:
            server.close()

    def test_own_write_invalidates_immediately(self, toy_trace):
        server = build_server(toy_trace)
        api = WebApi(server)  # decode helper only; shares the server
        try:
            with AsyncHyRecServer(server, cache_ttl=60.0) as door:
                connection = http.client.HTTPConnection(*door.address, timeout=30)
                try:
                    _, headers, wire = http_get(connection, "/online/?uid=0")
                    assert headers["x-cache"] == "miss"
                    _, headers, _ = http_get(connection, "/online/?uid=0")
                    assert headers["x-cache"] == "hit"

                    # The user's write path: her widget posts a KNN
                    # update through /neighbors/.
                    job = PersonalizationJob.from_payload(api.decode(wire))
                    result = HyRecWidget().process_job(job)
                    query = "&".join(
                        ["uid=0"]
                        + [
                            f"id{i}={token}"
                            for i, token in enumerate(result.neighbor_tokens)
                        ]
                    )
                    status, _, _ = http_get(connection, f"/neighbors/?{query}")
                    assert status == 200

                    # Well inside the TTL, yet the entry is gone.
                    _, headers, _ = http_get(connection, "/online/?uid=0")
                    assert headers["x-cache"] == "miss"
                    # Other users' entries are untouched by user 0's write.
                    _, headers, _ = http_get(connection, "/online/?uid=2")
                    assert headers["x-cache"] == "miss"
                    _, headers, _ = http_get(connection, "/online/?uid=2")
                    assert headers["x-cache"] == "hit"
                    assert door.cache.stats.invalidations == 1
                finally:
                    connection.close()
        finally:
            server.close()


def raw_exchange(address: tuple[str, int], *segments: bytes) -> bytes:
    """Send ``segments`` as separate TCP segments; the reply up to EOF."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for segment in segments:
            sock.sendall(segment)
            time.sleep(0.05)
        reply = b""
        while chunk := sock.recv(1 << 16):
            reply += chunk
    return reply


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            pytest.param(
                b"POST /neighbors/?uid=0 HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                id="content-length-not-a-number",
            ),
            # Barely past the 64 KB stream limit: the server has read all
            # of it when it gives up, so its close is a FIN, not a reset
            # that could overtake the reply.
            pytest.param(
                b"GET /online/?uid=0 HTTP/1.1\r\nX-Pad: %b\r\n\r\n" % (b"a" * 65536),
                id="header-line-past-the-stream-limit",
            ),
            pytest.param(b"GET /online/?uid=0\r\n\r\n", id="no-http-version"),
        ],
    )
    def test_answers_400_and_closes(self, loaded_server, request_bytes):
        with AsyncHyRecServer(loaded_server, cache_ttl=0.0) as door:
            # Reading to EOF proves the server closed the connection.
            reply = raw_exchange(door.address, request_bytes)
            head = reply.split(b"\r\n\r\n", 1)[0]
            assert head.startswith(b"HTTP/1.1 400 Bad Request")
            assert b"Connection: close" in head
            connection = http.client.HTTPConnection(*door.address, timeout=30)
            try:
                _, _, body = http_get(connection, "/metrics")
            finally:
                connection.close()
            assert (
                'hyrec_http_requests_total{endpoint="/",status="400"} 1'
                in body.decode("utf-8")
            )
            assert loaded_server.stats.online_requests == 0

    def test_head_split_across_two_segments(self, loaded_server):
        with AsyncHyRecServer(loaded_server, cache_ttl=0.0) as door:
            reply = raw_exchange(
                door.address,
                b"GET /online/?uid=0 HTTP/1.1\r\nHo",
                b"st: hyrec\r\nConnection: close\r\n\r\n",
            )
            head, body = reply.split(b"\r\n\r\n", 1)
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert door.api.decode(body)["u"]
            assert loaded_server.stats.online_requests == 1


class TestHttpSurface:
    def test_unknown_path_404_and_bad_uid_400(self, loaded_server):
        with AsyncHyRecServer(loaded_server, cache_ttl=0.0) as door:
            connection = http.client.HTTPConnection(*door.address, timeout=30)
            try:
                status, _, _ = http_get(connection, "/nope/")
                assert status == 404
                status, _, _ = http_get(connection, "/online/?uid=banana")
                assert status == 400
                status, _, _ = http_get(connection, "/online/")
                assert status == 400
            finally:
                connection.close()

    def test_stats_and_metrics_surface(self, loaded_server):
        from repro.messages import decode_json

        with AsyncHyRecServer(loaded_server, cache_ttl=30.0) as door:
            connection = http.client.HTTPConnection(*door.address, timeout=30)
            try:
                http_get(connection, "/online/?uid=0")
                http_get(connection, "/online/?uid=0")
                status, _, body = http_get(connection, "/stats/")
                assert status == 200
                stats = decode_json(body)
                assert stats["cache_enabled"] is True
                assert stats["cache_hits"] == 1
                assert stats["cache_misses"] == 1
                assert stats["online_requests"] == 1
                assert stats["shed_requests"] == 0

                status, _, body = http_get(connection, "/metrics")
                assert status == 200
                text = body.decode("utf-8")
                assert "hyrec_http_cache_hits_total 1" in text
                assert (
                    'hyrec_http_requests_total{endpoint="/online",status="200"} 2'
                    in text
                )
                # The lane saw the miss only: the hit was never admitted.
                assert "hyrec_http_admit_wait_seconds_count 1" in text
                busy = re.search(
                    r"^hyrec_http_engine_busy_seconds_total (\S+)$", text, re.M
                )
                assert 0.0 < float(busy.group(1)) < 5.0
            finally:
                connection.close()

    def test_unknown_paths_share_one_label(self, loaded_server):
        with AsyncHyRecServer(loaded_server, cache_ttl=0.0) as door:
            connection = http.client.HTTPConnection(*door.address, timeout=30)
            try:
                for index in range(50):
                    status, _, _ = http_get(connection, f"/unknown{index}")
                    assert status == 404
                _, _, body = http_get(connection, "/metrics")
            finally:
                connection.close()
        series = [
            line
            for line in body.decode("utf-8").splitlines()
            if line.startswith("hyrec_http_requests_total{")
            and 'status="404"' in line
        ]
        assert series == [
            'hyrec_http_requests_total{endpoint="other",status="404"} 50'
        ]

    def test_stop_with_idle_keepalive_leaves_no_pending_task(
        self, loaded_server, caplog
    ):
        door = AsyncHyRecServer(loaded_server, cache_ttl=0.0)
        door.start()
        with socket.create_connection(door.address, timeout=10) as sock:
            sock.sendall(b"GET /stats/ HTTP/1.1\r\nHost: hyrec\r\n\r\n")
            assert sock.recv(1 << 16).startswith(b"HTTP/1.1 200 OK")
            # The connection stays open and idle while the door stops.
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                door.stop()
                gc.collect()
        assert not [r for r in caplog.records if r.name == "asyncio"]
