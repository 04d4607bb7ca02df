"""Admission control: deterministic shedding, health bypass, drain.

Determinism comes from gating the engine, not from timing: the
front door's :class:`~repro.core.api.WebApi` is wrapped so ``online``
blocks on a :class:`threading.Event` until the test releases it, and
the test polls ``/stats/`` (which bypasses admission) until the
admission state -- ``in_flight``, ``pending`` -- is exactly the
saturation picture it wants before firing the request that must shed.
"""

from __future__ import annotations

import http.client
import sys
import threading
import time

import pytest

from repro.core.client import HyRecWidget
from repro.core.jobs import PersonalizationJob
from repro.messages import decode_json, encode_json
from repro.web.async_server import AsyncHyRecServer
from repro.web.loadtest import fetch_stats
from repro.web.server import HyRecHttpServer


class GatedOnline:
    """Wrap ``WebApi.online`` so calls block until :meth:`release`."""

    def __init__(self, api) -> None:
        self._inner = api.online
        self._gate = threading.Event()
        self.entered = 0

    def __call__(self, uid: int, now: float = 0.0) -> bytes:
        self.entered += 1
        if not self._gate.wait(timeout=30):
            raise TimeoutError("test gate never released")
        return self._inner(uid, now)

    def release(self) -> None:
        self._gate.set()


def gate_engine(door: AsyncHyRecServer) -> GatedOnline:
    gate = GatedOnline(door.api)
    door.api.online = gate  # type: ignore[method-assign]
    return gate


def wait_for_saturation(
    url: str, in_flight: int, pending: int, timeout: float = 10.0
) -> dict:
    """Poll ``/stats/`` until the admission gauges hit the target."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = fetch_stats(url)
        if stats["in_flight"] == in_flight and stats["pending"] == pending:
            return stats
        time.sleep(0.01)
    raise AssertionError(
        f"never reached in_flight={in_flight} pending={pending}: {fetch_stats(url)}"
    )


class Client(threading.Thread):
    """One request on its own connection; outcome captured for joins."""

    def __init__(self, address: tuple[str, int], path: str) -> None:
        super().__init__(daemon=True)
        self.address = address
        self.path = path
        self.status: int | None = None
        self.headers: dict[str, str] = {}
        self.body = b""
        self.error: Exception | None = None
        self.start()

    def run(self) -> None:
        connection = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            connection.request("GET", self.path)
            response = connection.getresponse()
            self.body = response.read()
            self.status = response.status
            self.headers = {
                key.lower(): value for key, value in response.getheaders()
            }
        except Exception as error:  # noqa: BLE001 - surfaced via .error
            self.error = error
        finally:
            connection.close()


class TestShedding:
    def test_deterministic_503_past_the_bound(self, loaded_server):
        with AsyncHyRecServer(
            loaded_server,
            cache_ttl=0.0,
            max_pending=1,
            retry_after=7,
        ) as door:
            gate = gate_engine(door)
            executing = Client(door.address, "/online/?uid=0")
            waiting = Client(door.address, "/online/?uid=1")
            wait_for_saturation(door.url, in_flight=1, pending=1)

            # The queue is provably full; the next request must shed.
            shed = Client(door.address, "/online/?uid=2")
            shed.join(timeout=10)
            assert shed.error is None
            assert shed.status == 503
            assert shed.headers["retry-after"] == "7"
            assert b"overloaded" in shed.body
            # Shed without ever touching the engine.
            assert gate.entered == 1

            gate.release()
            executing.join(timeout=10)
            waiting.join(timeout=10)
            assert executing.status == 200 and waiting.status == 200

            stats = fetch_stats(door.url)
            assert stats["shed_requests"] == 1
            assert stats["in_flight"] == 0 and stats["pending"] == 0

    def test_shed_counter_matches_observed_rejections(self, loaded_server):
        burst = 8
        with AsyncHyRecServer(
            loaded_server, cache_ttl=0.0, max_pending=0
        ) as door:
            gate = gate_engine(door)
            holder = Client(door.address, "/online/?uid=0")
            wait_for_saturation(door.url, in_flight=1, pending=0)

            clients = [
                Client(door.address, f"/online/?uid={i % 4}") for i in range(burst)
            ]
            for client in clients:
                client.join(timeout=10)
            assert all(client.error is None for client in clients)
            # max_pending=0: with the one slot held, every burst
            # request is rejected -- none may hang or error.
            observed = [client.status for client in clients]
            assert observed == [503] * burst

            gate.release()
            holder.join(timeout=10)
            assert holder.status == 200
            stats = fetch_stats(door.url)
            assert stats["shed_requests"] == burst
            assert stats["online_requests"] == 1

    def test_neighbors_sheds_too(self, loaded_server):
        with AsyncHyRecServer(
            loaded_server, cache_ttl=0.0, max_pending=0
        ) as door:
            gate = gate_engine(door)
            holder = Client(door.address, "/online/?uid=0")
            wait_for_saturation(door.url, in_flight=1, pending=0)
            shed = Client(door.address, "/neighbors/?uid=1&id0=bogus")
            shed.join(timeout=10)
            assert shed.status == 503
            assert "retry-after" in shed.headers
            gate.release()
            holder.join(timeout=10)

    @pytest.mark.parametrize("max_pending", [0, 2, 3])
    def test_bound_is_one_executing_plus_max_pending(
        self, loaded_server, max_pending
    ):
        with AsyncHyRecServer(
            loaded_server, cache_ttl=0.0, max_pending=max_pending
        ) as door:
            gate = gate_engine(door)
            admitted = []
            for waiting in range(max_pending + 1):
                admitted.append(Client(door.address, f"/online/?uid={waiting % 4}"))
                wait_for_saturation(door.url, in_flight=1, pending=waiting)
            extra = [Client(door.address, "/online/?uid=0") for _ in range(2)]
            for client in extra:
                client.join(timeout=10)
            assert [client.status for client in extra] == [503, 503]
            # One lane: whatever the queue holds, one call is in the engine.
            assert gate.entered == 1

            gate.release()
            for client in admitted:
                client.join(timeout=10)
            assert [client.status for client in admitted] == [200] * (max_pending + 1)
            assert fetch_stats(door.url)["shed_requests"] == 2


class TestHealthBypass:
    def test_stats_and_metrics_respond_while_saturated(self, loaded_server):
        with AsyncHyRecServer(
            loaded_server, cache_ttl=0.0, max_pending=1
        ) as door:
            gate = gate_engine(door)
            clients = [Client(door.address, f"/online/?uid={i}") for i in (0, 1)]
            stats = wait_for_saturation(door.url, in_flight=1, pending=1)
            # wait_for_saturation itself just proved /stats/ responds
            # while both the engine slot and the queue are full.
            assert stats["in_flight"] == 1 and stats["pending"] == 1

            metrics = Client(door.address, "/metrics")
            metrics.join(timeout=10)
            assert metrics.status == 200
            text = metrics.body.decode("utf-8")
            assert "hyrec_http_in_flight_requests 1" in text
            assert "hyrec_http_pending_requests 1" in text

            gate.release()
            for client in clients:
                client.join(timeout=10)
                assert client.status == 200

    def test_cache_hit_and_stats_answer_while_the_lane_is_held(self, loaded_server):
        """A cached user is served even with the engine saturated."""
        with AsyncHyRecServer(
            loaded_server, cache_ttl=60.0, max_pending=0
        ) as door:
            warm = Client(door.address, "/online/?uid=3")
            warm.join(timeout=10)
            assert warm.status == 200

            gate = gate_engine(door)
            holder = Client(door.address, "/online/?uid=0")
            wait_for_saturation(door.url, in_flight=1, pending=0)

            hit = Client(door.address, "/online/?uid=3")
            hit.join(timeout=10)
            assert hit.status == 200
            assert hit.headers["x-cache"] == "hit"
            assert hit.body == warm.body
            stats = fetch_stats(door.url)
            assert stats["cache_hits"] == 1 and stats["in_flight"] == 1

            missed = Client(door.address, "/online/?uid=2")
            missed.join(timeout=10)
            assert missed.status == 503

            gate.release()
            holder.join(timeout=10)


class EngineCalls:
    """Wrap ``door.api``'s engine calls; books overlap and thread idents."""

    def __init__(self, door: AsyncHyRecServer) -> None:
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0
        self.threads: set[int] = set()
        for name in ("online", "neighbors_from_body"):
            setattr(door.api, name, self._counted(getattr(door.api, name)))

    def _counted(self, call):
        def wrapper(*args):
            with self._lock:
                self._active += 1
                self.peak = max(self.peak, self._active)
                self.threads.add(threading.get_ident())
            try:
                return call(*args)
            finally:
                with self._lock:
                    self._active -= 1

        return wrapper


class WidgetLoop(threading.Thread):
    """``rounds`` Table-1 exchanges for one user on one keep-alive connection."""

    def __init__(self, door: AsyncHyRecServer, uid: int, rounds: int) -> None:
        super().__init__(daemon=True)
        self.door, self.uid, self.rounds = door, uid, rounds
        self.statuses: list[int] = []
        self.start()

    def run(self) -> None:
        connection = http.client.HTTPConnection(*self.door.address, timeout=30)
        try:
            for _ in range(self.rounds):
                connection.request("GET", f"/online/?uid={self.uid}")
                response = connection.getresponse()
                self.statuses.append(response.status)
                job = PersonalizationJob.from_payload(
                    self.door.api.decode(response.read())
                )
                result = HyRecWidget().process_job(job)
                connection.request(
                    "POST",
                    f"/neighbors/?uid={self.uid}",
                    body=encode_json(result.to_payload()),
                )
                response = connection.getresponse()
                response.read()
                self.statuses.append(response.status)
        finally:
            connection.close()


class TestOneEngineLane:
    def test_engine_is_never_entered_twice(self, loaded_server):
        """``HyRecServer`` takes no lock around its request counter, the
        meter, the sampler RNG or the key-run epoch swap: the front door
        must never call it from two threads at once."""
        clients, rounds = 4, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AsyncHyRecServer(loaded_server, cache_ttl=0.0) as door:
                calls = EngineCalls(door)
                loops = [WidgetLoop(door, uid, rounds) for uid in range(clients)]
                for loop in loops:
                    loop.join(timeout=60)
                    assert not loop.is_alive()
                    assert loop.statuses == [200] * (2 * rounds)
                stats = fetch_stats(door.url)
        finally:
            sys.setswitchinterval(interval)
        assert calls.peak == 1
        assert len(calls.threads) == 1
        assert stats["online_requests"] == clients * rounds
        assert stats["knn_updates"] == clients * rounds
        assert stats["shed_requests"] == 0
        sent = loaded_server.meter.reading("server->client")
        assert sent.messages == clients * rounds


    def test_failed_engine_call_answers_500_and_the_lane_lives(self, loaded_server):
        with AsyncHyRecServer(loaded_server, cache_ttl=0.0) as door:
            online = door.api.online

            def broken(uid: int) -> bytes:
                raise RuntimeError("engine fault")

            door.api.online = broken  # type: ignore[method-assign]
            failed = Client(door.address, "/online/?uid=0")
            failed.join(timeout=10)
            assert failed.status == 500
            door.api.online = online  # type: ignore[method-assign]
            served = Client(door.address, "/online/?uid=0")
            served.join(timeout=10)
            assert served.status == 200
            stats = fetch_stats(door.url)
            assert stats["in_flight"] == 0 and stats["pending"] == 0


class TestGracefulShutdown:
    def test_zero_dropped_in_flight_requests(self, loaded_server):
        door = AsyncHyRecServer(loaded_server, cache_ttl=0.0, max_pending=4)
        door.start()
        gate = gate_engine(door)
        clients = [Client(door.address, f"/online/?uid={i}") for i in (0, 1, 2)]
        wait_for_saturation(door.url, in_flight=1, pending=2)

        stopper = threading.Thread(target=door.stop, daemon=True)
        stopper.start()
        time.sleep(0.2)  # let stop() close the listening socket
        gate.release()

        for client in clients:
            client.join(timeout=15)
            # Every request that was in flight (executing *or* queued)
            # when stop() began still gets its real response.
            assert client.error is None, client.error
            assert client.status == 200
        stopper.join(timeout=15)
        assert not stopper.is_alive()

    def test_new_connections_refused_after_stop(self, loaded_server):
        door = AsyncHyRecServer(loaded_server, cache_ttl=0.0)
        door.start()
        address = door.address
        door.stop()
        with pytest.raises(OSError):
            connection = http.client.HTTPConnection(*address, timeout=2)
            try:
                connection.request("GET", "/online/?uid=0")
                connection.getresponse()
            finally:
                connection.close()


class TestThreadedServerRegression:
    def test_threaded_stats_and_metrics_still_serve(self, loaded_server):
        """The zero-moving-parts deployment keeps its health surface."""
        http_server = HyRecHttpServer(loaded_server)
        port = http_server.start()
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                connection.request("GET", "/stats/")
                response = connection.getresponse()
                stats = decode_json(response.read())
                assert response.status == 200
                assert stats["users"] == loaded_server.num_users
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                assert response.status == 200
                assert b"hyrec" in response.read()
            finally:
                connection.close()
        finally:
            http_server.stop()
