"""Tests for the web API facade and the real HTTP deployment."""

from __future__ import annotations

import pytest

from repro.core.api import WebApi, parse_neighbors_params
from repro.core.client import HyRecWidget
from repro.core.config import HyRecConfig
from repro.core.jobs import PersonalizationJob
from repro.core.server import HyRecServer
from repro.messages import decode_json, encode_json, gzip_compress
from repro.web import AsyncHyRecServer, HttpWidgetClient


@pytest.fixture()
def api(loaded_server) -> WebApi:
    return WebApi(loaded_server)


class TestWebApi:
    def test_online_returns_gzipped_job(self, api):
        wire = api.online(0)
        assert wire[:2] == b"\x1f\x8b"  # gzip magic
        job = PersonalizationJob.from_payload(api.decode(wire))
        assert job.k == api.server.config.k

    def test_online_uncompressed_config(self, toy_trace):
        server = HyRecServer(HyRecConfig(k=2, compress=False), seed=1)
        for rating in toy_trace:
            server.record_rating(rating.user, rating.item, rating.value)
        wire = WebApi(server).online(0)
        assert wire[:2] != b"\x1f\x8b"
        decode_json(wire)  # plain JSON parses directly

    def test_neighbors_query_params(self, api):
        job = PersonalizationJob.from_payload(api.decode(api.online(0)))
        result = HyRecWidget().process_job(job)
        params = {
            f"id{i}": token for i, token in enumerate(result.neighbor_tokens)
        }
        response = api.decode(api.neighbors(0, params))
        assert response["ok"] is True
        assert api.server.knn_table.neighbors_of(0)

    def test_neighbors_from_json_body(self, api):
        job = PersonalizationJob.from_payload(api.decode(api.online(1)))
        result = HyRecWidget().process_job(job)
        body = encode_json(result.to_payload())
        response = api.decode(api.neighbors_from_body(1, body))
        assert response["ok"] is True

    def test_neighbors_from_gzipped_body(self, api):
        job = PersonalizationJob.from_payload(api.decode(api.online(2)))
        result = HyRecWidget().process_job(job)
        body = gzip_compress(encode_json(result.to_payload()))
        response = api.decode(api.neighbors_from_body(2, body))
        assert response["ok"] is True

    def test_parse_neighbors_params_ordering(self):
        params = {"id1": "b", "id0": "a", "rec0": "7", "uid": "3"}
        result = parse_neighbors_params("me", params)
        assert result.neighbor_tokens == ["a", "b"]
        assert result.recommended_items == ["7"]
        assert result.user_token == "me"

    def test_parse_neighbors_stops_at_gap(self):
        params = {"id0": "a", "id2": "c"}
        result = parse_neighbors_params("me", params)
        assert result.neighbor_tokens == ["a"]


class TestHttpDeployment:
    @pytest.fixture()
    def running(self, loaded_server):
        http_server = AsyncHyRecServer(loaded_server)
        http_server.start()
        yield http_server
        http_server.stop()

    def test_full_round_trip_over_http(self, running):
        client = HttpWidgetClient(running.url)
        outcome = client.round_trip(0)
        assert outcome.result.neighbor_tokens
        assert running.hyrec.knn_table.neighbors_of(0)
        assert outcome.response_bytes > 0

    def test_round_trips_improve_neighborhoods(self, running):
        client = HttpWidgetClient(running.url)
        for _ in range(3):
            for uid in (0, 1, 2, 3):
                client.round_trip(uid)
        # Users 0/1 share a profile; gossip over HTTP must find it.
        assert 1 in running.hyrec.knn_table.neighbors_of(0)

    def test_stats_endpoint(self, running):
        client = HttpWidgetClient(running.url)
        client.round_trip(0)
        stats = client.stats()
        assert stats["users"] == 4
        assert stats["online_requests"] >= 1

    def test_unknown_path_404(self, running):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{running.url}/nope", timeout=5)
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_bad_uid_400(self, running):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{running.url}/online/?uid=notanumber", timeout=5
            )
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_concurrent_clients(self, running):
        import threading

        errors: list[Exception] = []

        def worker(uid: int) -> None:
            try:
                client = HttpWidgetClient(running.url)
                for _ in range(3):
                    client.round_trip(uid)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(uid,)) for uid in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert running.hyrec.stats.online_requests >= 12
