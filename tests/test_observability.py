"""The observability layer: registry, tracing, events, exposition.

Four contracts under test:

* **Registry semantics** -- instruments are identity-cached and
  thread-safe, snapshots are non-destructive and mergeable across
  registries (how worker-process samples aggregate), and a disabled
  registry costs nothing and exposes nothing.
* **Trace propagation** -- one request through the sharded engine is
  one trace: a ``request`` root whose descendants cover
  schedule/scatter/score/merge/respond, with the per-shard score
  spans measured *inside the worker processes* under
  ``executor="process"`` and stitched back through the transport.
  With tracing off, zero trace content crosses any boundary.
* **Stats accumulation** -- ``server.stats`` reads are
  non-destructive (double polls can't double-count) and
  ``reset_stats`` rebases deltas without touching the raw counters
  behavior runs on.
* **Exposition** -- ``GET /metrics`` serves Prometheus text with the
  per-shard series, and parity holds bit-for-bit with every
  observability knob on.
"""

from __future__ import annotations

import os
import random
import threading
import urllib.request

import numpy as np
import pytest

from repro.cluster.transport import Hello, JobSlices, MetricsRequest
from repro.cluster.worker import ShardHost
from repro.core.config import HyRecConfig
from repro.core.system import HyRecSystem
from repro.datasets.schema import Rating, Trace
from repro.obs import Observability
from repro.obs.exposition import (
    metrics_text,
    render_prometheus,
    sample_from_wire,
    sample_to_wire_parts,
)
from repro.obs.registry import MetricsRegistry, merge_samples
from repro.obs.tracing import Tracer

SHARD_COUNTS = (1, 2, 4, 8)


def _random_trace(seed: int, users: int = 20, items: int = 60, n: int = 120) -> Trace:
    rng = random.Random(seed)
    now = 0.0
    ratings = []
    for _ in range(n):
        now += rng.random() * 40
        ratings.append(
            Rating(
                timestamp=now,
                user=rng.randrange(users),
                item=rng.randrange(items),
                value=float(rng.random() < 0.75),
            )
        )
    return Trace("obs", ratings)


# --- registry ---------------------------------------------------------------


class TestRegistry:
    def test_instruments_are_identity_cached(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", shard=0)
        assert a is registry.counter("x_total", shard=0)
        assert a is not registry.counter("x_total", shard=1)

    def test_kind_conflicts_are_loud(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError, match="another kind"):
            registry.gauge("thing")

    def test_snapshot_is_non_destructive(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc(3)
        registry.histogram("lat_seconds").observe(0.01)
        first = registry.snapshot()
        second = registry.snapshot()
        assert first == second
        assert [s.value for s in first if s.kind == "counter"] == [3.0]

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("hits_total")
        counter.inc(100)
        registry.histogram("lat").observe(1.0)
        registry.add_collector(lambda: [_ for _ in ()])
        assert registry.snapshot() == []

    def test_merge_sums_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 2), (b, 5)):
            reg.counter("jobs_total", shard=1).inc(n)
            h = reg.histogram("score_seconds", buckets=(0.1, 1.0), shard=1)
            h.observe(0.05)
            h.observe(5.0)
        merged = merge_samples(a.snapshot(), b.snapshot())
        by_name = {s.name: s for s in merged}
        assert by_name["jobs_total"].value == 7.0
        hist = by_name["score_seconds"]
        assert hist.count == 4 and hist.bucket_counts == (2, 0, 2)

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("contended_total")
        hist = registry.histogram("contended_seconds")

        def work():
            for _ in range(2000):
                counter.inc()
                hist.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 16_000
        assert hist.count == 16_000

    def test_wire_sample_round_trip_preserves_samples(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", shard=3).inc(9)
        h = registry.histogram("score_seconds", buckets=(0.5, 1.0), shard=3)
        h.observe(0.2)
        h.observe(2.0)

        class Wire:
            def __init__(self, kind, name, labels, values, bounds):
                self.kind = kind
                self.name = name
                self.labels = labels
                self.values = np.asarray(values, dtype=np.float64)
                self.bounds = np.asarray(bounds, dtype=np.float64)

        for sample in registry.snapshot():
            back = sample_from_wire(Wire(*sample_to_wire_parts(sample)))
            assert back == sample


# --- tracer ------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_parent_implicitly(self):
        tracer = Tracer(enabled=True)
        with tracer.begin("request") as root:
            with tracer.span("score") as score:
                with tracer.span("merge"):
                    pass
        spans = {s.name: s for s in tracer.spans}
        assert spans["request"].parent_id == 0
        assert spans["score"].parent_id == spans["request"].span_id
        assert spans["merge"].parent_id == spans["score"].span_id
        assert len(tracer.trace_ids()) == 1
        assert root.ctx[0] == score.ctx[0]

    def test_disabled_tracer_hands_out_null_spans(self):
        tracer = Tracer(enabled=False)
        span = tracer.begin("request")
        with tracer.activate(span):
            assert tracer.current is None
            with tracer.span("child"):
                pass
        span.finish()
        assert tracer.spans == []

    def test_ring_is_bounded(self):
        tracer = Tracer(enabled=True, capacity=4)
        for i in range(10):
            tracer.begin(f"s{i}").finish()
        assert [s.name for s in tracer.spans] == ["s6", "s7", "s8", "s9"]

    def test_chrome_trace_export(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.begin("request", user=7):
            with tracer.span("score"):
                pass
        path = tmp_path / "trace.json"
        assert tracer.export(str(path)) == 2
        import json

        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert {e["ph"] for e in events} == {"X"}
        root = next(e for e in events if e["name"] == "request")
        assert root["args"]["user"] == "7"
        assert root["args"]["parent_id"] == 0

    def test_span_ids_are_unique_across_threads(self):
        tracer = Tracer(enabled=True, capacity=100_000)

        def work():
            for _ in range(2000):
                with tracer.begin("request"):
                    with tracer.span("score"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans
        assert len(spans) == 32_000
        assert len({s.span_id for s in spans}) == 32_000
        assert len(tracer.trace_ids()) == 16_000
        assert tracer.current is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_salts_ids_with_its_own_pid(self):
        tracer = Tracer(enabled=True)
        tracer.begin("parent").finish()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report the salt and pid of a fresh record
            try:
                tracer.begin("child").finish()
                record = tracer.spans[-1]
                os.write(write_end, b"%d %d" % (record.span_id >> 40, record.pid))
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            salt, recorded_pid = map(int, reader.read().split())
        os.waitpid(pid, 0)
        assert recorded_pid == pid
        assert salt == pid & 0xFFFF
        parent = tracer.spans[0]
        assert parent.pid == os.getpid()
        assert parent.span_id >> 40 == os.getpid() & 0xFFFF


# --- server stats accumulation ----------------------------------------------


class TestServerStatsReset:
    def test_double_poll_cannot_double_count(self):
        with HyRecSystem(HyRecConfig(engine="vectorized"), seed=3) as system:
            system.replay(_random_trace(11, n=40))
            first = system.server.stats
            second = system.server.stats
            assert first == second

    def test_reset_rebases_deltas_not_counters(self):
        config = HyRecConfig(engine="vectorized", reshuffle_every=10)
        with HyRecSystem(config, seed=3) as system:
            system.replay(_random_trace(12, n=25))
            assert system.server.stats.online_requests == 25
            system.server.reset_stats()
            assert system.server.stats.online_requests == 0
            # The raw counter keeps accumulating: the reshuffle cadence
            # (online_requests % reshuffle_every) must not restart.
            reshuffles_before = system.server._reshuffles
            system.replay(_random_trace(13, n=5))
            assert system.server.stats.online_requests == 5
            assert system.server._online_requests == 30
            assert system.server._reshuffles == reshuffles_before + 1
            # /metrics keeps serving the raw monotone counter.
            text = metrics_text(system.server)
            assert "hyrec_online_requests_total 30" in text


# --- request stages on the default engine -----------------------------------


class TestRequestStageSpans:
    """``sample``/``render``/``score``/``respond`` from the program itself."""

    STAGES = ["sample", "render", "score", "respond"]

    @pytest.mark.parametrize("engine", ["vectorized", "python"])
    def test_every_request_has_one_span_per_stage(self, engine):
        system = HyRecSystem(HyRecConfig(engine=engine, tracing=True), seed=7)
        system.replay(_random_trace(31, n=60))
        tracer = system.server.obs.tracer
        tracer.reset()
        system.request(3, now=1e6)
        (spans,) = tracer.traces().values()
        (root,) = [span for span in spans if span.name == "request"]
        children = [span for span in spans if span is not root]
        assert [span.name for span in children] == self.STAGES  # finish order
        assert all(span.parent_id == root.span_id for span in children)
        # The stages are the request: consecutive, inside the root.
        assert sum(span.dur_us for span in children) <= root.dur_us
        for before, after in zip(children, children[1:]):
            assert before.start_us + before.dur_us <= after.start_us + 1

    def test_batch_members_get_their_own_stage_spans(self):
        system = HyRecSystem(HyRecConfig(tracing=True), seed=7)
        system.replay(_random_trace(32, n=60))
        tracer = system.server.obs.tracer
        tracer.reset()
        system.request_batch([1, 2, 3], now=1e6)
        traces = tracer.traces()
        assert len(traces) == 3
        for spans in traces.values():
            (root,) = [span for span in spans if span.name == "request"]
            staged = sorted(
                span.name for span in spans if span.parent_id == root.span_id
            )
            assert staged == sorted(self.STAGES)

    def test_tracing_off_records_nothing(self):
        system = HyRecSystem(HyRecConfig(), seed=7)
        system.replay(_random_trace(33, n=30))
        system.request_batch([1, 2], now=1e6)
        assert system.server.obs.tracer.spans == []


# --- cross-process trace propagation ----------------------------------------


class TestTracePropagation:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_one_stitched_trace_per_request(self, num_shards):
        import os

        config = HyRecConfig(
            engine="sharded",
            num_shards=num_shards,
            executor="process",
            tracing=True,
        )
        with HyRecSystem(config, seed=7) as system:
            system.replay(_random_trace(21, n=60))
            tracer = system.server.obs.tracer
            tracer.reset()
            system.request(3, now=1e6)
            traces = tracer.traces()
            assert len(traces) == 1, "one request must be one trace"
            (spans,) = traces.values()
            by_name = {}
            for span in spans:
                by_name.setdefault(span.name, []).append(span)
            # The coordinator-side lifecycle is fully covered.
            for name in ("request", "scatter", "score", "merge", "respond"):
                assert name in by_name, f"missing {name} span"
            root = by_name["request"][0]
            assert root.parent_id == 0
            # Every span belongs to the root's trace and every parent
            # id resolves within the trace (correct parenting).
            ids = {s.span_id for s in spans}
            for span in spans:
                assert span.trace_id == root.trace_id
                if span.parent_id:
                    assert span.parent_id in ids
            # Worker-side score spans: measured in other processes,
            # parented under the coordinator's score span.
            score_id = by_name["score"][0].span_id
            worker_spans = [
                s for s in spans if s.name.startswith("shard") and ":score" in s.name
            ]
            assert worker_spans, "no worker score spans were stitched in"
            for span in worker_spans:
                assert span.pid != os.getpid()
                assert span.parent_id == score_id

    def test_tracing_off_yields_zero_spans(self):
        config = HyRecConfig(
            engine="sharded", num_shards=2, executor="process", tracing=False
        )
        with HyRecSystem(config, seed=7) as system:
            system.replay(_random_trace(22, n=30))
            system.request(1, now=1e6)
            assert system.server.obs.tracer.spans == []

    def test_untraced_job_slices_produce_no_span_frames(self):
        # Worker side of the neutrality contract: a frame with no
        # trace stamp must come back with an empty span tuple even on
        # a metrics-enabled host.
        host = ShardHost(0)
        host.handle(Hello(shard=0, num_shards=1, flags=1))
        reply = host.handle(
            JobSlices(batch_id=1, truncate=True, slices=(), map_version=0)
        )
        assert reply.spans == ()


# --- worker metrics over the wire -------------------------------------------


class TestWorkerMetricsSnapshot:
    def test_host_registry_gated_by_hello_flag(self):
        host = ShardHost(1)
        assert not host.registry.enabled  # bare hosts carry inert instruments
        host.handle(Hello(shard=1, num_shards=2, flags=1))
        assert host.registry.enabled
        host.handle(
            JobSlices(batch_id=0, truncate=True, slices=(), map_version=0)
        )
        reply = host.handle(MetricsRequest())
        samples = {(s.name, s.labels): s for s in reply.samples}
        assert samples[("hyrec_shard_batches_total", 'shard=1')].values[0] == 1.0

    def test_cluster_snapshot_merges_worker_series(self):
        config = HyRecConfig(
            engine="sharded", num_shards=4, executor="process"
        )
        with HyRecSystem(config, seed=9) as system:
            system.replay(_random_trace(31, n=50))
            samples = {
                (s.name, s.labels): s
                for s in system.server.cluster.metrics_samples()
            }
            total_jobs = sum(
                sample.value
                for (name, _), sample in samples.items()
                if name == "hyrec_shard_jobs_total"
            )
            assert total_jobs > 0
            # Writes were routed to workers and counted there.
            assert any(
                name == "hyrec_shard_writes_total" and sample.value > 0
                for (name, _), sample in samples.items()
            )

    def test_in_process_shard_series_match_process_series(self):
        # The same replay must book the same per-shard job counts
        # whether the shards are in-process or worker processes --
        # the counters describe the workload, not the executor.
        totals = {}
        for executor in ("serial", "process"):
            config = HyRecConfig(
                engine="sharded", num_shards=2, executor=executor
            )
            with HyRecSystem(config, seed=13) as system:
                system.replay(_random_trace(41, n=40))
                if executor == "serial":
                    samples = system.server.obs.registry.snapshot()
                else:
                    samples = system.server.cluster.metrics_samples()
                totals[executor] = {
                    s.labels: s.value
                    for s in samples
                    if s.name == "hyrec_shard_jobs_total"
                }
        assert totals["serial"] == totals["process"]


# --- events & slow requests --------------------------------------------------


class TestEvents:
    def test_rolling_restart_and_recovery_events(self):
        config = HyRecConfig(
            engine="sharded", num_shards=2, executor="process"
        )
        with HyRecSystem(config, seed=5) as system:
            system.replay(_random_trace(51, n=30))
            system.server.cluster.executor.rolling_restart()
            events = system.server.obs.events
            assert events.counts().get("rolling_restart") == 1
            (record,) = events.records("rolling_restart")
            assert record.get("workers") == "2"

    def test_migration_event_recorded(self):
        config = HyRecConfig(engine="sharded", num_shards=2)
        with HyRecSystem(config, seed=5) as system:
            system.replay(_random_trace(52, n=30))
            cluster = system.server.cluster
            bucket = cluster.placement.buckets_owned_by(0)[0]
            cluster.migrate_bucket(bucket, 1)
            events = system.server.obs.events
            assert events.counts().get("bucket_migration") == 1
            (record,) = events.records("bucket_migration")
            assert record.get("target") == "1"

    def test_slow_request_logged_without_tracing(self):
        # Threshold of ~0: every request is "slow".  Independent of
        # the tracer, which stays off here.
        config = HyRecConfig(engine="vectorized", slow_request_ms=1e-6)
        with HyRecSystem(config, seed=5) as system:
            system.replay(_random_trace(53, n=5))
            events = system.server.obs.events
            assert events.counts().get("slow_request") == 5
            assert system.server.obs.tracer.spans == []


    def test_cold_postings_rebuild_lands_in_the_event_log(self):
        # The one slow request after a bulk load must be explainable
        # from the log alone: the default engine's matrix reports there.
        with HyRecSystem(HyRecConfig(engine="vectorized"), seed=5) as system:
            system.replay(_random_trace(54, n=40))
            events = system.server.obs.events
            assert events.counts().get("postings_rebuild") is None
            item = next(iter(system.server.profiles.get(0)))
            system.server.liked_matrix.posting(item)
            (record,) = events.records("postings_rebuild")
            assert float(record.get("duration_ms")) >= 0.0


# --- exposition --------------------------------------------------------------


class TestMetricsEndpoint:
    def test_prometheus_rendering_shape(self):
        registry = MetricsRegistry()
        registry.counter("hyrec_jobs_total").inc(4)
        h = registry.histogram("hyrec_lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE hyrec_jobs_total counter" in text
        assert "hyrec_jobs_total 4" in text
        # Cumulative buckets, +Inf included, _sum/_count alongside.
        assert 'hyrec_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'hyrec_lat_seconds_bucket{le="1"} 2' in text
        assert 'hyrec_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "hyrec_lat_seconds_count 3" in text

    def test_metrics_endpoint_serves_shard_series(self):
        from repro.core.server import HyRecServer
        from repro.web import AsyncHyRecServer

        config = HyRecConfig(engine="sharded", num_shards=2, executor="serial")
        server = HyRecServer(config, seed=2)
        for rating in _random_trace(61, n=40):
            server.record_rating(
                rating.user, rating.item, rating.value, rating.timestamp
            )
        http_server = AsyncHyRecServer(server)
        try:
            port = http_server.start()
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/online/?uid=1"
            ).read()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics"
            ) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                text = response.read().decode("utf-8")
            assert "# TYPE hyrec_online_requests_total counter" in text
            assert "hyrec_online_requests_total 1" in text
            assert 'hyrec_wire_bytes_total{channel="server->client"}' in text
        finally:
            http_server.stop()
            server.close()

    def test_metrics_endpoint_reaches_worker_processes(self):
        from repro.core.server import HyRecServer
        from repro.web import AsyncHyRecServer

        config = HyRecConfig(
            engine="sharded", num_shards=2, executor="process"
        )
        server = HyRecServer(config, seed=2)
        for rating in _random_trace(62, n=40):
            server.record_rating(
                rating.user, rating.item, rating.value, rating.timestamp
            )
        http_server = AsyncHyRecServer(server)
        try:
            port = http_server.start()
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/online/?uid=1"
            ).read()
            text = (
                urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics")
                .read()
                .decode("utf-8")
            )
            # Series sampled inside the worker processes show up.
            assert "# TYPE hyrec_shard_writes_total counter" in text
            assert 'hyrec_shard_writes_total{shard="0"}' in text
            assert 'hyrec_shard_writes_total{shard="1"}' in text
        finally:
            http_server.stop()
            server.close()

    def test_disabled_metrics_serve_empty_exposition(self):
        config = HyRecConfig(engine="vectorized", metrics_enabled=False)
        with HyRecSystem(config, seed=2) as system:
            system.replay(_random_trace(63, n=10))
            assert metrics_text(system.server) == ""


# --- parity with every knob on ----------------------------------------------


class TestObservabilityIsExactnessNeutral:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_full_obs_replay_matches_bare_vectorized(self, executor):
        trace = _random_trace(71, users=25, items=70, n=150)
        digests = []
        for config in (
            HyRecConfig(engine="vectorized", metrics_enabled=False),
            HyRecConfig(
                engine="sharded",
                num_shards=4,
                executor=executor,
                metrics_enabled=True,
                tracing=True,
                slow_request_ms=0.001,
            ),
        ):
            with HyRecSystem(config, seed=17) as system:
                outcomes: list = []
                system.replay(trace, on_request=outcomes.append)
                digests.append(
                    {
                        "results": [
                            (
                                o.result.neighbor_tokens,
                                o.result.neighbor_scores,
                                o.result.recommended_items,
                                o.recommendations,
                            )
                            for o in outcomes
                        ],
                        "knn": system.server.knn_table.as_dict(),
                        "wire": {
                            channel: system.server.meter.reading(channel)
                            for channel in (
                                "server->client",
                                "client->server",
                            )
                        },
                    }
                )
        assert digests[0] == digests[1], (
            "observability must never change results or wire bytes"
        )


class TestObservabilityCli:
    def test_dump_runs_end_to_end(self, capsys, tmp_path):
        from repro.obs.dump import main

        trace_out = tmp_path / "trace.json"
        code = main(
            [
                "--dataset",
                "ML1",
                "--scale",
                "0.002",
                "--executor",
                "serial",
                "--shards",
                "2",
                "--requests",
                "4",
                "--tracing",
                "--trace-out",
                str(trace_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE hyrec_requests_total counter" in out
        assert trace_out.exists()
