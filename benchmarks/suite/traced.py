"""The traced run: per-layer metrics of one workload, measured from outside.

The program is hosted in this process.  The suite owns a
``repro.obs.tracing.Tracer`` and, for the one traced window, sets timing
wrappers on the public methods at each layer boundary (instance
attributes, so no file under ``src/`` changes and ``restore`` leaves the
objects as they were).  Each wrapper opens a span named after ROADMAP
item 1's stage taxonomy and books the call's duration and counts at the
same boundary.  One root ``request`` span per request comes from the
load generator.  Spans stay in memory and are exported when the window
ends; a span's self time is its duration minus its children's.

Per-layer numbers come only from this run, end-to-end numbers only from
the untraced one.  Every window is run once without the wrappers first:
the difference in ``rps`` is ``trace.overhead_pct``.

Like every other measurement of the suite this one gets a fresh
interpreter: ``run.py`` calls :func:`spawn_traced`, which runs this file
as a script and reads the result as one JSON line.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro.core.tables import ProfileTable
from repro.engine.kernels import similarity_scores
from repro.engine.liked_matrix import LikedMatrix
from repro.obs.tracing import SpanRecord, Tracer

import program
from loadgen import HttpLoad, InprocLoad
from spec import FULL, SMOKE, Sizes
from stats import percentile

#: (attribute of the object named in the first column, span, metric).
SERVER_CALLS = (
    ("handle_engine_request", "sample", "server.sample_us"),
    ("handle_online_request", "sample", "server.sample_us"),
    ("render_engine_response", "render", "server.render_us"),
    ("render_online_response", "render", "server.render_us"),
    ("handle_knn_update", "respond", "server.knn_update_us"),
)
WIDGET_CALLS = (("process_engine_job", "score", "widget.job_us"),)
API_CALLS = (
    ("online", "api", "api.online_us"),
    ("neighbors_from_body", "api", "api.neighbors_us"),
)
CACHE_CALLS = (
    ("get", "cache", "cache.get_us"),
    ("put", "cache", "cache.put_us"),
    ("invalidate", "cache", "cache.invalidate_us"),
)


def rss_bytes() -> int:
    """Current (not peak) resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Layers:
    """The suite's tracer plus the durations and counts booked beside it."""

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=True, capacity=1 << 18)
        self.us: dict[str, list[float]] = defaultdict(list)
        self.candidates: list[int] = []
        #: uid -> root span context of the request in flight for that
        #: user.  Server threads have no active span of their own, so a
        #: wrapper called there with a uid finds its parent here.  Two
        #: concurrent requests for one uid share the later root.
        self.roots: dict[int, tuple[int, int]] = {}
        self._wrapped: list[tuple[object, str]] = []

    def instrument(self, target: object, calls: tuple) -> None:
        for attribute, stage, metric in calls:
            self._wrap(target, attribute, stage, metric)

    def timed(
        self, stage: str, metric: str, call: Callable, *args, parent=None, **kwargs
    ):
        """``call(*args, **kwargs)`` under a ``stage`` span, its duration
        booked under ``metric``."""
        with self.tracer.span(stage, parent=parent, call=call.__name__):
            start = time.perf_counter_ns()
            result = call(*args, **kwargs)
            self.us[metric].append((time.perf_counter_ns() - start) / 1e3)
        return result

    def _wrap(self, target: object, attribute: str, stage: str, metric: str) -> None:
        original = getattr(target, attribute)

        def wrapper(*args, **kwargs):
            parent = self.tracer.current
            if parent is None and args and type(args[0]) is int:
                parent = self.roots.get(args[0])
            result = self.timed(
                stage, metric, original, *args, parent=parent, **kwargs
            )
            if stage == "sample":
                self.candidates.append(result.candidate_count())
            return result

        setattr(target, attribute, wrapper)
        self._wrapped.append((target, attribute))

    def restore(self) -> None:
        while self._wrapped:
            target, attribute = self._wrapped.pop()
            delattr(target, attribute)

    # --- root spans, opened and closed by the load generator ----------------

    def begin_request(self, uid: int):
        span = self.tracer.begin("request", user=uid)
        self.roots[uid] = span.ctx
        return uid, span

    def end_request(self, token) -> None:
        uid, span = token
        span.finish()
        if self.roots.get(uid) == span.ctx:
            del self.roots[uid]


def self_times(spans: list[SpanRecord]) -> dict[str, list[int]]:
    """Self time (us) of every span, grouped by span name."""
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        children[span.parent_id] += span.dur_us
    grouped: dict[str, list[int]] = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span.dur_us - children.get(span.span_id, 0))
    return grouped


def coverage_check(spans: list[SpanRecord]) -> dict:
    """Stage self times must add up to the root span, within a tenth."""
    requests = {span.trace_id for span in spans if span.name == "request"}
    own = self_times([span for span in spans if span.trace_id in requests])
    roots = sum(span.dur_us for span in spans if span.name == "request")
    staged = sum(sum(times) for name, times in own.items() if name != "request")
    share = staged / roots if roots else 0.0
    return {
        "name": "stages_cover_request",
        "ok": share >= 0.9,
        "detail": f"stage self times sum to {share:.1%} of the root request spans",
    }


def client_metrics(window: dict, opened: dict) -> dict[str, float]:
    """Validity of the run: tails (0 when fewer than ten samples lie
    beyond them), generator lag, failures, missed latency limits."""
    latencies = sorted(window["latencies_ms"])
    return {
        "client.p95_ms": percentile(latencies, 0.95) or 0.0,
        "client.p99_ms": percentile(latencies, 0.99) or 0.0,
        "client.p999_ms": percentile(latencies, 0.999) or 0.0,
        "client.open_p95_ms": percentile(sorted(opened["latencies_ms"]), 0.95) or 0.0,
        "client.gen_lag_p95_ms": percentile(sorted(opened["lags_ms"]), 0.95) or 0.0,
        "client.n_samples": len(latencies),
        "client.failed_share": (window["failed"] + opened["failed"])
        / (window["ops"] + opened["ops"]),
        "client.late_share": opened["late"] / opened["ops"],
    }


def deployment_metrics(system) -> dict[str, float]:
    """Counts read off the deployment once its windows are over."""
    memory = system.server.liked_matrix.memory_stats()
    sent = system.server.meter.reading("server->client")
    return {
        "matrix.arena_live": memory["arena_live"],
        "matrix.arena_capacity": memory["arena_capacity"],
        "matrix.evictions": memory["evictions"],
        "messages.compress_ratio": sent.raw_bytes / sent.wire_bytes
        if sent.wire_bytes
        else 0.0,
    }


def measured_load(sizes: Sizes):
    """Load the population; returns the system and the resident bytes
    the load added per user.  Only meaningful for the first load of a
    process: later ones reuse memory the allocator already holds."""
    before = rss_bytes()
    system, _ = program.load(sizes)
    return system, (rss_bytes() - before) / system.server.num_users


def probe_kernels(layers: Layers, system, jobs: list) -> None:
    """Replay each job's scoring steps one public call at a time.

    The matrix only changes on writes, so the probes see exactly what
    the request saw; they run after the window so they cost it nothing.
    """
    matrix = system.server.liked_matrix
    for job in jobs:
        with layers.tracer.span("probe", user=job.user_id):
            user_cols = matrix.liked_row(job.user_id)
            indices, indptr, sizes = layers.timed(
                "gather", "matrix.gather_us", matrix.gather_liked, job.candidate_ids
            )
            inter = layers.timed(
                "intersect",
                "matrix.intersect_us",
                matrix.intersections_auto,
                user_cols,
                job.candidate_ids,
                indices,
                indptr,
            )
            layers.timed(
                "score_kernel",
                "kernels.score_us",
                similarity_scores,
                job.metric,
                inter,
                float(user_cols.size),
                sizes,
            )


def traced_inproc_window(
    layers: Layers, system, users: list[int], rate: float | None = None
) -> tuple[dict, list]:
    """One window of ``system.request`` under root spans; returns the
    window and the jobs it served."""
    jobs: list = []

    def traced_request(uid: int):
        token = layers.begin_request(uid)
        with layers.tracer.activate(token[1]):
            outcome = system.request(uid)
        layers.end_request(token)
        jobs.append(outcome.job)
        return outcome

    return InprocLoad(system, traced_request).run(users, rate), jobs


def set_up(seed: int, sizes: Sizes):
    """The same set-up ``host.py`` does, in this process."""
    system, per_user = measured_load(sizes)
    cold_users = program.largest_profiles(system, sizes.cold_wave, seed)
    InprocLoad(system).run(cold_users)
    pool = program.draw_pool(system, sizes, seed)
    bodies = program.warm(system, pool)
    return system, pool, bodies, {"table.rss_bytes_per_user": per_user}


def run_inproc(seed: int, sizes: Sizes) -> tuple[Layers, dict, list[dict], dict]:
    workload = "inproc_serve"
    system, pool, _, metrics = set_up(seed, sizes)
    window, rate = sizes.window[workload], sizes.open_rate[workload]
    ops = program.operations(workload, seed, pool)
    load = InprocLoad(system)
    load.run(ops(0, window))  # discarded
    untraced = load.run(ops(1, window))
    layers = Layers()
    layers.instrument(system.server, SERVER_CALLS)
    layers.instrument(system.widget, WIDGET_CALLS)
    try:
        traced, jobs = traced_inproc_window(layers, system, ops(2, window))
        opened, _ = traced_inproc_window(
            layers, system, ops(3, sizes.open_window[workload]), rate
        )
    finally:
        layers.restore()
    checks = [coverage_check(layers.tracer.spans)]
    probe_kernels(layers, system, jobs)
    metrics.update(deployment_metrics(system))
    system.close()
    return layers, metrics, checks, {"untraced": untraced, "traced": traced, "open": opened}


@contextlib.contextmanager
def wrapped_front_door(layers: Layers, server, front):
    """Wrappers on the server, ``front.api`` and ``front.cache`` for the
    length of the block.

    The cache's ``invalidate`` is subscribed to the server as a bound
    method, so the subscription is taken off and put on again around each
    change: it then resolves to the wrapper, and afterwards to the method.
    """

    def rewire(change: Callable[[], None]) -> None:
        server.remove_user_write_listener(front.cache.invalidate)
        change()
        server.add_user_write_listener(front.cache.invalidate)

    def wrap() -> None:
        layers.instrument(server, SERVER_CALLS)
        layers.instrument(front.api, API_CALLS)
        layers.instrument(front.cache, CACHE_CALLS)

    rewire(wrap)
    try:
        yield
    finally:
        rewire(layers.restore)


def run_http(workload: str, seed: int, sizes: Sizes) -> tuple[Layers, dict, list[dict], dict]:
    system, pool, bodies, metrics = set_up(seed, sizes)
    window, rate = sizes.window[workload], sizes.open_rate[workload]
    ops = program.operations(
        workload, seed, pool, [bodies[uid] for uid in pool], program.by_activity(system)
    )
    front = program.front_door(system)
    port = front.start()
    layers = Layers()
    load = HttpLoad("127.0.0.1", port)
    try:
        warm_up = load.run(ops(0, window))  # discarded
        untraced = load.run(ops(1, window))
        cache_before = front.cache.stats
        with wrapped_front_door(layers, system.server, front):
            load.on_send, load.on_done = layers.begin_request, layers.end_request
            traced = load.run(ops(2, window))
            opened = load.run(ops(3, sizes.open_window[workload]), rate)
            load.on_send = load.on_done = None
        cache_after = front.cache.stats
        stats = load.finish()
        metrics.update(deployment_metrics(system))
    finally:
        load.close()
        front.stop()
        system.close()

    sent = (warm_up, untraced, traced, opened)
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses
    metrics.update(
        {
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.evictions": cache_after.evictions - cache_before.evictions,
            "cache.invalidations": cache_after.invalidations
            - cache_before.invalidations,
            "http.overhead_ms": statistics.median(
                self_times(layers.tracer.spans)["request"]
            )
            / 1e3,
            "http.shed": stats["shed_requests"],
            "http.errors": sum(
                result["transport_errors"]
                + sum(n for status, n in result["statuses"].items() if status != 200)
                for result in sent
            ),
        }
    )
    client_shed = sum(result["statuses"].get(503, 0) for result in sent)
    checks = [
        {
            "name": "client_and_stats_agree",
            "ok": client_shed == stats["shed_requests"],
            "detail": f"shed client {client_shed} / server {stats['shed_requests']}",
        }
    ]
    return layers, metrics, checks, {"untraced": untraced, "traced": traced, "open": opened}


def write_path_probes(layers: Layers, sizes: Sizes) -> dict[str, float]:
    """``ProfileTable.record`` bare and with the matrix listener, per
    chunk of the stream; then the first ``posting`` read after the load."""
    loader = program.loader_for(sizes)
    tracer = layers.tracer

    def ingest(table: ProfileTable, name: str) -> list[float]:
        per_write = []
        for users, items, values, stamps in loader.chunks():
            rows = list(
                zip(users.tolist(), items.tolist(), values.tolist(), stamps.tolist())
            )
            record = table.record
            with tracer.span(name, writes=len(rows)):
                start = time.perf_counter_ns()
                for user, item, value, stamp in rows:
                    record(user, item, value, stamp)
                per_write.append((time.perf_counter_ns() - start) / 1e3 / len(rows))
        return per_write

    bare = ingest(ProfileTable(), "table_record")
    table = ProfileTable()
    matrix = LikedMatrix(table)
    mirrored = ingest(table, "table_record+matrix")
    first_item = int(next(iter(table.get(next(iter(table))))))
    with tracer.span("postings_rebuild"):
        start = time.perf_counter_ns()
        matrix.posting(first_item)
        rebuild_ms = (time.perf_counter_ns() - start) / 1e6
    layers.us["table.record_us_per_write"] = bare
    layers.us["matrix.on_record_us_per_write"] = [
        with_matrix - alone for with_matrix, alone in zip(mirrored, bare)
    ]
    return {"matrix.postings_rebuild_ms": rebuild_ms}


def run_cold(seed: int, sizes: Sizes) -> tuple[Layers, dict, list[dict], dict]:
    workload = "cold_ingest"
    rate = sizes.open_rate[workload]
    # Untraced twin first: a cold wave cannot be repeated on one system.
    system, per_user = measured_load(sizes)
    cold_users = program.largest_profiles(system, sizes.cold_wave, seed)
    untraced = InprocLoad(system).run(cold_users)
    system.close()
    del system

    layers = Layers()
    with layers.tracer.span("ingest", writes=sizes.writes):
        system, _ = program.load(sizes)
    metrics = {"table.rss_bytes_per_user": per_user}
    layers.instrument(system.server, SERVER_CALLS)
    layers.instrument(system.widget, WIDGET_CALLS)
    try:
        traced, jobs = traced_inproc_window(layers, system, cold_users)
        opened, _ = traced_inproc_window(layers, system, cold_users, rate)
    finally:
        layers.restore()
    checks = [coverage_check(layers.tracer.spans)]
    probe_kernels(layers, system, jobs)
    metrics.update(deployment_metrics(system))
    system.close()
    del system
    metrics.update(write_path_probes(layers, sizes))
    return layers, metrics, checks, {"untraced": untraced, "traced": traced, "open": opened}


def run_traced(workload: str, seed: int, sizes: Sizes, out: str | None) -> dict:
    """Every per-layer metric of one workload (0 where the layer is not
    on the workload's path), its checks and, with ``out``, its trace."""
    if workload.startswith("http"):
        layers, metrics, checks, windows = run_http(workload, seed, sizes)
    elif workload == "cold_ingest":
        layers, metrics, checks, windows = run_cold(seed, sizes)
    else:
        layers, metrics, checks, windows = run_inproc(seed, sizes)
    untraced, traced, opened = windows["untraced"], windows["traced"], windows["open"]
    for name, samples in layers.us.items():
        metrics[name] = statistics.median(samples)
    if layers.candidates:
        metrics["server.candidates_per_req"] = statistics.fmean(layers.candidates)
    plain = untraced["ops"] / untraced["elapsed_s"]
    metrics["trace.overhead_pct"] = (
        (plain - traced["ops"] / traced["elapsed_s"]) / plain * 100.0
    )
    metrics.update(client_metrics(traced, opened))
    measured = [traced, opened]
    result = {
        "workload": workload,
        "metrics": metrics,
        "stages": {
            name: {
                "n": len(times),
                "median_self_us": statistics.median(times),
                "total_self_ms": sum(times) / 1e3,
            }
            for name, times in sorted(self_times(layers.tracer.spans).items())
        },
        "windows": windows,
        "attempted": sum(window["ops"] for window in measured),
        "failed": sum(window["failed"] for window in measured),
        "checks": checks,
    }
    if out is not None:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"trace-{workload}.json")
        result["trace_file"] = path
        result["spans"] = layers.tracer.export(path)
    return result


def spawn_traced(workload: str, seed: int, smoke: bool, out: str | None) -> dict:
    """:func:`run_traced` in a fresh interpreter."""
    request = {"workload": workload, "seed": seed, "smoke": smoke, "out": out}
    done = subprocess.run(
        [sys.executable, __file__, json.dumps(request)],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


if __name__ == "__main__":
    params = json.loads(sys.argv[1])
    print(
        json.dumps(
            run_traced(
                params["workload"],
                params["seed"],
                SMOKE if params["smoke"] else FULL,
                params["out"],
            )
        )
    )
