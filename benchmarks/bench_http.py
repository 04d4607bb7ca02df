"""End-to-end HTTP benchmark: the full stack over real sockets.

Run directly (writes ``BENCH_http.json`` next to the repo root so the
perf trajectory is tracked across PRs)::

    PYTHONPATH=src python benchmarks/bench_http.py
    PYTHONPATH=src python benchmarks/bench_http.py --quick
    PYTHONPATH=src python benchmarks/bench_http.py --smoke

Every prior benchmark measures an engine in-process; this one drives
the deployment the way the paper's Table 1 / Figure 10 deployment was
driven -- browsers hitting a web frontend -- through the asyncio front
door (:mod:`repro.web.async_server`): TCP, HTTP/1.1 keep-alive,
admission control, the L1 response cache, gzip bodies, wire metering.

Three scenarios:

1. **Closed-loop sweep** (the ``ab -c C`` shape): ``concurrency``
   looping workers per point, cache off (``cache_ttl=0``, every
   response exact) vs cache on (``cache_ttl=30``), recording
   p50/p95/p99 latency, throughput, cache hit rate, and shed rate.
   Headline check: at every concurrency level, cache-on p50 must beat
   cache-off p50 at the same offered load -- the multi-layer cache has
   to pay for itself end to end, not just in microbenchmarks.

2. **Open-loop points**: fixed arrival rates (fractions/multiples of
   the measured closed-loop capacity) fired on a schedule regardless
   of completions, latency measured from the scheduled send time --
   the arrival process that actually overloads servers.

3. **Shed**: the tightest admission bound (``http_max_pending=0``:
   whatever arrives while the engine lane is busy is shed) hammered
   by 8 closed-loop workers; asserts the front door sheds with ``503``
   rather than queueing unboundedly, and that the server's shed
   counter matches the client's count of 503s exactly.

``--smoke`` runs a seconds-long version of all three and validates the
report schema -- the CI gate.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.core.config import HyRecConfig
from repro.core.server import HyRecServer
from repro.sim.randomness import derive_rng
from repro.web import AsyncHyRecServer, HttpLoadDriver, fetch_stats

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_http.json"

CACHE_TTL_ON = 30.0


def build_server(
    num_users: int,
    profile_size: int,
    catalog: int,
    k: int,
    cache_ttl: float,
    engine: str,
    num_shards: int,
    executor: str,
    seed: int = 0,
) -> HyRecServer:
    """A server preloaded with fixed-size profiles and random KNN rows.

    Fresh per measurement point: the response cache, wire meters, and
    RNG streams all start from the same state, so points differ only
    in the knob under test.
    """
    rng = derive_rng(seed, "http-population")
    server = HyRecServer(
        HyRecConfig(
            k=k,
            r=10,
            engine=engine,
            num_shards=num_shards,
            executor=executor,
            cache_ttl=cache_ttl,
        ),
        seed=seed,
    )
    for user in range(num_users):
        for item in rng.sample(range(catalog), profile_size):
            value = 1.0 if rng.random() < 0.8 else 0.0
            server.record_rating(user, item, value, timestamp=0.0)
    users = list(range(num_users))
    for user in users:
        neighbors = [n for n in rng.sample(users, k + 1) if n != user][:k]
        server.knn_table.update(user, neighbors)
    return server


def run_point(
    args: argparse.Namespace,
    cache_ttl: float,
    concurrency: int,
    requests: int,
) -> dict:
    """One closed-loop measurement on a fresh deployment."""
    server = build_server(
        args.users,
        args.profile_size,
        args.catalog,
        args.k,
        cache_ttl,
        args.engine,
        args.shards,
        args.executor,
    )
    front = AsyncHyRecServer(server)
    try:
        front.start()
        driver = HttpLoadDriver(front.url, list(range(args.users)))
        result = driver.run_closed(requests=requests, concurrency=concurrency)
        stats = fetch_stats(front.url)
    finally:
        front.stop()
        server.close()
    lookups = stats["cache_hits"] + stats["cache_misses"]
    return {
        "cache": "on" if cache_ttl > 0 else "off",
        "cache_ttl_s": cache_ttl,
        "concurrency": concurrency,
        "requests": result.requests,
        "ok": result.ok,
        "errors": result.errors,
        "shed": result.shed,
        "shed_rate": result.shed_rate,
        "throughput_rps": result.throughput_rps,
        "p50_ms": result.p50_ms,
        "p95_ms": result.p95_ms,
        "p99_ms": result.p99_ms,
        "mean_ms": result.mean_ms,
        "cache_hit_rate": (
            stats["cache_hits"] / lookups if lookups else 0.0
        ),
        "online_requests_served_by_engine": stats["online_requests"],
        "wire_bytes": stats["wire_bytes"],
    }


def run_open_points(
    args: argparse.Namespace, capacity_rps: float, duration_s: float
) -> list[dict]:
    """Open-loop arrivals below and above the measured capacity."""
    points = []
    for factor in (0.5, 1.5):
        rps = max(5.0, capacity_rps * factor)
        server = build_server(
            args.users,
            args.profile_size,
            args.catalog,
            args.k,
            0.0,
            args.engine,
            args.shards,
            args.executor,
        )
        front = AsyncHyRecServer(server)
        try:
            front.start()
            driver = HttpLoadDriver(front.url, list(range(args.users)))
            result = driver.run_open(
                rps=rps, duration_s=duration_s, workers=args.open_workers
            )
            stats = fetch_stats(front.url)
        finally:
            front.stop()
            server.close()
        points.append(
            {
                "offered_rps": rps,
                "offered_vs_capacity": factor,
                "achieved_rps": result.throughput_rps,
                "requests": result.requests,
                "ok": result.ok,
                "shed": result.shed,
                "shed_rate": result.shed_rate,
                "errors": result.errors,
                "p50_ms": result.p50_ms,
                "p95_ms": result.p95_ms,
                "p99_ms": result.p99_ms,
                "server_shed_requests": stats["shed_requests"],
            }
        )
    return points


def run_shed_scenario(args: argparse.Namespace, requests: int) -> dict:
    """Tiny admission bound under closed-loop pressure: sheds, exactly."""
    server = build_server(
        args.users,
        args.profile_size,
        args.catalog,
        args.k,
        0.0,
        args.engine,
        args.shards,
        args.executor,
    )
    front = AsyncHyRecServer(server, max_pending=0)
    try:
        front.start()
        driver = HttpLoadDriver(front.url, list(range(args.users)))
        result = driver.run_closed(requests=requests, concurrency=8)
        stats = fetch_stats(front.url)
    finally:
        front.stop()
        server.close()
    assert result.errors == 0, f"transport errors during shed run: {result.errors}"
    assert stats["shed_requests"] == result.shed, (
        "server shed counter disagrees with observed 503s: "
        f"{stats['shed_requests']} vs {result.shed}"
    )
    return {
        "max_pending": 0,
        "concurrency": 8,
        "requests": result.requests,
        "ok": result.ok,
        "shed": result.shed,
        "shed_rate": result.shed_rate,
        "server_shed_requests": stats["shed_requests"],
        "p50_ok_ms": result.p50_ms,
    }


def check_cache_wins(closed_loop: list[dict]) -> dict:
    """Cache-on p50 strictly better than cache-off at equal concurrency."""
    by_key: dict[tuple[int, str], dict] = {
        (point["concurrency"], point["cache"]): point for point in closed_loop
    }
    comparisons = []
    passed = True
    for concurrency in sorted({p["concurrency"] for p in closed_loop}):
        off = by_key[(concurrency, "off")]
        on = by_key[(concurrency, "on")]
        better = on["p50_ms"] < off["p50_ms"]
        passed = passed and better
        comparisons.append(
            {
                "concurrency": concurrency,
                "p50_ms_cache_off": off["p50_ms"],
                "p50_ms_cache_on": on["p50_ms"],
                "speedup": (
                    off["p50_ms"] / on["p50_ms"] if on["p50_ms"] > 0 else 0.0
                ),
                "cache_on_hit_rate": on["cache_hit_rate"],
                "passed": better,
            }
        )
    return {"passed": passed, "comparisons": comparisons}


def validate_report(report: dict) -> None:
    """The BENCH_http.json schema contract (the CI smoke gate)."""
    for key in ("meta", "closed_loop", "open_loop", "shed", "checks"):
        assert key in report, f"report missing {key!r}"
    meta = report["meta"]
    for key in ("mode", "cores", "engine", "executor", "users"):
        assert key in meta, f"meta missing {key!r}"
    closed = report["closed_loop"]
    assert len({p["concurrency"] for p in closed}) >= 2, (
        "closed-loop sweep needs at least two concurrency levels"
    )
    assert {p["cache"] for p in closed} == {"on", "off"}, (
        "closed-loop sweep needs both cache on and cache off points"
    )
    point_keys = {
        "cache",
        "concurrency",
        "requests",
        "ok",
        "errors",
        "shed",
        "throughput_rps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "cache_hit_rate",
    }
    for point in closed:
        missing = point_keys - set(point)
        assert not missing, f"closed-loop point missing {sorted(missing)}"
        assert point["errors"] == 0, f"transport errors in {point}"
    for point in report["open_loop"]:
        for key in ("offered_rps", "achieved_rps", "shed_rate", "p50_ms"):
            assert key in point, f"open-loop point missing {key!r}"
    shed = report["shed"]
    assert shed["server_shed_requests"] == shed["shed"], (
        "shed counter mismatch in shed scenario"
    )
    checks = report["checks"]
    assert checks["cache_on_p50_better"]["passed"], (
        "cache-on p50 did not beat cache-off: "
        f"{checks['cache_on_p50_better']['comparisons']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller sweep")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long run that still validates the report schema (CI)",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--profile-size", type=int, default=40)
    parser.add_argument("--catalog", type=int, default=2000)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument(
        "--engine",
        choices=("python", "vectorized", "sharded"),
        default="vectorized",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--executor", choices=("serial", "thread", "process"), default="serial"
    )
    parser.add_argument("--open-workers", type=int, default=32)
    parser.add_argument(
        "--output", type=pathlib.Path, default=REPORT_PATH
    )
    args = parser.parse_args(argv)

    if args.smoke:
        mode, users, requests, levels, open_s = "smoke", 60, 240, (2, 4), 1.0
    elif args.quick:
        mode, users, requests, levels, open_s = "quick", 120, 600, (2, 8), 2.0
    else:
        mode, users, requests, levels, open_s = "full", 200, 1500, (1, 2, 8), 4.0
    if args.users is not None:
        users = args.users
    args.users = users

    closed_loop = []
    for concurrency in levels:
        for cache_ttl in (0.0, CACHE_TTL_ON):
            point = run_point(args, cache_ttl, concurrency, requests)
            closed_loop.append(point)
            print(
                f"closed c={concurrency} cache={point['cache']}: "
                f"p50 {point['p50_ms']:.2f} ms  p99 {point['p99_ms']:.2f} ms  "
                f"{point['throughput_rps']:.0f} rps  "
                f"hit rate {point['cache_hit_rate']:.2f}"
            )

    # Capacity reference for the open-loop arrival rates: the cache-off
    # closed-loop throughput at the sweep's highest concurrency.
    capacity = max(
        p["throughput_rps"] for p in closed_loop if p["cache"] == "off"
    )
    open_loop = run_open_points(args, capacity, open_s)
    for point in open_loop:
        print(
            f"open offered {point['offered_rps']:.0f} rps "
            f"({point['offered_vs_capacity']}x capacity): achieved "
            f"{point['achieved_rps']:.0f} rps, shed rate {point['shed_rate']:.2f}"
        )

    shed = run_shed_scenario(args, requests=min(requests, 400))
    print(
        f"shed scenario: {shed['shed']}/{shed['requests']} shed "
        f"(server counted {shed['server_shed_requests']})"
    )

    report = {
        "meta": {
            "mode": mode,
            "cores": os.cpu_count(),
            "python": sys.version.split()[0],
            "engine": args.engine,
            "executor": args.executor,
            "num_shards": args.shards if args.engine == "sharded" else 1,
            "users": args.users,
            "profile_size": args.profile_size,
            "catalog": args.catalog,
            "k": args.k,
            "requests_per_point": requests,
            "cache_ttl_on_s": CACHE_TTL_ON,
        },
        "closed_loop": closed_loop,
        "open_loop": open_loop,
        "shed": shed,
        "checks": {"cache_on_p50_better": check_cache_wins(closed_loop)},
    }
    validate_report(report)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
