"""Demo entry point: serve HyRec over HTTP with a synthetic workload.

    python -m repro.web.app --dataset ML1 --scale 0.05 --port 8080

Loads the chosen Table 2 workload into a fresh server, starts the
HTTP deployment, and (unless ``--no-widgets``) drives a few widget
round trips so the KNN table warms up.  Point your own client at the
printed URL; the endpoints are the paper's Table 1 API.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.config import HyRecConfig
from repro.core.server import HyRecServer
from repro.datasets import dataset_names, load_dataset
from repro.metrics import format_bytes
from repro.web.async_server import AsyncHyRecServer
from repro.web.client import HttpWidgetClient


def build_server(
    dataset: str,
    scale: float,
    seed: int,
    config: HyRecConfig | None = None,
    *,
    k: int = 10,
    r: int = 10,
) -> HyRecServer:
    """A HyRec server preloaded with one synthetic workload.

    Pass a full ``config`` to pick engine/executor/observability knobs;
    the ``k``/``r`` shorthands build a default single-process config.
    """
    if config is None:
        config = HyRecConfig(k=k, r=r)
    trace = load_dataset(dataset, scale=scale, seed=seed)
    server = HyRecServer(config, seed=seed)
    for rating in trace:
        server.record_rating(rating.user, rating.item, rating.value, rating.timestamp)
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.web.app", description="Run a demo HyRec HTTP server."
    )
    parser.add_argument("--dataset", choices=dataset_names(), default="ML1")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--r", type=int, default=10)
    parser.add_argument("--port", type=int, default=0, help="0 = pick a free port")
    parser.add_argument(
        "--engine",
        choices=("python", "vectorized", "sharded"),
        default="vectorized",
        help="request-path execution engine",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count (engine=sharded)"
    )
    parser.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default="serial",
        help="shard-task executor (engine=sharded)",
    )
    parser.add_argument(
        "--tracing",
        action="store_true",
        help="collect request-lifecycle spans (see /metrics neighbors "
        "docs/observability.md for exporting them)",
    )
    parser.add_argument(
        "--slow-request-ms",
        type=float,
        default=0.0,
        help="log requests slower than this many ms (0 = off)",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=0.0,
        help="response-cache staleness bound in seconds "
        "(0 = cache off, byte-exact responses)",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=1024, help="max cached responses"
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="queued requests before shedding 503s",
    )
    parser.add_argument(
        "--retry-after",
        type=int,
        default=1,
        help="Retry-After seconds on shed responses",
    )
    parser.add_argument(
        "--warmup", type=int, default=3, help="widget round trips per user at start"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds to serve before exiting (default: until interrupted)",
    )
    args = parser.parse_args(argv)

    config = HyRecConfig(
        k=args.k,
        r=args.r,
        engine=args.engine,
        num_shards=args.shards,
        executor=args.executor,
        tracing=args.tracing,
        slow_request_ms=args.slow_request_ms,
        cache_ttl=args.cache_ttl,
        cache_capacity=args.cache_capacity,
        http_max_pending=args.max_pending,
        http_retry_after=args.retry_after,
    )
    server = build_server(args.dataset, args.scale, args.seed, config)
    http_server = AsyncHyRecServer(server, port=args.port)
    http_server.start()
    print(f"HyRec serving {args.dataset} (scale {args.scale}) at {http_server.url}")
    print(
        f"  {server.num_users} users loaded; "
        "endpoints: /online /neighbors /stats /metrics"
    )
    if args.cache_ttl > 0:
        print(
            f"  response cache on: ttl {args.cache_ttl}s, "
            f"capacity {args.cache_capacity}"
        )

    if args.warmup:
        client = HttpWidgetClient(http_server.url)
        users = server.profiles.users()[:10]
        for _ in range(args.warmup):
            for uid in users:
                client.round_trip(uid)
        print(
            f"  warmed up with {args.warmup * len(users)} round trips; "
            f"traffic so far {format_bytes(server.meter.total_wire_bytes)}"
        )

    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        http_server.stop()
        server.close()  # worker shutdown on engine=sharded
        print("server stopped.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
