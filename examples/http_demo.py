#!/usr/bin/env python3
"""End-to-end HTTP demo: real server, real widgets, real sockets.

Starts the HyRec HTTP server (the paper's Jetty-bundled servlets,
Python edition), loads it with a small workload, then drives a handful
of widget clients through full ``/online`` -> compute -> ``/neighbors``
round trips over localhost -- gzipped JSON and all.

Run:  python examples/http_demo.py
"""

from repro import HyRecConfig, load_dataset
from repro.core.server import HyRecServer
from repro.metrics import format_bytes
from repro.web import AsyncHyRecServer, HttpWidgetClient


def main() -> None:
    # Load a server with a small MovieLens-shaped history.
    trace = load_dataset("ML1", scale=0.05, seed=5)
    server = HyRecServer(HyRecConfig(k=10, r=5), seed=5)
    for rating in trace:
        server.record_rating(rating.user, rating.item, rating.value, rating.timestamp)

    http_server = AsyncHyRecServer(server)
    http_server.start()
    print(f"HyRec server listening on {http_server.url}  (Ctrl-C-free demo)")

    try:
        client = HttpWidgetClient(http_server.url)
        users = sorted(trace.users)[:5]
        # A few rounds so neighborhoods visibly improve.
        for round_number in range(1, 4):
            print(f"\nround {round_number}:")
            for uid in users:
                outcome = client.round_trip(uid)
                top = outcome.recommendations[:5]
                print(
                    f"  user {uid:>3}: {len(outcome.job.candidates):>3} candidates, "
                    f"{format_bytes(outcome.response_bytes)} job -> recs {top}"
                )
        stats = client.stats()
        print(
            f"\nserver stats: {stats['online_requests']} requests, "
            f"{stats['users']} users, "
            f"{format_bytes(stats['wire_bytes'])} total traffic"
        )
    finally:
        http_server.stop()
        print("server stopped.")


if __name__ == "__main__":
    main()
