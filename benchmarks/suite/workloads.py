"""The untraced run: end-to-end metrics of one workload.

Every workload has the same life cycle, so every end-to-end metric is
defined on every workload:

1. **Set-up**, ``sizes.setups`` times, each in a fresh ``host.py``
   child: load the population (``write_rps``), serve the cold wave
   (``cold_worst_request_ms``, ``cold_wave_ms``), warm up, start the
   front door.  ``setup_s`` runs from spawning the child to the moment
   it could take its first measured request.
2. **Phase A, closed loop**: one discarded window, then at least five
   measured count-based windows (``rps``, ``p50_ms``, ``wire_bytes_per_req``).
3. **Phase B, open loop** at the frozen rate of ``spec``: at least four
   windows (``open_p50_ms``).

``cold_ingest`` is the exception that proves the rule: each of its
repeats is a fresh child whose phase A *is* the cold wave and whose
phase B is a second, open-loop wave over the same users.

A metric's value is the median of its per-window (per-set-up,
per-repeat) values.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable

from repro.obs.timing import nearest_rank

import program
from loadgen import HttpLoad
from spec import MIN_CLOSED_WINDOWS, MIN_OPEN_WINDOWS, Sizes, scaled
from stats import summarize

HOST = str(pathlib.Path(__file__).resolve().parent / "host.py")

#: The generator may run at most this share of the send interval late
#: (p95) before an open-loop phase is declared invalid.
MAX_LAG_SHARE = 0.10
Ops = Callable[[int, int], list]


class Host:
    """Parent-side handle on one ``host.py`` child; reaps it on any exit."""

    def __init__(self, workload: str, seed: int, sizes: Sizes) -> None:
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, HOST],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self._send(
                {"workload": workload, "seed": seed, "sizes": dataclasses.asdict(sizes)}
            )
            self.ready = self._receive()
        except BaseException:
            self.kill()
            raise

    def _send(self, message: dict) -> None:
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()

    def _receive(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"host child exited with code {self.process.wait()} mid-protocol"
            )
        return json.loads(line)

    def run(self, users: list[int], rate: float | None = None) -> dict:
        """One in-process window inside the child."""
        self._send({"cmd": "run", "users": users, "rate": rate})
        return self._receive()

    def stop(self) -> float:
        """Clean shutdown; returns the child's peak RSS in MB."""
        self._send({"cmd": "stop"})
        peak = self._receive()["peak_rss_mb"]
        self.process.stdin.close()
        self.process.wait(timeout=30)
        return peak

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()

    def __enter__(self) -> "Host":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.kill()


def closed_metrics(window: dict) -> dict[str, float]:
    latencies = sorted(window["latencies_ms"])
    return {
        "rps": window["ops"] / window["elapsed_s"],
        "p50_ms": nearest_rank(latencies, 0.50),
        "wire_bytes_per_req": window["wire_bytes"] / window["ops"],
    }


def open_metrics(window: dict) -> dict[str, float]:
    return {"open_p50_ms": nearest_rank(sorted(window["latencies_ms"]), 0.50)}


def cold_metrics(ready: dict, sizes: Sizes) -> dict[str, float]:
    wave = ready["cold_wave"]
    return {
        "write_rps": sizes.writes / ready["load_s"],
        # The slowest request of the wave is the one that rebuilt the
        # postings index; whether that is the very first one depends on
        # the candidates the seed happened to sample for it.
        "cold_worst_request_ms": max(wave["latencies_ms"]),
        "cold_wave_ms": wave["elapsed_s"] * 1e3,
    }


def phase(
    run: Callable[[list, float | None], dict],
    ops: Ops,
    size: int,
    rate: float | None,
    count: int,
) -> list[dict]:
    """``count`` measured windows; a closed-loop phase discards one
    warm-up window first (the open-loop phase follows it, already warm)."""
    if rate is None:
        run(ops(0, size), rate)
    return [run(ops(index, size), rate) for index in range(1, count + 1)]


def lag_check(windows: list[dict], rate: float) -> dict:
    """Validity, not correctness: a late generator says the *host* was
    starved, so the run's timings are not to be trusted -- but the
    program's outputs were still right."""
    lags = sorted(lag for window in windows for lag in window["lags_ms"])
    p95 = nearest_rank(lags, 0.95)
    limit = MAX_LAG_SHARE * 1e3 / rate
    return {
        "name": "generator_on_time",
        "ok": p95 <= limit,
        "validity": True,
        "detail": f"gen_lag_p95 {p95:.4f} ms, limit {limit:.4f} ms "
        f"(10 % of the {1e3 / rate:.3f} ms send interval)",
    }


def front_door_checks(
    workload: str, stats: dict, windows: list[dict], smoke: bool
) -> list[dict]:
    """The client's books against the server's ``/stats/``.

    ``windows`` is every window sent to this front door, discarded ones
    included -- the server counted those too.
    """
    client_hits = sum(window["cache_hits"] for window in windows)
    client_shed = sum(window["statuses"].get(503, 0) for window in windows)
    lookups = stats["cache_hits"] + stats["cache_misses"]
    hit_ratio = stats["cache_hits"] / lookups if lookups else 0.0
    checks = [
        {
            "name": "client_and_stats_agree",
            "ok": client_hits == stats["cache_hits"]
            and client_shed == stats["shed_requests"],
            "detail": f"cache hits client {client_hits} / server {stats['cache_hits']}, "
            f"shed client {client_shed} / server {stats['shed_requests']}",
        }
    ]
    if not smoke:
        if workload == "http_reads":
            ok = 0.4 <= hit_ratio <= 0.9 and stats["cache_evictions"] > 0
        else:
            ok = hit_ratio < 0.05
        checks.append(
            {
                "name": "cache_regime",
                "ok": ok,
                "detail": f"hit ratio {hit_ratio:.3f}, "
                f"evictions {stats['cache_evictions']}, "
                f"invalidations {stats['cache_invalidations']}",
            }
        )
    return checks


def run_untraced(
    workload: str, seed: int, seconds: float, sizes: Sizes, smoke: bool
) -> dict:
    """All end-to-end metrics of one workload, plus its checks."""
    values: dict[str, list[float]] = defaultdict(list)
    measured: list[dict] = []  # windows whose operations count as attempted
    checks: list[dict] = []
    rate = sizes.open_rate[workload]

    def book(metrics: dict[str, float]) -> None:
        for name, value in metrics.items():
            values[name].append(value)

    if workload == "cold_ingest":
        second_waves = []
        for _ in range(scaled(sizes.cold_repeats, seconds)):
            with Host(workload, seed, sizes) as host:
                ready = host.ready
                wave = ready["cold_wave"]
                book({"setup_s": ready["loaded_at"] - host.spawned_at})
                book(cold_metrics(ready, sizes))
                book(closed_metrics(wave))
                second = host.run(ready["cold_users"], rate)
                book(open_metrics(second))
                book({"peak_rss_mb": host.stop()})
                measured += [wave, second]
                second_waves.append(second)
        checks.append(lag_check(second_waves, rate))
    else:
        for attempt in range(sizes.setups):
            with Host(workload, seed, sizes) as host:
                ready = host.ready
                book({"setup_s": ready["ready_at"] - host.spawned_at})
                book(cold_metrics(ready, sizes))
                if attempt < sizes.setups - 1:
                    host.stop()
                    continue
                closed, opened, door_checks = measure_warm(
                    workload, seed, seconds, sizes, host, smoke
                )
                for result in closed:
                    book(closed_metrics(result))
                for result in opened:
                    book(open_metrics(result))
                book({"peak_rss_mb": host.stop()})
                measured += closed + opened
                checks += door_checks + [lag_check(opened, rate)]

    statuses: dict[str, int] = defaultdict(int)
    for result in measured:
        for status, count in result["statuses"].items():
            statuses[str(status)] += count
    return {
        "workload": workload,
        "windows": measured,
        "metrics": {name: summarize(samples) for name, samples in values.items()},
        "attempted": sum(window["ops"] for window in measured),
        "failed": sum(window["failed"] for window in measured),
        "statuses": dict(statuses),
        "checks": checks,
    }


def measure_warm(
    workload: str, seed: int, seconds: float, sizes: Sizes, host: Host, smoke: bool
) -> tuple[list[dict], list[dict], list[dict]]:
    """Phases A and B against a warm host; returns their windows and
    the front-door checks."""
    ready = host.ready
    ops = program.operations(
        workload, seed, ready["pool"], ready.get("bodies"), ready.get("ranked")
    )
    closed_count = scaled(MIN_CLOSED_WINDOWS, seconds)
    sent: list[dict] = []  # every window, discarded ones too: the server counted them
    load = HttpLoad("127.0.0.1", ready["port"]) if "port" in ready else None

    def run(batch: list, rate: float | None) -> dict:
        sent.append(host.run(batch, rate) if load is None else load.run(batch, rate))
        return sent[-1]

    try:
        closed = phase(run, ops, sizes.window[workload], None, closed_count)
        # Phase B carries on where phase A stopped.
        opened = phase(
            run,
            lambda index, count: ops(index + closed_count, count),
            sizes.open_window[workload],
            sizes.open_rate[workload],
            scaled(MIN_OPEN_WINDOWS, seconds),
        )
        if load is None:
            return closed, opened, []
        stats = load.finish()
    finally:
        if load is not None:
            load.close()
    return closed, opened, front_door_checks(workload, stats, sent, smoke)
