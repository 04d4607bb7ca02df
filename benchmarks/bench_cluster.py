"""Cluster benchmark: shard-count sweep + engine-parity replay.

Run directly (writes ``BENCH_cluster.json`` next to the repo root so
the perf trajectory is tracked across PRs)::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --quick

Two measurements:

1. **Sweep** (the COB-Service replicas shape): a synthetic worst-case
   population (fixed-size profiles, randomized KNN rows so candidate
   sets sit near ``2k + k^2``) served by the sharded engine at 1/2/4/8
   shards under all three executors (serial / thread pool / worker
   processes over the serialized shard transport), driven by
   :class:`repro.sim.loadgen.ClusterLoadGenerator` -- real requests,
   wall-clock RPS.  A sequential run of the single-matrix
   ``engine="vectorized"`` path is recorded alongside as the
   no-cluster reference.  The headline check: batched multi-shard
   throughput at 8 shards on the thread-pool executor must be at least
   the sweep's single-shard throughput.  (On a single-core host the
   gain comes from window batching and per-shard cache locality --
   each shard's gather slices stay cache-resident where the unsharded
   window streams one huge arena pass; the thread pool only adds real
   parallelism where cores exist, since the kernels release the GIL.)
   The process executor is additionally compared against the thread
   executor at 8 shards: on >= 2 cores it should win (whole
   interpreters in parallel); on one core the report documents the
   IPC overhead instead (``process_vs_thread`` + ``cores`` fields).

2. **Replay**: a full ML1 trace replay through all three engines --
   equal outcomes and byte-identical wire metering are asserted, wall
   times reported.

3. **Skew** (the churn/rebalance shape): a zipf-popular user
   population writes through the sharded engine, concentrating load on
   whichever shards the hot users hash to; the
   :class:`repro.cluster.ShardRebalancer` then migrates placement
   buckets off the hottest shard and the report records the per-shard
   write spread before and after (``max_min_ratio`` uses a min floor
   of one write).  The headline check: the post-rebalance ratio must
   be below the pre-rebalance one.

4. **Recovery** (the fault-tolerance shape): a worker is SIGKILLed
   halfway through a process-executor load run; the supervisor must
   detect, re-fork, and warm-replay the shard inside the request path,
   and a full rolling restart then cycles every worker under the same
   load.  Reports detection-to-recovery latency and per-worker restart
   cost; asserts zero dropped requests and bit-for-bit parity with an
   unsharded run of the identical request sequence.  ``--recovery-only``
   re-runs just this scenario and merges it into the existing report.

5. **Autoscale** (the elasticity shape): a zipf write ramp drives the
   :class:`repro.cluster.ShardRebalancer`'s watermark autoscaler --
   each control pass adds a shard and rebalances while measured
   request waves keep serving; a near-idle cooldown shrinks the fleet
   back.  Reports per-phase shard count, write spread, and RPS;
   asserts the full grow/shrink trajectory, a non-worsening spread
   after scale-out, zero dropped requests, and bit-for-bit parity
   with an unsharded run of the identical sequence.
   ``--autoscale-smoke`` re-runs just this scenario and merges it
   into the existing report (the CI elasticity smoke).

6. **Memory** (the million-user shape): zipf-distributed synthetic
   populations (:mod:`repro.datasets.synthetic`) stream through the
   constant-memory loader into the engine -- 100k users, and 1M users
   in the full run.  Each case runs in a forked child so
   ``ru_maxrss`` is a per-case peak; the report records peak RSS,
   sustained write throughput, serve-wave RPS, and the engine's own
   arena accounting (``memory_stats``).  ``--memory-smoke`` runs the
   100k case only, asserts its peak RSS stays under a fixed ceiling,
   and merges the section into the existing report (the CI
   memory-scale smoke).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import resource
import signal
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import numpy as np

from repro.core.config import HyRecConfig
from repro.core.system import HyRecSystem
from repro.datasets import load_dataset
from repro.datasets.synthetic import StreamingLoader, SyntheticSpec
from repro.sim.loadgen import ClusterLoadGenerator
from repro.sim.randomness import derive_rng

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SHARD_SWEEP = (1, 2, 4, 8)
EXECUTORS = ("serial", "thread", "process")


def build_system(
    engine: str,
    num_users: int,
    profile_size: int,
    catalog: int,
    k: int,
    batch_window: int,
    num_shards: int = 1,
    executor: str = "serial",
    seed: int = 0,
) -> HyRecSystem:
    """A system preloaded with fixed-size profiles and random KNN rows."""
    rng = derive_rng(seed, "cluster-population")
    system = HyRecSystem(
        HyRecConfig(
            k=k,
            r=10,
            compress=False,  # measure engines, not shared gzip cost
            engine=engine,
            num_shards=num_shards,
            executor=executor,
            batch_window=batch_window,
        ),
        seed=seed,
    )
    for user in range(num_users):
        for item in rng.sample(range(catalog), profile_size):
            value = 1.0 if rng.random() < 0.8 else 0.0
            system.record_rating(user, item, value, timestamp=0.0)
    users = list(range(num_users))
    for user in users:
        neighbors = [n for n in rng.sample(users, k + 1) if n != user][:k]
        system.server.knn_table.update(user, neighbors)
    return system


def bench_sweep(
    num_users: int,
    profile_size: int,
    catalog: int,
    k: int,
    requests: int,
    batch_window: int,
    rounds: int = 3,
    seed: int = 0,
) -> dict:
    """RPS per (shard count, executor), plus the vectorized reference.

    All configurations are measured in interleaved rounds and each
    keeps its best round: shared boxes drift (thermal throttling,
    noisy neighbors), and a sequential sweep would systematically
    punish whichever configuration runs last.
    """
    users = list(range(num_users))

    configs: list[tuple[str, HyRecSystem, int]] = []
    vectorized = build_system(
        "vectorized", num_users, profile_size, catalog, k, batch_window,
        seed=seed,
    )
    configs.append(("vectorized", vectorized, 1))
    for num_shards in SHARD_SWEEP:
        for executor in EXECUTORS:
            system = build_system(
                "sharded", num_users, profile_size, catalog, k, batch_window,
                num_shards=num_shards, executor=executor, seed=seed,
            )
            configs.append((f"x{num_shards}/{executor}", system, batch_window))

    generators = {
        name: ClusterLoadGenerator(system, users)
        for name, system, _ in configs
    }
    best: dict[str, dict] = {}
    for name, system, concurrency in configs:  # warm caches and pools
        generators[name].run(requests=min(64, requests), concurrency=concurrency)
    for _ in range(rounds):
        for name, system, concurrency in configs:
            result = generators[name].run(
                requests=requests, concurrency=concurrency
            )
            entry = {
                "rps": round(result.throughput_rps, 1),
                "mean_ms": round(result.mean_response_ms, 3),
                "p95_ms": round(result.p95_response_s * 1e3, 3),
            }
            if name not in best or entry["rps"] > best[name]["rps"]:
                best[name] = entry

    baseline = best["vectorized"]
    print(
        f"vectorized (sequential)     : {baseline['rps']:8.1f} rps  "
        f"mean {baseline['mean_ms']:7.3f}ms"
    )
    rows = []
    for name, system, _ in configs:
        if name == "vectorized":
            continue
        num_shards, executor = name[1:].split("/")
        entry = dict(best[name])
        entry.update(
            {
                "num_shards": int(num_shards),
                "executor": executor,
                "batch_window": batch_window,
                "speedup_vs_vectorized": round(
                    entry["rps"] / baseline["rps"], 3
                ),
            }
        )
        stats = system.server.stats.shards
        entry["max_shard_users"] = max(s.users for s in stats)
        entry["min_shard_users"] = min(s.users for s in stats)
        rows.append(entry)
        print(
            f"sharded x{num_shards} ({executor:6s}, w={batch_window:3d})"
            f" : {entry['rps']:8.1f} rps  "
            f"mean {entry['mean_ms']:7.3f}ms  "
            f"x{entry['speedup_vs_vectorized']:.2f} vs vectorized"
        )
        system.close()

    def rps_of(num_shards: int, executor: str) -> float:
        return next(
            row["rps"]
            for row in rows
            if row["num_shards"] == num_shards and row["executor"] == executor
        )

    # The headline bar keeps its PR-2 definition (in-process executors
    # only) so the trajectory stays comparable across benchmark runs.
    single_shard = min(rps_of(1, executor) for executor in ("serial", "thread"))
    eight_thread = rps_of(8, "thread")
    eight_process = rps_of(8, "process")
    meets_target = bool(eight_thread >= single_shard)
    print(
        f"8-shard thread-pool {eight_thread:.1f} rps vs single-shard "
        f"{single_shard:.1f} rps -> "
        f"{'scales' if meets_target else 'DOES NOT scale'} "
        f"(x{eight_thread / single_shard:.2f})"
    )
    cores = os.cpu_count() or 1
    process_vs_thread = round(eight_process / eight_thread, 3)
    if cores >= 2:
        process_note = (
            f"{cores} cores: worker processes run whole interpreters "
            f"in parallel (x{process_vs_thread:.2f} vs thread pool at "
            "8 shards)"
        )
    else:
        process_note = (
            "single-core host: no parallelism to win, so the "
            f"x{process_vs_thread:.2f} vs the thread pool at 8 shards "
            "is pure IPC overhead (frame serialization + context "
            "switches); expect the process executor to pull ahead "
            "once cores >= 2"
        )
    print(
        f"8-shard process {eight_process:.1f} rps vs thread "
        f"{eight_thread:.1f} rps (x{process_vs_thread:.2f}, "
        f"{cores} core(s))"
    )
    return {
        "population": {
            "users": num_users,
            "profile_size": profile_size,
            "catalog": catalog,
            "k": k,
            "requests": requests,
        },
        "cores": cores,
        "vectorized_sequential": baseline,
        "sweep": rows,
        "single_shard_rps": single_shard,
        "eight_shard_thread_rps": eight_thread,
        "eight_shard_process_rps": eight_process,
        "process_vs_thread": process_vs_thread,
        "process_note": process_note,
        "meets_target": meets_target,
    }


def bench_replay(scale: float, num_shards: int, seed: int = 0) -> dict:
    """Replay ML1 through all engines; verify parity, report times."""
    trace = load_dataset("ML1", scale=scale, seed=seed)
    timings: dict[str, float] = {}
    wire_bytes: dict[str, int] = {}
    digests: dict[str, int] = {}
    for engine in ("python", "vectorized", "sharded"):
        system = HyRecSystem(
            HyRecConfig(k=10, engine=engine, num_shards=num_shards),
            seed=seed,
        )
        digest: list = []
        start = time.perf_counter()
        system.replay(
            trace, on_request=lambda o: digest.append(tuple(o.recommendations))
        )
        timings[engine] = time.perf_counter() - start
        wire_bytes[engine] = system.server.meter.total_wire_bytes
        digests[engine] = hash(tuple(digest))
        system.close()

    parity = (
        len(set(digests.values())) == 1 and len(set(wire_bytes.values())) == 1
    )
    entry = {
        "dataset": "ML1",
        "scale": scale,
        "requests": len(trace),
        "num_shards": num_shards,
        "python_s": round(timings["python"], 3),
        "vectorized_s": round(timings["vectorized"], 3),
        "sharded_s": round(timings["sharded"], 3),
        "parity_identical": parity,
    }
    print(
        f"replay ML1@{scale} (x{num_shards} shards): "
        f"python {entry['python_s']:7.2f}s  "
        f"vectorized {entry['vectorized_s']:7.2f}s  "
        f"sharded {entry['sharded_s']:7.2f}s  "
        f"parity={parity}"
    )
    if not parity:
        raise SystemExit("engine parity violated during replay")
    return entry


def bench_skew(
    num_users: int,
    writes: int,
    num_shards: int,
    catalog: int = 2000,
    zipf_a: float = 1.1,
    seed: int = 0,
) -> dict:
    """Zipf-skewed write load: per-shard spread pre/post rebalance.

    Users draw writes with popularity ``1 / rank^a`` -- the head-heavy
    shape item-serving systems face -- so a handful of hot users
    concentrate write load on whichever shards their placement buckets
    hash to.  The rebalancer then migrates buckets until the spread is
    inside threshold or no single bucket move improves it (one
    deliberately *unsplittable* hot bucket can cap how far the ratio
    falls -- the report records whatever balance bucket moves can buy).
    """
    rng = derive_rng(seed, "cluster-skew")
    system = HyRecSystem(
        HyRecConfig(
            k=10,
            compress=False,
            engine="sharded",
            num_shards=num_shards,
            rebalance_threshold=1.2,
            rebalance_max_moves=max(4, 8 * num_shards),
        ),
        seed=seed,
    )
    weights = [1.0 / (rank + 1) ** zipf_a for rank in range(num_users)]
    for user in rng.choices(range(num_users), weights=weights, k=writes):
        system.record_rating(user, rng.randrange(catalog), 1.0, timestamp=0.0)

    rebalancer = system.server.rebalancer
    assert rebalancer is not None

    def spread(loads) -> dict:
        return {
            "per_shard_writes": [int(load) for load in loads],
            "max": int(loads.max()),
            "min": int(loads.min()),
            "max_min_ratio": round(
                float(loads.max()) / float(max(int(loads.min()), 1)), 3
            ),
        }

    pre = spread(rebalancer.shard_loads())
    moves = rebalancer.rebalance()
    post = spread(rebalancer.shard_loads())
    system.close()

    reduced = post["max_min_ratio"] < pre["max_min_ratio"]
    print(
        f"skew x{num_shards} (zipf a={zipf_a}, {writes} writes): "
        f"pre ratio {pre['max_min_ratio']:.2f} -> post "
        f"{post['max_min_ratio']:.2f} after {len(moves)} bucket moves "
        f"({'reduced' if reduced else 'NOT reduced'})"
    )
    if not reduced:
        raise SystemExit("rebalance failed to reduce the write spread")
    return {
        "population": {
            "users": num_users,
            "writes": writes,
            "catalog": catalog,
            "zipf_a": zipf_a,
        },
        "num_shards": num_shards,
        "pre": pre,
        "post": post,
        "bucket_moves": [
            {
                "bucket": move.bucket,
                "source": move.source,
                "target": move.target,
                "writes": move.writes,
                "version": move.version,
            }
            for move in moves
        ],
        "reduced": reduced,
    }


def bench_recovery(
    num_users: int,
    profile_size: int,
    catalog: int,
    k: int,
    requests: int,
    batch_window: int,
    num_shards: int = 4,
    seed: int = 0,
) -> dict:
    """Kill a worker mid-run and measure detection-to-recovery cost.

    The fault-tolerance shape: the same population as the sweep served
    by the process executor, except one worker is SIGKILLed halfway
    through the load run and the supervisor must notice (socket EOF on
    the next exchange), re-fork, and warm-replay the shard from the
    coordinator-side replay log -- all inside the request path.  After
    the faulted run a full :meth:`rolling_restart` cycles every worker
    under the same live load.  The headline checks: zero dropped
    requests through both events, and bit-for-bit parity (KNN table +
    wire metering) with an unsharded vectorized run of the identical
    request sequence.
    """
    system = build_system(
        "sharded", num_users, profile_size, catalog, k, batch_window,
        num_shards=num_shards, executor="process", seed=seed,
    )
    reference = build_system(
        "vectorized", num_users, profile_size, catalog, k, batch_window,
        seed=seed,
    )
    users = list(range(num_users))
    loadgen = ClusterLoadGenerator(system, users)
    reference_loadgen = ClusterLoadGenerator(reference, users)
    executor = system.server.cluster.executor
    half = max(batch_window, requests // 2)

    before = loadgen.run(requests=half, concurrency=batch_window)
    victim = num_shards // 2
    os.kill(executor._procs[victim].pid, signal.SIGKILL)
    killed_at = time.perf_counter()
    after = loadgen.run(requests=half, concurrency=batch_window)
    first_wave_after_kill_s = time.perf_counter() - killed_at

    restart_start = time.perf_counter()
    cycled = system.server.cluster.rolling_restart()
    rolling_restart_s = time.perf_counter() - restart_start
    final = loadgen.run(requests=half, concurrency=batch_window)

    reference_loadgen.run(requests=3 * half, concurrency=batch_window)
    stats = system.server.stats
    supervisor = executor.supervisor
    parity = system.server.knn_table.as_dict() == (
        reference.server.knn_table.as_dict()
    ) and all(
        system.server.meter.reading(channel)
        == reference.server.meter.reading(channel)
        for channel in ("server->client", "client->server")
    )
    entry = {
        "population": {
            "users": num_users,
            "profile_size": profile_size,
            "catalog": catalog,
            "k": k,
            "requests": 3 * half,
        },
        "num_shards": num_shards,
        "kill": {
            "victim_shard": victim,
            "recoveries": supervisor.recoveries,
            "recovery_ms": [
                round(seconds * 1e3, 3)
                for seconds in supervisor.recovery_times
            ],
            "first_wave_after_kill_ms": round(
                first_wave_after_kill_s * 1e3, 3
            ),
            "rps_before_kill": round(before.throughput_rps, 1),
            "rps_after_kill": round(after.throughput_rps, 1),
        },
        "rolling_restart": {
            "workers_cycled": cycled,
            "total_s": round(rolling_restart_s, 3),
            "per_worker_ms": round(rolling_restart_s / cycled * 1e3, 3),
            "rps_after_restart": round(final.throughput_rps, 1),
            "restarts_per_shard": [s.restarts for s in stats.shards],
        },
        "dropped_requests": stats.dropped_requests,
        "all_workers_alive": all(s.alive for s in stats.shards),
        "parity_identical": parity,
    }
    system.close()
    reference.close()
    recovery_ms = entry["kill"]["recovery_ms"]
    print(
        f"recovery x{num_shards} (kill shard {victim}): "
        f"{supervisor.recoveries} recovery in "
        f"{recovery_ms[0] if recovery_ms else float('nan'):.1f}ms, "
        f"rolling restart {cycled} workers in "
        f"{entry['rolling_restart']['total_s']:.2f}s, "
        f"dropped={stats.dropped_requests}, parity={parity}"
    )
    if supervisor.recoveries < 1:
        raise SystemExit("the killed worker was never recovered")
    if stats.dropped_requests != 0:
        raise SystemExit("recovery dropped requests")
    if not parity:
        raise SystemExit("recovery broke engine parity")
    return entry


def bench_obs_overhead(
    scale: float, num_shards: int = 8, rounds: int = 6, seed: int = 0
) -> dict:
    """Replay overhead of the default-on metrics registry (PR 7 gate).

    The same ML1 replay on the 8-shard engine, run with
    ``metrics_enabled=True`` and ``False`` in interleaved rounds; the
    observability contract is that the registry's hot-path cost --
    request latency histogram, batch/shard counters -- stays within a
    few percent of the bare engine.  Tracing stays off in both runs:
    it is a debugging tool, not part of the steady-state overhead
    budget.  Fails the run when the measured overhead exceeds 3%.

    Noise discipline: single replays on a shared host swing far more
    than 3%, so each side keeps its best (minimum) round -- scheduling
    noise only ever adds time -- over enough rounds for the minima to
    converge, the on/off order alternates every round so neither side
    systematically runs first, and one untimed warmup replay absorbs
    the cold-start (import, page-cache, fork) cost.
    """
    trace = load_dataset("ML1", scale=scale, seed=seed)

    def timed_replay(enabled: bool) -> float:
        system = HyRecSystem(
            HyRecConfig(
                k=10,
                engine="sharded",
                num_shards=num_shards,
                metrics_enabled=enabled,
            ),
            seed=seed,
        )
        start = time.perf_counter()
        system.replay(trace)
        elapsed = time.perf_counter() - start
        system.close()
        return elapsed

    timed_replay(True)  # untimed warmup
    best: dict[str, float] = {}
    sides = (("metrics_on", True), ("metrics_off", False))
    for round_index in range(rounds):
        order = sides if round_index % 2 == 0 else sides[::-1]
        for label, enabled in order:
            elapsed = timed_replay(enabled)
            if label not in best or elapsed < best[label]:
                best[label] = elapsed

    overhead_pct = round(
        (best["metrics_on"] - best["metrics_off"])
        / best["metrics_off"]
        * 100,
        2,
    )
    within_budget = overhead_pct <= 3.0
    print(
        f"obs overhead x{num_shards} (ML1@{scale}, best of {rounds}): "
        f"metrics on {best['metrics_on']:.3f}s vs off "
        f"{best['metrics_off']:.3f}s -> {overhead_pct:+.2f}% "
        f"({'within' if within_budget else 'EXCEEDS'} the 3% budget)"
    )
    if not within_budget:
        raise SystemExit(
            f"metrics overhead {overhead_pct}% exceeds the 3% budget"
        )
    return {
        "dataset": "ML1",
        "scale": scale,
        "requests": len(trace),
        "num_shards": num_shards,
        "rounds": rounds,
        "metrics_on_s": round(best["metrics_on"], 3),
        "metrics_off_s": round(best["metrics_off"], 3),
        "overhead_pct": overhead_pct,
        "within_budget": within_budget,
    }


def bench_autoscale(
    num_users: int,
    ramp_writes: int,
    catalog: int,
    requests: int,
    batch_window: int,
    min_shards: int = 2,
    max_shards: int = 4,
    zipf_a: float = 1.1,
    seed: int = 0,
) -> dict:
    """Load ramp through the watermark autoscaler: grow, serve, shrink.

    The elasticity shape: a process-executor cluster starts at
    ``min_shards`` and a zipf-skewed write ramp pushes the mean
    writes/shard past the autoscaler's high-water mark; each control
    pass (driven explicitly here so the phases are deterministic --
    the production path runs the same ``run_once`` on a timer) adds
    one shard and rebalances, with a measured request wave served
    between passes.  After the fleet reaches ``max_shards`` one more
    hot chunk lands and a final rebalance must not worsen the spread;
    a near-idle cooldown then walks the fleet back down to
    ``min_shards``.  Headline checks: the fleet actually grew to
    ``max_shards`` and shrank back, the post-scale-out rebalance kept
    the max/min write spread from growing, zero dropped requests, and
    bit-for-bit parity (KNN table + wire metering) with an unsharded
    vectorized run of the identical write/request sequence.  Per-phase
    RPS and spread are recorded so the report shows both recovering
    after scale-out.
    """
    config = HyRecConfig(
        k=10,
        r=10,
        compress=False,
        engine="sharded",
        num_shards=min_shards,
        executor="process",
        batch_window=batch_window,
        rebalance_threshold=1.3,
        rebalance_max_moves=4 * max_shards,
        autoscale_min_shards=min_shards,
        autoscale_max_shards=max_shards,
        autoscale_high_water=ramp_writes / (2.0 * max_shards),
        autoscale_low_water=20.0,
    )
    system = HyRecSystem(config, seed=seed)
    reference = HyRecSystem(
        HyRecConfig(
            k=10, r=10, compress=False, engine="vectorized",
            batch_window=batch_window,
        ),
        seed=seed,
    )
    rng = derive_rng(seed, "cluster-autoscale")
    users = list(range(num_users))
    for user in users:  # identical population on both systems
        for item in rng.sample(range(catalog), 12):
            value = 1.0 if rng.random() < 0.8 else 0.0
            system.record_rating(user, item, value, timestamp=0.0)
            reference.record_rating(user, item, value, timestamp=0.0)
    for user in users:
        neighbors = [n for n in rng.sample(users, 11) if n != user][:10]
        system.server.knn_table.update(user, neighbors)
        reference.server.knn_table.update(user, neighbors)

    cluster = system.server.cluster
    rebalancer = system.server.rebalancer
    assert cluster is not None and rebalancer is not None
    loadgen = ClusterLoadGenerator(system, users)
    reference_loadgen = ClusterLoadGenerator(reference, users)
    weights = [1.0 / (rank + 1) ** zipf_a for rank in range(num_users)]

    def write_chunk(count: int) -> None:
        for user in rng.choices(range(num_users), weights=weights, k=count):
            item = rng.randrange(catalog)
            system.record_rating(user, item, 1.0, timestamp=0.0)
            reference.record_rating(user, item, 1.0, timestamp=0.0)

    def ratio(loads) -> float:
        return round(
            float(loads.max()) / float(max(int(loads.min()), 1)), 3
        )

    phases: list[dict] = []

    def measure(phase: str) -> dict:
        result = loadgen.run(requests=requests, concurrency=batch_window)
        reference_loadgen.run(requests=requests, concurrency=batch_window)
        loads = rebalancer.shard_loads()
        entry = {
            "phase": phase,
            "num_shards": cluster.num_shards,
            "rps": round(result.throughput_rps, 1),
            "per_shard_writes": [int(load) for load in loads],
            "max_min_ratio": ratio(loads),
        }
        phases.append(entry)
        return entry

    measure("baseline")
    passes = 0
    while cluster.num_shards < max_shards and passes < 2 * max_shards:
        write_chunk(ramp_writes)
        rebalancer.run_once()  # the timer tick, driven deterministically
        passes += 1
        measure(f"ramp-{passes}")

    write_chunk(ramp_writes)  # one more hot chunk at full size
    spread_pre = ratio(rebalancer.shard_loads())
    moves = rebalancer.rebalance()
    spread_post = ratio(rebalancer.shard_loads())
    after_scaleout = measure("after-scaleout")

    cooldown = 0
    while cluster.num_shards > min_shards and cooldown < 2 * max_shards:
        write_chunk(10)  # near idle: mean writes/shard under low water
        rebalancer.run_once()
        cooldown += 1
        measure(f"cooldown-{cooldown}")

    stats = system.server.stats
    parity = system.server.knn_table.as_dict() == (
        reference.server.knn_table.as_dict()
    ) and all(
        system.server.meter.reading(channel)
        == reference.server.meter.reading(channel)
        for channel in ("server->client", "client->server")
    )
    grows = [a for a in rebalancer.scale_actions if a[0] == "grow"]
    shrinks = [a for a in rebalancer.scale_actions if a[0] == "shrink"]
    rps_recovered = after_scaleout["rps"] >= 0.5 * phases[0]["rps"]
    entry = {
        "population": {
            "users": num_users,
            "catalog": catalog,
            "ramp_writes": ramp_writes,
            "zipf_a": zipf_a,
            "requests_per_wave": requests,
        },
        "min_shards": min_shards,
        "max_shards": max_shards,
        "high_water": config.autoscale_high_water,
        "low_water": config.autoscale_low_water,
        "phases": phases,
        "scale_actions": [list(action) for action in rebalancer.scale_actions],
        "shards_added": stats.shards_added,
        "shards_removed": stats.shards_removed,
        "spread_after_scaleout": {
            "pre_rebalance": spread_pre,
            "post_rebalance": spread_post,
            "bucket_moves": len(moves),
        },
        "rps_baseline": phases[0]["rps"],
        "rps_after_scaleout": after_scaleout["rps"],
        "rps_recovered": bool(rps_recovered),
        "dropped_requests": stats.dropped_requests,
        "parity_identical": parity,
    }
    system.close()
    reference.close()
    print(
        f"autoscale {min_shards}->{max_shards} shards: "
        f"{len(grows)} grows / {len(shrinks)} shrinks, spread "
        f"{spread_pre:.2f} -> {spread_post:.2f} after {len(moves)} moves, "
        f"rps {entry['rps_baseline']:.1f} -> "
        f"{entry['rps_after_scaleout']:.1f} after scale-out, "
        f"dropped={stats.dropped_requests}, parity={parity}"
    )
    if len(grows) != max_shards - min_shards:
        raise SystemExit(
            f"autoscaler grew {len(grows)} times, expected "
            f"{max_shards - min_shards}"
        )
    if not shrinks or entry["phases"][-1]["num_shards"] != min_shards:
        raise SystemExit("autoscaler failed to shrink back to the floor")
    if spread_post > spread_pre:
        raise SystemExit("post-scale-out rebalance worsened the spread")
    if stats.dropped_requests != 0:
        raise SystemExit("autoscale run dropped requests")
    if not parity:
        raise SystemExit("autoscale run broke engine parity")
    return entry


def _memory_case(
    name: str,
    num_users: int,
    catalog: int,
    total_writes: int,
    engine: str = "vectorized",
    num_shards: int = 1,
    requests: int = 256,
    batch_window: int = 32,
    chunk_size: int = 65_536,
    seed: int = 0,
) -> dict:
    """One memory/write-path measurement (meant to run in a fork).

    Streams a zipf population into a fresh system through the
    constant-memory loader, then serves measured request waves against
    provably-active users, and reads back the engine's own arena
    accounting.  Peak RSS is stamped on by the fork wrapper.
    """
    spec = SyntheticSpec(
        num_users=num_users,
        catalog=catalog,
        total_writes=total_writes,
        user_exponent=1.05,
        seed=seed,
    )
    config = HyRecConfig(
        k=10,
        r=10,
        compress=False,
        engine=engine,
        num_shards=num_shards,
        batch_window=batch_window,
    )
    system = HyRecSystem(config, seed=seed)
    loader = StreamingLoader(spec, chunk_size=chunk_size)

    start = time.perf_counter()
    written = loader.load_into(system)
    write_s = time.perf_counter() - start

    # Serve against users the stream's head definitely touched (the
    # zipf tail of a million-user population is mostly never seen).
    head_users = np.unique(next(iter(loader.chunks()))[0])[:2048].tolist()
    loadgen = ClusterLoadGenerator(system, head_users)
    result = loadgen.run(requests=requests, concurrency=batch_window)

    matrix = system.server.liked_matrix
    if matrix is None and system.server.cluster is not None:
        matrix = system.server.cluster.matrix  # in-process sharding only
    memory = matrix.memory_stats() if matrix is not None else None
    entry = {
        "name": name,
        "population": {
            "users": num_users,
            "catalog": catalog,
            "total_writes": total_writes,
            "user_exponent": spec.user_exponent,
        },
        "engine": engine,
        "num_shards": num_shards,
        "users_seen": len(system.server.profiles),
        "write_s": round(write_s, 3),
        "writes_per_s": round(written / write_s, 1),
        "serve_rps": round(result.throughput_rps, 1),
        "serve_p95_ms": round(result.p95_response_s * 1e3, 3),
        "memory_stats": memory,
    }
    system.close()
    return entry


def _memory_case_child(kwargs: dict, conn) -> None:
    try:
        entry = _memory_case(**kwargs)
        entry["peak_rss_mb"] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        )
        conn.send(entry)
    except BaseException as exc:  # ship the failure to the parent
        conn.send({"name": kwargs.get("name"), "error": repr(exc)})
    finally:
        conn.close()


def _run_memory_case(**kwargs) -> dict:
    """Fork one measurement so ``ru_maxrss`` is a per-case peak."""
    receiver, sender = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.get_context("fork").Process(
        target=_memory_case_child, args=(kwargs, sender)
    )
    proc.start()
    sender.close()
    entry = receiver.recv()
    proc.join()
    receiver.close()
    if "error" in entry:
        raise SystemExit(f"memory case {entry['name']} failed: {entry['error']}")
    print(
        f"memory {entry['name']:<22s}: {entry['users_seen']:>9,} users seen, "
        f"{entry['writes_per_s']:>9,.0f} writes/s, "
        f"{entry['serve_rps']:>7.1f} rps, "
        f"peak RSS {entry['peak_rss_mb']:>8.1f} MB"
    )
    return entry


#: Peak-RSS ceiling (MB) for the 100k-user case in the CI smoke.
#: Measured 137.3 MB on a 2-core Xeon (python 3.11, numpy 2.4), with
#: one dict entry per stored rating; a (value, timestamp) tuple per
#: rating read 278-311 MB.  The ceiling is 1.25x the measurement:
#: room for allocator and platform variance, but not for the
#: per-rating objects coming back.
MEMORY_SMOKE_RSS_CEILING_MB = 172.0


def bench_memory(full: bool, seed: int = 0) -> dict:
    """Peak RSS + write throughput at 100k (and, full mode, 1M) users.

    The 1M case is the tentpole standup -- the population the paper's
    front-end claims to face, streamed through the loader and served,
    with peak RSS as the documented budget.
    """
    cases = [
        dict(
            name="100k",
            num_users=100_000,
            catalog=50_000,
            total_writes=1_000_000,
            seed=seed,
        ),
    ]
    if full:
        cases.append(
            dict(
                name="1M",
                num_users=1_000_000,
                catalog=200_000,
                total_writes=3_000_000,
                seed=seed,
            )
        )
    return {
        "rss_ceiling_mb": MEMORY_SMOKE_RSS_CEILING_MB,
        "cases": [_run_memory_case(**case) for case in cases],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller population + replay"
    )
    parser.add_argument(
        "--scale", type=float, default=0.1, help="ML1 replay scale"
    )
    parser.add_argument(
        "--recovery-only",
        action="store_true",
        help="run only the kill/recovery scenario and merge it into an "
        "existing report (the CI fault-tolerance smoke)",
    )
    parser.add_argument(
        "--autoscale-smoke",
        action="store_true",
        help="run only the elastic grow/shrink scenario and merge it into "
        "an existing report (the CI elasticity smoke)",
    )
    parser.add_argument(
        "--obs-overhead",
        action="store_true",
        help="run only the metrics-on vs metrics-off overhead gate and "
        "merge it into an existing report (the CI observability smoke)",
    )
    parser.add_argument(
        "--memory-smoke",
        action="store_true",
        help="run only the 100k-user memory case, assert its peak RSS "
        "stays under the ceiling, and merge it into an existing report "
        "(the CI memory-scale smoke)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_cluster.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    if args.memory_smoke:
        memory = bench_memory(full=False)
        (case,) = memory["cases"]
        if case["peak_rss_mb"] > MEMORY_SMOKE_RSS_CEILING_MB:
            raise SystemExit(
                f"memory smoke: peak RSS {case['peak_rss_mb']} MB "
                f"exceeds the {MEMORY_SMOKE_RSS_CEILING_MB} MB ceiling"
            )
        report = (
            json.loads(args.output.read_text())
            if args.output.exists()
            else {}
        )
        report["memory"] = memory
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"updated memory section of {args.output}")
        return 0

    if args.obs_overhead:
        obs = bench_obs_overhead(
            scale=min(args.scale, 0.03) if args.quick else args.scale
        )
        report = (
            json.loads(args.output.read_text())
            if args.output.exists()
            else {}
        )
        report["obs_overhead"] = obs
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"updated obs_overhead section of {args.output}")
        return 0

    if args.autoscale_smoke:
        autoscale = (
            bench_autoscale(
                num_users=200, ramp_writes=1500, catalog=1500,
                requests=96, batch_window=16, max_shards=4,
            )
            if args.quick
            else bench_autoscale(
                num_users=400, ramp_writes=4000, catalog=2500,
                requests=256, batch_window=32, max_shards=8,
            )
        )
        report = (
            json.loads(args.output.read_text())
            if args.output.exists()
            else {}
        )
        report["autoscale"] = autoscale
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"updated autoscale section of {args.output}")
        return 0

    if args.quick:
        recovery = bench_recovery(
            num_users=200, profile_size=80, catalog=1500, k=10,
            requests=128, batch_window=16,
        )
    else:
        recovery = bench_recovery(
            num_users=400, profile_size=150, catalog=2500, k=20,
            requests=384, batch_window=32,
        )

    if args.recovery_only:
        # Merge into the tracked report: the sweep/replay/skew sections
        # from the last full run stay comparable across PRs.
        report = (
            json.loads(args.output.read_text())
            if args.output.exists()
            else {}
        )
        report["recovery"] = recovery
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"updated recovery section of {args.output}")
        return 0

    if args.quick:
        sweep = bench_sweep(
            num_users=300, profile_size=120, catalog=2000, k=20,
            requests=192, batch_window=32,
        )
        replay = bench_replay(scale=min(args.scale, 0.03), num_shards=4)
        skew = bench_skew(num_users=200, writes=2000, num_shards=8)
        autoscale = bench_autoscale(
            num_users=200, ramp_writes=1500, catalog=1500,
            requests=96, batch_window=16, max_shards=4,
        )
        obs = bench_obs_overhead(scale=min(args.scale, 0.03))
        memory = bench_memory(full=False)
    else:
        sweep = bench_sweep(
            num_users=800, profile_size=200, catalog=2500, k=20,
            requests=512, batch_window=32,
        )
        replay = bench_replay(scale=args.scale, num_shards=4)
        skew = bench_skew(num_users=400, writes=8000, num_shards=8)
        autoscale = bench_autoscale(
            num_users=400, ramp_writes=4000, catalog=2500,
            requests=256, batch_window=32, max_shards=8,
        )
        obs = bench_obs_overhead(scale=args.scale)
        memory = bench_memory(full=True)

    report = {
        "sweep": sweep,
        "replay": [replay],
        "skew": skew,
        "recovery": recovery,
        "autoscale": autoscale,
        "obs_overhead": obs,
        "memory": memory,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
