"""Figures 8 and 9: front-end response time and concurrency scaling.

Both experiments compare the per-request work of the two front-ends:

* **HyRec** serves ``/online/`` -- sampler lookup, job assembly, JSON
  encoding, gzip.  Measured by timing the real
  :class:`~repro.core.api.WebApi` byte path.
* **CRec** computes recommendations server-side -- sampler lookup plus
  Algorithm 2 over the candidate profiles.  Measured by timing the
  real :meth:`~repro.baselines.crec.CRecFrontend.serve`.
* **Online-Ideal** additionally recomputes the exact KNN per request.

The population is synthetic with exactly controlled profile sizes, and
the KNN tables are randomized so candidate sets sit near their
``2k + k^2`` worst case -- the paper's "worst case" setup for these
figures.  Figure 9 feeds the measured service-time samples into the
closed-loop queueing model (8 workers, like the PowerEdge's cores) and
sweeps the number of concurrent clients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.crec import CRecFrontend
from repro.baselines.online_ideal import OnlineIdealSystem
from repro.core.api import WebApi
from repro.core.config import HyRecConfig
from repro.core.server import HyRecServer
from repro.eval.common import format_rows
from repro.obs.timing import summarize_latencies
from repro.sim.loadgen import LoadGenerator, LoadResult
from repro.sim.randomness import derive_rng


# --- synthetic population ----------------------------------------------------


def build_population(
    num_users: int,
    profile_size: int,
    num_items: int | None = None,
    k: int = 10,
    seed: int = 0,
) -> HyRecServer:
    """A server preloaded with fixed-size profiles and random KNN rows.

    Random neighbor rows keep two-hop neighborhoods mostly disjoint,
    which maximizes candidate-set size -- the worst case the paper
    measures ("ignoring the decreasing size of the candidate set as
    the neighborhood converges").
    """
    if num_users <= k + 1:
        raise ValueError("population must exceed the neighborhood size")
    catalog = num_items if num_items is not None else max(1000, profile_size * 4)
    rng = derive_rng(seed, "population")
    server = HyRecServer(HyRecConfig(k=k, r=10), seed=seed)
    for user in range(num_users):
        items = rng.sample(range(catalog), min(profile_size, catalog))
        for item in items:
            value = 1.0 if rng.random() < 0.8 else 0.0
            server.record_rating(user, item, value, timestamp=0.0)
    users = list(range(num_users))
    for user in users:
        neighbors = rng.sample(users, k + 1)
        neighbors = [n for n in neighbors if n != user][:k]
        server.knn_table.update(user, neighbors)
    return server


def measure_hyrec_service(
    server: HyRecServer, requests: int, seed: int = 0
) -> list[float]:
    """Measured seconds per ``/online/`` response (build+JSON+gzip)."""
    api = WebApi(server)
    rng = derive_rng(seed, "hyrec-requests")
    users = server.profiles.users()
    samples: list[float] = []
    for _ in range(requests):
        user = users[rng.randrange(len(users))]
        start = time.perf_counter()
        api.online(user)
        samples.append(time.perf_counter() - start)
    return samples


def measure_crec_service(
    server: HyRecServer, requests: int, seed: int = 0
) -> list[float]:
    """Measured seconds per CRec front-end response (Algorithm 2)."""
    frontend = CRecFrontend(
        server.profiles, server.knn_table, k=server.config.k, seed=seed
    )
    rng = derive_rng(seed, "crec-requests")
    users = server.profiles.users()
    samples: list[float] = []
    for _ in range(requests):
        user = users[rng.randrange(len(users))]
        samples.append(frontend.serve(user).service_time_s)
    return samples


def measure_online_ideal_service(
    server: HyRecServer, requests: int, k: int, seed: int = 0
) -> list[float]:
    """Measured seconds per Online-Ideal response (global KNN + recs)."""
    system = OnlineIdealSystem(k=k)
    for user in server.profiles.users():
        profile = server.profiles.get(user)
        for item in profile.rated_items():
            system.record_rating(user, item, profile.value_of(item) or 0.0)
    rng = derive_rng(seed, "ideal-requests")
    users = server.profiles.users()
    samples: list[float] = []
    for _ in range(requests):
        user = users[rng.randrange(len(users))]
        samples.append(system.request(user).service_time_s)
    return samples


# --- Figure 8 -------------------------------------------------------------------


@dataclass
class Fig8Result:
    """Mean response time (ms) per system per profile size."""

    profile_sizes: list[int]
    num_users: int
    requests: int
    mean_ms: dict[str, dict[int, float]] = field(default_factory=dict)

    def format_report(self) -> str:
        headers = ["System"] + [f"ps={ps}" for ps in self.profile_sizes]
        rows = []
        for name, by_ps in self.mean_ms.items():
            rows.append(
                [name] + [f"{by_ps[ps]:.2f}ms" for ps in self.profile_sizes]
            )
        return format_rows(
            headers,
            rows,
            title=(
                f"Figure 8 -- mean response time over {self.requests} requests "
                f"({self.num_users} users)"
            ),
        )


def run_fig8(
    profile_sizes: tuple[int, ...] = (10, 50, 100, 250, 500),
    num_users: int = 400,
    requests: int = 200,
    seed: int = 0,
    include_online_ideal: bool = True,
) -> Fig8Result:
    """Measure all front-ends across profile sizes."""
    result = Fig8Result(
        profile_sizes=list(profile_sizes), num_users=num_users, requests=requests
    )
    systems = ["HyRec k=10", "HyRec k=20", "CRec k=10", "CRec k=20"]
    if include_online_ideal:
        systems.append("Online Ideal k=10")
    for name in systems:
        result.mean_ms[name] = {}

    for ps in profile_sizes:
        for k in (10, 20):
            server = build_population(num_users, ps, k=k, seed=seed)
            hyrec = measure_hyrec_service(server, requests, seed=seed)
            crec = measure_crec_service(server, requests, seed=seed)
            result.mean_ms[f"HyRec k={k}"][ps] = summarize_latencies(hyrec).mean_ms
            result.mean_ms[f"CRec k={k}"][ps] = summarize_latencies(crec).mean_ms
            if k == 10 and include_online_ideal:
                ideal = measure_online_ideal_service(
                    server, max(10, requests // 10), k=k, seed=seed
                )
                result.mean_ms["Online Ideal k=10"][ps] = summarize_latencies(
                    ideal
                ).mean_ms
    return result


# --- Figure 9 -----------------------------------------------------------------------


@dataclass
class Fig9Result:
    """Mean response time versus number of concurrent clients."""

    concurrencies: list[int]
    workers: int
    curves: dict[str, list[LoadResult]] = field(default_factory=dict)

    def saturation_capacity(self, name: str, threshold_ms: float = 1000.0) -> int:
        """Largest swept concurrency whose mean response stays under
        ``threshold_ms`` (the "able to serve" notion of Section 5.5)."""
        best = 0
        for load_result in self.curves[name]:
            if load_result.mean_response_ms <= threshold_ms:
                best = max(best, load_result.concurrency)
        return best

    def format_report(self) -> str:
        headers = ["Concurrency"] + list(self.curves)
        rows = []
        for index, conc in enumerate(self.concurrencies):
            row = [str(conc)]
            for name in self.curves:
                row.append(f"{self.curves[name][index].mean_response_ms:.1f}ms")
            rows.append(row)
        return format_rows(
            headers,
            rows,
            title=f"Figure 9 -- response time vs concurrent requests "
            f"({self.workers} workers)",
        )


def run_fig9(
    concurrencies: tuple[int, ...] = (1, 25, 50, 100, 200, 400, 700, 1000),
    profile_sizes: tuple[int, ...] = (10, 100),
    num_users: int = 300,
    calibration_requests: int = 120,
    workers: int = 8,
    seed: int = 0,
) -> Fig9Result:
    """Sweep concurrency with measured service-time samples."""
    result = Fig9Result(concurrencies=list(concurrencies), workers=workers)
    for ps in profile_sizes:
        server = build_population(num_users, ps, k=10, seed=seed)
        for system, samples in (
            ("HyRec", measure_hyrec_service(server, calibration_requests, seed)),
            ("CRec", measure_crec_service(server, calibration_requests, seed)),
        ):
            name = f"{system} ps={ps}"
            generator = LoadGenerator(
                service_time_fn=lambda seq, s=samples: s[seq % len(s)],
                workers=workers,
            )
            result.curves[name] = generator.sweep_concurrency(
                list(concurrencies), requests_per_point=max(concurrencies)
            )
    return result


def scalability_factor(
    hyrec_profile_size: int = 1000,
    crec_profile_size: int = 10,
    num_users: int = 200,
    requests: int = 60,
    workers: int = 8,
    threshold_ms: float = 100.0,
    seed: int = 0,
) -> dict[str, float]:
    """The Section 5.5 scalability claim, measured.

    The paper: "HyRec is able to serve as many concurrent requests
    with a profile size of 1000 as CRec with a profile size of 10"
    (a 100-fold profile-size advantage).  We compute each front-end's
    sustainable concurrency ``workers * threshold / service_time`` at
    its respective profile size and report the ratio.
    """
    hyrec_server = build_population(num_users, hyrec_profile_size, k=10, seed=seed)
    crec_server = build_population(num_users, crec_profile_size, k=10, seed=seed)
    hyrec_mean = summarize_latencies(
        measure_hyrec_service(hyrec_server, requests, seed)
    ).mean
    crec_mean = summarize_latencies(
        measure_crec_service(crec_server, requests, seed)
    ).mean
    threshold_s = threshold_ms / 1e3
    hyrec_capacity = workers * threshold_s / hyrec_mean
    crec_capacity = workers * threshold_s / crec_mean
    return {
        "hyrec_service_ms": hyrec_mean * 1e3,
        "crec_service_ms": crec_mean * 1e3,
        "hyrec_capacity": hyrec_capacity,
        "crec_capacity": crec_capacity,
        "capacity_ratio": hyrec_capacity / crec_capacity,
        "profile_size_ratio": hyrec_profile_size / crec_profile_size,
    }
