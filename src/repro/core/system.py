"""End-to-end HyRec: server + widgets + trace replay.

:class:`HyRecSystem` wires a :class:`~repro.core.server.HyRecServer`
to a stateless :class:`~repro.core.client.HyRecWidget` and drives the
full interaction of Figure 1 (bottom):

1. the user rates an item / opens a page -> the server updates her
   profile and builds a personalization job (Arrows 1-2),
2. the widget computes recommendations and a KNN iteration,
3. the result flows back and the server updates the KNN table
   (Arrow 3).

:meth:`HyRecSystem.replay` replays a rating trace exactly as Section
5.2 describes: "When a user rates an item in the workload, the client
sends a request to the server, triggering the computation of
recommendations."  The optional ``inter_request_bound`` reproduces the
``IR=7`` variant of Figure 3, where every user issues a request at
least once per simulated week while she exists.
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

if TYPE_CHECKING:  # imported lazily at runtime (cluster imports core back)
    from repro.cluster import BatchScheduler

from repro.core.client import HyRecWidget
from repro.core.config import HyRecConfig
from repro.core.jobs import JobResult, PersonalizationJob
from repro.core.server import HyRecServer
from repro.datasets.schema import Trace
from repro.engine.jobs import EngineJob
from repro.engine.widget import VectorizedWidget


class RequestOutcome(NamedTuple):
    """Everything produced by one full client-server round trip."""

    user_id: int
    timestamp: float
    job: PersonalizationJob | EngineJob
    result: JobResult
    recommendations: list[int]  # resolved to real item ids


#: Callback invoked after each round trip during replay.
RequestObserver = Callable[[RequestOutcome], None]


class HyRecSystem:
    """A complete HyRec deployment for simulation studies."""

    def __init__(self, config: HyRecConfig | None = None, seed: int = 0) -> None:
        self.config = config if config is not None else HyRecConfig()
        self.server = HyRecServer(self.config, seed=seed)
        self.widget = (
            VectorizedWidget()
            if self.config.engine in ("vectorized", "sharded")
            else HyRecWidget()
        )
        #: Request-coalescing window in front of the cluster
        #: coordinator; only materialized for ``engine="sharded"``.
        self.scheduler: "BatchScheduler | None" = None
        if self.server.cluster is not None:
            from repro.cluster import BatchScheduler

            self.scheduler = BatchScheduler(
                self.server.cluster, batch_window=self.config.batch_window
            )
            if self.server.rebalancer is not None:
                # The rebalancer drains this window before migrating a
                # bucket, so no admitted-but-undispatched job ever
                # spans a routing-epoch change.
                self.server.rebalancer.scheduler = self.scheduler
        self.requests_served = 0

    @property
    def widget(self) -> HyRecWidget | VectorizedWidget:
        """The widget every request's job runs on (replaceable)."""
        return self._widget

    @widget.setter
    def widget(self, widget: HyRecWidget | VectorizedWidget) -> None:
        self._widget = widget
        # Whether the in-process integer fast path applies.  It needs an
        # array engine (vectorized or sharded), a built-in metric with
        # no custom widget hooks, and real item ids on the wire (item
        # anonymization only exists on serialized payloads).  All of
        # that is fixed once the server exists, except the widget.
        self._fast_path = (
            (
                self.server.liked_matrix is not None
                or self.server.cluster is not None
            )
            and not self.config.anonymize_items
            and isinstance(widget, VectorizedWidget)
            and widget.can_vectorize(self.config.metric)
        )

    def _admit(
        self, user_id: int, now: float
    ) -> PersonalizationJob | EngineJob:
        """The server's half of a request: sample a job, meter its response.

        The job is rendered exactly as the HTTP deployment would render
        it, so replay bandwidth numbers are real -- but nobody here
        reads the body, so it is only weighed (``body=False``).  The
        stages run under ``sample`` / ``render`` spans of the active
        request.
        """
        server, tracer = self.server, self.server.obs.tracer
        if self._fast_path:
            build, render = server.handle_engine_request, server.render_engine_response
        else:
            build, render = server.handle_online_request, server.render_online_response
        with tracer.span("sample"):
            job = build(user_id, now=now)
        with tracer.span("render"):
            render(job, body=False)
        return job

    def _execute(
        self, job: PersonalizationJob | EngineJob, parent=None
    ) -> JobResult:
        """The client's half: KNN selection and recommendation for ``job``.

        Runs under a ``score`` span -- except on the sharded engine,
        whose coordinator emits its own scatter/score/merge spans.
        """
        server = self.server
        if self._fast_path and server.cluster is not None:
            return server.cluster.process_engine_job(job)
        with server.obs.tracer.span("score", parent=parent):
            if self._fast_path:
                return self._widget.process_engine_job(job, server.liked_matrix)
            return self._widget.process_job(job)

    def close(self) -> None:
        """Release engine resources; no-op except on the sharded engine.

        On ``executor="process"`` this is the clean end of the worker
        lifecycle that construction began (spawn + warm-start replay):
        every worker process receives a shutdown frame and is joined.
        Use the system as a context manager to make it automatic.
        """
        self.server.close()

    def __enter__(self) -> "HyRecSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --- single interactions ----------------------------------------------------

    def record_rating(
        self, user_id: int, item: int, value: float, timestamp: float = 0.0
    ) -> None:
        """Forward one rating to the server's Profile Table."""
        self.server.record_rating(user_id, item, value, timestamp)

    def request(self, user_id: int, now: float = 0.0) -> RequestOutcome:
        """One full personalization round trip for ``user_id``.

        When tracing is on, the whole round trip runs under a root
        ``request`` span with one child per stage (``sample``,
        ``render``, ``score``, ``respond``) -- the job carries the
        root's context down through the scheduler and shard frames, so
        worker score spans stitch into the same trace -- and every
        request feeds the latency histogram (plus the slow-request log
        past its threshold).
        """
        obs = self.server.obs
        tracer = obs.tracer
        start_ns = time.perf_counter_ns()
        span = tracer.begin("request", user=user_id)
        with tracer.activate(span):
            job = self._admit(user_id, now)
            result = self._execute(job)
            with tracer.span("respond"):
                recommendations = self.server.handle_knn_update(user_id, result)
        span.finish()
        obs.note_request(user_id, (time.perf_counter_ns() - start_ns) / 1e9)
        self.requests_served += 1
        return RequestOutcome(user_id, now, job, result, recommendations)

    def recommend(self, user_id: int, n: int | None = None) -> list[int]:
        """Convenience API: the top-``n`` recommendations for a user."""
        outcome = self.request(user_id)
        if n is None:
            return outcome.recommendations
        return outcome.recommendations[:n]

    def request_batch(
        self, user_ids: list[int], now: float = 0.0
    ) -> list[RequestOutcome]:
        """Serve a window of *concurrent* requests.

        Concurrency semantics: every job is built against the table
        state at admission (none of the batch's KNN updates are
        visible to its own sampling, exactly as simultaneous requests
        against one server would see), then all jobs execute, then the
        KNN updates apply in submission order.  On the sharded engine
        the jobs flow through the :class:`~repro.cluster.BatchScheduler`
        and execute as one batched kernel invocation per shard per
        window; on the other engines they execute one by one.  For the
        same admission state, per-job results are identical on every
        engine and batch size.
        """
        obs = self.server.obs
        tracer = obs.tracer
        jobs: list[PersonalizationJob | EngineJob] = []
        # One root span per member of the window, begun at admission
        # (that is when the user's request "arrived"); each stays open
        # across the shared dispatch so schedule/batch spans can parent
        # under it, and closes after its own KNN update below.
        spans = []
        starts_ns: list[int] = []
        for user_id in user_ids:
            starts_ns.append(time.perf_counter_ns())
            span = tracer.begin("request", user=user_id)
            spans.append(span)
            with tracer.activate(span):
                jobs.append(self._admit(user_id, now))

        # Explicit parents from here on: the thread-local stack belongs
        # to the dispatch loop, not to any one request's admission.
        if self._fast_path and self.scheduler is not None:
            results = self.scheduler.run(jobs)  # type: ignore[arg-type]
        else:
            results = [
                self._execute(job, parent=span.ctx)
                for job, span in zip(jobs, spans)
            ]

        outcomes: list[RequestOutcome] = []
        for user_id, job, result, span, start_ns in zip(
            user_ids, jobs, results, spans, starts_ns
        ):
            with tracer.span("respond", parent=span.ctx):
                recommendations = self.server.handle_knn_update(user_id, result)
            span.finish()
            obs.note_request(user_id, (time.perf_counter_ns() - start_ns) / 1e9)
            self.requests_served += 1
            outcomes.append(
                RequestOutcome(user_id, now, job, result, recommendations)
            )
        return outcomes

    # --- trace replay ---------------------------------------------------------------

    def replay(
        self,
        trace: Trace,
        on_request: Optional[RequestObserver] = None,
        inter_request_bound: Optional[float] = None,
        request_on_rating: bool = True,
    ) -> int:
        """Replay ``trace`` through the full system; return requests served.

        Args:
            trace: A binarized, time-sorted rating trace.
            on_request: Observer called after every round trip (metric
                probes hook in here).
            inter_request_bound: If set (seconds), every user issues a
                request at least this often after her first activity --
                the ``IR=7`` (one week) variant of Figure 3.
            request_on_rating: If ``False``, ratings only update
                profiles and *only* the synthetic inter-request
                activity triggers personalization (used by ablations).
        """
        served_before = self.requests_served
        due_heap: list[tuple[float, int]] = []  # (due time, user)
        last_request: dict[int, float] = {}

        def fire(user_id: int, now: float) -> None:
            outcome = self.request(user_id, now=now)
            last_request[user_id] = now
            if inter_request_bound is not None:
                heapq.heappush(due_heap, (now + inter_request_bound, user_id))
            if on_request is not None:
                on_request(outcome)

        def run_due(now: float) -> None:
            while due_heap and due_heap[0][0] <= now:
                due_time, user_id = heapq.heappop(due_heap)
                # Skip stale entries: the user requested more recently.
                expected_due = last_request.get(user_id, 0.0) + (
                    inter_request_bound or 0.0
                )
                if due_time < expected_due:
                    continue
                fire(user_id, due_time)

        for rating in trace:
            if inter_request_bound is not None:
                run_due(rating.timestamp)
            self.record_rating(
                rating.user, rating.item, rating.value, rating.timestamp
            )
            if request_on_rating:
                fire(rating.user, rating.timestamp)
            elif inter_request_bound is not None and rating.user not in last_request:
                # First activity starts the user's request schedule.
                last_request[rating.user] = rating.timestamp
                heapq.heappush(
                    due_heap, (rating.timestamp + inter_request_bound, rating.user)
                )
        return self.requests_served - served_before
