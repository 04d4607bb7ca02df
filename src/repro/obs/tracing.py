"""Request-lifecycle tracing: spans, cross-process stitching, export.

One request through the sharded engine becomes one *trace*: a root
``request`` span with children covering every phase the coordinator
drives -- ``schedule`` (time in the batching window), ``scatter``,
``score`` with one ``shardN:score`` child per shard, ``merge``, and
``respond`` (the KNN update).  With ``executor="process"`` the
per-shard score spans are measured *inside the worker process*: the
trace context rides out on the ``JobSlices`` frame, the worker stamps
its measured span onto the ``Partials`` reply, and the parent adopts
it -- so the exported trace stitches both sides of the process
boundary under one trace id.

Timestamps are ``time.perf_counter_ns() // 1000`` microseconds.  On
Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which is system-wide,
so parent and forked-worker timestamps share a timeline and the
stitched spans nest correctly in the export.

Exports are Chrome trace-event JSON (complete ``"ph": "X"`` events),
loadable directly in Perfetto / ``chrome://tracing``; see
``docs/observability.md`` for the how-to.

Span ids are salted with the low bits of the pid, so ids minted by a
worker process can never collide with the parent's within a trace.

Like the metrics registry, tracing is exactness-neutral: a disabled
tracer hands out a shared null span whose methods are no-ops, and no
trace content ever rides a frame unless the batch was stamped with a
live trace context.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "Span",
    "SpanContext",
    "SpanRecord",
    "Tracer",
    "now_us",
]

#: ``(trace_id, span_id)`` -- everything a child (possibly in another
#: process) needs to attach to a span.
SpanContext = tuple[int, int]


def now_us() -> int:
    """Monotonic microseconds, comparable across forked processes."""
    return time.perf_counter_ns() // 1000


def salted_id(seq: int) -> int:
    """A process-unique id: low pid bits salt a local sequence number."""
    return ((os.getpid() & 0xFFFF) << 40) | (seq & 0xFFFFFFFFFF)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (immutable; the unit of export/adoption)."""

    trace_id: int
    span_id: int
    parent_id: int  # 0 for a trace's root span
    name: str
    start_us: int
    dur_us: int
    pid: int
    args: tuple[tuple[str, str], ...] = ()


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()

    ctx: SpanContext | None = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def annotate(self, **args: object) -> None:
        pass

    def finish(self) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """A live span; finish it explicitly or via the context manager.

    Entering the span as a context manager additionally *activates* it
    (pushes its context onto the tracer's thread-local stack) so
    nested ``tracer.span(...)`` calls parent to it implicitly.  A span
    used without ``with`` (the pre-allocated request roots of
    ``request_batch``) never touches the stack; activate it explicitly
    with :meth:`Tracer.activate` where implicit parenting is wanted.
    """

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name", "_start_us", "_args", "_done", "_activated")

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: int,
        name: str,
        args: tuple[tuple[str, str], ...],
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self._args = args
        self._start_us = now_us()
        self._done = False
        self._activated = False

    @property
    def ctx(self) -> SpanContext:
        return (self.trace_id, self.span_id)

    def annotate(self, **args: object) -> None:
        """Attach key/value annotations (stringified at export)."""
        self._args = self._args + tuple(
            (key, str(value)) for key, value in args.items()
        )

    def finish(self) -> None:
        """Close the span and hand the record to the tracer (idempotent)."""
        if self._done:
            return
        self._done = True
        self._tracer._record(
            SpanRecord(
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_us=self._start_us,
                dur_us=now_us() - self._start_us,
                pid=os.getpid(),
                args=self._args,
            )
        )

    def __enter__(self) -> "Span":
        self._tracer._push(self.ctx)
        self._activated = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._activated:
            self._tracer._pop()
            self._activated = False
        self.finish()


class Tracer:
    """Span factory + bounded in-memory trace buffer.

    The buffer is a ring (``capacity`` finished spans) so a long
    replay with tracing left on degrades to "most recent traces"
    instead of unbounded memory.  Thread safety: span creation and the
    active-span stack are thread-local; the finished-span ring is a
    ``deque`` with atomic appends, so pool threads and adopted worker
    spans interleave safely.
    """

    def __init__(self, enabled: bool = False, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._tls = threading.local()

    # --- span lifecycle -----------------------------------------------------

    def _next_id(self) -> int:
        with self._lock:
            self._seq += 1
            return salted_id(self._seq)

    def _stack(self) -> list[SpanContext]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _push(self, ctx: SpanContext) -> None:
        self._stack().append(ctx)

    def _pop(self) -> None:
        self._stack().pop()

    def _record(self, record: SpanRecord) -> None:
        self._spans.append(record)

    @property
    def current(self) -> SpanContext | None:
        """The innermost active span's context on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(
        self,
        name: str,
        parent: SpanContext | None = None,
        **args: object,
    ) -> Span | _NullSpan:
        """Open a span explicitly (no stack interaction until entered).

        With ``parent=None`` this starts a *new trace* (the span is the
        root); pass a context to attach to an existing trace instead.
        """
        if not self.enabled:
            return _NULL_SPAN
        packed = tuple((key, str(value)) for key, value in args.items())
        if parent is None:
            trace_id = self._next_id()
            return Span(self, trace_id, self._next_id(), 0, name, packed)
        return Span(self, parent[0], self._next_id(), parent[1], name, packed)

    def span(
        self,
        name: str,
        parent: SpanContext | None = None,
        **args: object,
    ) -> Span | _NullSpan:
        """Open a child span, defaulting the parent to the active span.

        Meant for ``with`` use on the thread that owns the active
        stack; tasks running on pool threads must pass ``parent``
        explicitly (their stack is empty).
        """
        if not self.enabled:
            return _NULL_SPAN
        if parent is None:
            parent = self.current
        return self.begin(name, parent=parent, **args)

    def activate(self, span: Span | _NullSpan):
        """Context manager making ``span`` the implicit parent, without
        finishing it on exit (unlike entering the span itself).  A null
        span activates to itself: nothing to push, nothing to allocate."""
        if not isinstance(span, Span):
            return span
        return _Activation(self, span)

    def add(
        self,
        name: str,
        parent: SpanContext,
        start_us: int,
        dur_us: int,
        **args: object,
    ) -> None:
        """Record a pre-measured span (e.g. scheduler queueing time)."""
        if not self.enabled:
            return
        self._record(
            SpanRecord(
                trace_id=parent[0],
                span_id=self._next_id(),
                parent_id=parent[1],
                name=name,
                start_us=start_us,
                dur_us=dur_us,
                pid=os.getpid(),
                args=tuple((key, str(value)) for key, value in args.items()),
            )
        )

    def adopt(self, records: Iterable[SpanRecord]) -> None:
        """Absorb spans measured elsewhere (worker processes)."""
        if not self.enabled:
            return
        for record in records:
            self._record(record)

    # --- introspection / export ---------------------------------------------

    @property
    def spans(self) -> list[SpanRecord]:
        """Finished spans, oldest first (bounded by ``capacity``)."""
        return list(self._spans)

    def trace_ids(self) -> set[int]:
        return {record.trace_id for record in self._spans}

    def traces(self) -> dict[int, list[SpanRecord]]:
        """Finished spans grouped by trace id (insertion order kept)."""
        grouped: dict[int, list[SpanRecord]] = {}
        for record in self._spans:
            grouped.setdefault(record.trace_id, []).append(record)
        return grouped

    def reset(self) -> None:
        self._spans.clear()

    def chrome_trace(self) -> dict:
        """The buffer as a Chrome trace-event JSON object.

        Complete (``"ph": "X"``) events; ``pid`` is the measuring
        process (workers show up as their own process track), ``tid``
        is the trace id so one request reads as one row per process.
        """
        events = []
        for record in self._spans:
            events.append(
                {
                    "name": record.name,
                    "ph": "X",
                    "ts": record.start_us,
                    "dur": record.dur_us,
                    "pid": record.pid,
                    "tid": record.trace_id & 0xFFFFFFFF,
                    "args": dict(record.args)
                    | {
                        "trace_id": record.trace_id,
                        "span_id": record.span_id,
                        "parent_id": record.parent_id,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path: str) -> int:
        """Write :meth:`chrome_trace` to ``path``; returns span count."""
        payload = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(payload["traceEvents"])


class _Activation:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span.ctx)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._pop()
