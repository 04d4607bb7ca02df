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
from itertools import count
from typing import Iterable, NamedTuple

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


def _note_pid() -> None:
    """Cache this process's pid and id salt (again in a forked child)."""
    global _PID, _SALT
    _PID = os.getpid()
    _SALT = (_PID & 0xFFFF) << 40


_note_pid()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_note_pid)


def salted_id(seq: int) -> int:
    """A process-unique id: low pid bits salt a local sequence number."""
    return _SALT | (seq & 0xFFFFFFFFFF)


def _pack(args: dict[str, object]) -> tuple[tuple[str, str], ...]:
    """Annotations as ``(key, str(value))`` pairs, in keyword order."""
    return tuple([(key, str(value)) for key, value in args.items()]) if args else ()


#: ``_new_record(SpanRecord, fields)`` builds a record in C, skipping
#: the generated keyword-taking ``__new__`` (as ``SpanRecord._make`` does).
_new_record = tuple.__new__


class SpanRecord(NamedTuple):
    """One finished span (immutable; the unit of export/adoption).

    A named tuple rather than a frozen dataclass: a record is minted
    for every span a traced request opens, and a frozen dataclass
    spends most of its construction in per-field ``object.__setattr__``
    -- time that lands in the parent span, outside every measured stage.
    """

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
        self._args = self._args + _pack(args)

    def finish(self) -> None:
        """Close the span and hand the record to the tracer (idempotent)."""
        if self._done:
            return
        self._done = True
        start = self._start_us
        self._tracer._spans.append(
            _new_record(
                SpanRecord,
                (
                    self.trace_id,
                    self.span_id,
                    self.parent_id,
                    self.name,
                    start,
                    now_us() - start,
                    _PID,
                    self._args,
                ),
            )
        )

    def __enter__(self) -> "Span":
        self._tracer._tls.stack.append((self.trace_id, self.span_id))
        self._activated = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._activated:
            self._tracer._tls.stack.pop()
            self._activated = False
        self.finish()


class _Stacks(threading.local):
    """Each thread's stack of active span contexts, innermost last."""

    def __init__(self) -> None:
        self.stack: list[SpanContext] = []


class Tracer:
    """Span factory + bounded in-memory trace buffer.

    The buffer is a ring (``capacity`` finished spans) so a long
    replay with tracing left on degrades to "most recent traces"
    instead of unbounded memory.  Thread safety: span creation and the
    active-span stack are thread-local; the finished-span ring is a
    ``deque`` with atomic appends, so pool threads and adopted worker
    spans interleave safely.

    Everything a span does before its start stamp and after its end
    stamp is booked to its parent's self time, so the span lifecycle
    below is kept to plain attribute access: no lock (``next`` on an
    ``itertools.count`` is atomic under the GIL), no per-call
    thread-local lookup with a default, no keyword re-packing.
    """

    def __init__(self, enabled: bool = False, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._ids = count(1)
        self._tls = _Stacks()

    # --- span lifecycle -----------------------------------------------------

    def _next_id(self) -> int:
        return salted_id(next(self._ids))

    def _open(
        self,
        name: str,
        parent: SpanContext | None,
        args: dict[str, object],
    ) -> Span:
        if parent is None:
            trace_id = self._next_id()
            return Span(self, trace_id, self._next_id(), 0, name, _pack(args))
        return Span(self, parent[0], self._next_id(), parent[1], name, _pack(args))

    @property
    def current(self) -> SpanContext | None:
        """The innermost active span's context on this thread."""
        stack = self._tls.stack
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
        return self._open(name, parent, args)

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
            stack = self._tls.stack
            parent = stack[-1] if stack else None
        return self._open(name, parent, args)

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
        self._spans.append(
            SpanRecord(
                trace_id=parent[0],
                span_id=self._next_id(),
                parent_id=parent[1],
                name=name,
                start_us=start_us,
                dur_us=dur_us,
                pid=_PID,
                args=_pack(args),
            )
        )

    def adopt(self, records: Iterable[SpanRecord]) -> None:
        """Absorb spans measured elsewhere (worker processes)."""
        if not self.enabled:
            return
        self._spans.extend(records)

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
        self._tracer._tls.stack.append(self._span.ctx)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._tls.stack.pop()
