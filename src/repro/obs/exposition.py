"""Exposition: Prometheus text rendering and wire-sample conversion.

Two jobs live here:

* :func:`render_prometheus` turns :class:`~repro.obs.registry.MetricSample`
  rows into the Prometheus text exposition format (``# TYPE`` headers,
  cumulative ``le`` histogram buckets, ``_sum``/``_count`` series) --
  what ``GET /metrics`` on :mod:`repro.web` serves.
* :func:`sample_to_wire_parts` / :func:`sample_from_wire` convert
  between registry samples and the flat ``(kind, name, labels,
  values, bounds)`` shape the protocol's ``MetricsSnapshot`` frame
  carries, so worker-process registries aggregate over the wire
  without this module ever importing the transport (the conversion is
  duck-typed on the wire sample's fields; the frame classes live in
  :mod:`repro.cluster.transport`).

:func:`server_samples` is the one-stop aggregation for a deployment:
the server registry's snapshot (hot-path instruments plus collector
samples) merged with every worker's shipped snapshot.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.obs.registry import LabelSet, MetricSample, merge_samples

__all__ = [
    "metrics_text",
    "render_prometheus",
    "sample_from_wire",
    "sample_to_wire_parts",
    "server_samples",
]

_KIND_CODES = ("counter", "gauge", "histogram")


# --- wire conversion (MetricsSnapshot payloads) -----------------------------


def sample_to_wire_parts(
    sample: MetricSample,
) -> tuple[int, str, str, list[float], list[float]]:
    """Flatten one sample for a ``MetricsSnapshot`` frame.

    Returns ``(kind code, name, labels string, values, bounds)``;
    histogram values are ``[count, sum, *bucket_counts]`` with the
    bucket bounds shipped alongside so the parent needs no shared
    bucket config.
    """
    kind = _KIND_CODES.index(sample.kind)
    labels = ",".join(f"{key}={value}" for key, value in sample.labels)
    if sample.kind == "histogram":
        values = [float(sample.count), sample.total] + [
            float(count) for count in sample.bucket_counts
        ]
        return kind, sample.name, labels, values, list(sample.bounds)
    return kind, sample.name, labels, [sample.value], []


def _parse_labels(labels: str) -> LabelSet:
    if not labels:
        return ()
    pairs = []
    for part in labels.split(","):
        key, _, value = part.partition("=")
        pairs.append((key, value))
    return tuple(pairs)


def sample_from_wire(wire) -> MetricSample:
    """Rebuild a :class:`MetricSample` from a wire sample (duck-typed).

    ``wire`` needs ``kind``/``name``/``labels``/``values``/``bounds``
    fields -- the shape of ``repro.cluster.transport.WireSample``.
    """
    kind = _KIND_CODES[int(wire.kind)]
    labels = _parse_labels(wire.labels)
    values = [float(value) for value in wire.values]
    if kind == "histogram":
        if len(values) < 2:
            raise ValueError(f"malformed histogram wire sample {wire.name}")
        return MetricSample(
            name=wire.name,
            kind=kind,
            labels=labels,
            count=int(values[0]),
            total=values[1],
            bounds=tuple(float(bound) for bound in wire.bounds),
            bucket_counts=tuple(int(count) for count in values[2:]),
        )
    return MetricSample(
        name=wire.name, kind=kind, labels=labels, value=values[0] if values else 0.0
    )


# --- Prometheus text format -------------------------------------------------


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + body + "}"


def render_prometheus(samples: Iterable[MetricSample]) -> str:
    """Samples as Prometheus text exposition (one ``# TYPE`` per name)."""
    lines: list[str] = []
    typed: set[str] = set()
    for sample in sorted(samples, key=lambda s: (s.name, s.labels)):
        if sample.name not in typed:
            typed.add(sample.name)
            lines.append(f"# TYPE {sample.name} {sample.kind}")
        if sample.kind in ("counter", "gauge"):
            lines.append(
                f"{sample.name}{_format_labels(sample.labels)} "
                f"{_format_value(sample.value)}"
            )
            continue
        cumulative = 0
        for bound, count in zip(
            tuple(sample.bounds) + (float("inf"),), sample.bucket_counts
        ):
            cumulative += count
            le = "+Inf" if bound == float("inf") else _format_value(bound)
            labels = sample.labels + (("le", le),)
            lines.append(
                f"{sample.name}_bucket{_format_labels(labels)} {cumulative}"
            )
        label_text = _format_labels(sample.labels)
        lines.append(f"{sample.name}_sum{label_text} {_format_value(sample.total)}")
        lines.append(f"{sample.name}_count{label_text} {sample.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# --- deployment-level aggregation -------------------------------------------


def server_samples(server) -> list[MetricSample]:
    """One merged sample list for a ``HyRecServer`` deployment.

    The server registry's snapshot (hot-path instruments + collectors)
    merged with the cluster's worker-side snapshots, fetched over the
    wire when the executor hosts shards (``executor="process"``) --
    in-process executors sample straight into the server registry, so
    their shard series are already in the snapshot.
    """
    obs = getattr(server, "obs", None)
    groups: list[Sequence[MetricSample]] = []
    if obs is not None:
        groups.append(obs.registry.snapshot())
    cluster = getattr(server, "cluster", None)
    if cluster is not None:
        groups.append(cluster.metrics_samples())
    return merge_samples(*groups)


def metrics_text(server) -> str:
    """The ``/metrics`` response body for a ``HyRecServer``."""
    return render_prometheus(server_samples(server))
