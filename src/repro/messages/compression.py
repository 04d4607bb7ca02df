"""Gzip compression and per-channel bandwidth accounting."""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.messages.json_codec import encode_json

#: Minimal gzip member header: deflate, no flags, mtime 0, unknown OS.
GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"


def deflate_segment(raw: bytes, level: int = 1) -> bytes:
    """Compress ``raw`` into a sync-flushed raw-deflate segment.

    The segment ends on a byte boundary (``Z_SYNC_FLUSH`` emits the
    ``00 00 FF FF`` empty stored block), so any number of such
    segments can be concatenated into one valid deflate stream.  A
    fresh compressor has no history, so the segment is a pure function
    of ``raw`` and equals what a stream emits for the same bytes right
    after a ``Z_FULL_FLUSH``.  This is what lets the HyRec server cache
    each profile's (and each candidate key's) *compressed* bytes and
    assemble whole gzip responses with byte joins -- the same trick
    behind nginx's ``gzip_static`` and CDN edge assembly.
    """
    compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
    return compressor.compress(raw) + compressor.flush(zlib.Z_SYNC_FLUSH)


class FragmentGzipWriter:
    """Build one gzip member from literals and pre-deflated segments.

    ``write()`` buffers fresh bytes (request-specific envelope: braces,
    tokens, counters); ``write_deflated()`` splices in cached
    :func:`deflate_segment` output without touching zlib.  Everything
    written between two splices is one *run*: it is joined and deflated
    in a single ``compress`` + ``Z_FULL_FLUSH`` when the next splice
    arrives -- zlib's output does not depend on how its input was
    chunked, so the member is byte-identical to feeding the pieces one
    at a time.  ``finish()`` terminates the deflate stream and appends
    the gzip CRC32/ISIZE trailer computed over the logical
    (uncompressed) payload.

    With ``keep_body=False`` the writer only *weighs* the member: no
    part list, no CRC, no final join -- :attr:`raw_size` and
    :attr:`wire_size` are exactly those of the body it would have
    built.  This is what meters an in-process request, which never
    reads the body.
    """

    def __init__(self, level: int = 1, *, keep_body: bool = True) -> None:
        self._parts: list[bytes] | None = [GZIP_HEADER] if keep_body else None
        self._run: list[bytes] = []
        self._crc = 0
        self._raw = 0
        self._wire = len(GZIP_HEADER) + 8  # + CRC32/ISIZE trailer
        self._compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
        self._finished = False

    @property
    def raw_size(self) -> int:
        """Uncompressed bytes written so far."""
        return self._raw + sum(map(len, self._run))

    @property
    def wire_size(self) -> int:
        """Size of the complete gzip member; final once finished."""
        return self._wire

    def write(self, raw: bytes) -> None:
        """Add ``raw`` to the pending run."""
        if self._finished:
            raise RuntimeError("writer already finished")
        self._run.append(raw)

    def _deflate_run(self, mode: int) -> None:
        raw = b"".join(self._run)
        self._run.clear()
        compressor = self._compressor
        deflated = compressor.compress(raw) + compressor.flush(mode)
        self._raw += len(raw)
        self._wire += len(deflated)
        if self._parts is not None:
            self._parts.append(deflated)
            self._crc = zlib.crc32(raw, self._crc)

    def write_deflated(
        self, segments: Sequence[bytes], raws: Sequence[bytes]
    ) -> None:
        """Splice cached segments; ``raws`` are their uncompressed forms,
        in the same order.

        The pending run is flushed with ``Z_FULL_FLUSH`` first, so no
        later back-reference can reach across the spliced content
        (whose length the compressor never sees).  The lengths are
        summed, and the CRC taken over the joined ``raws``, in C.
        """
        if self._finished:
            raise RuntimeError("writer already finished")
        if self._run:
            self._deflate_run(zlib.Z_FULL_FLUSH)
        self._wire += sum(map(len, segments))
        if self._parts is None:
            self._raw += sum(map(len, raws))
            return
        raw = b"".join(raws)
        self._raw += len(raw)
        self._parts.extend(segments)
        self._crc = zlib.crc32(raw, self._crc)

    def finish(self) -> bytes | None:
        """Terminate the member; returns the complete gzip bytes
        (``None`` from a writer that keeps no body)."""
        if self._finished:
            raise RuntimeError("writer already finished")
        self._deflate_run(zlib.Z_FINISH)
        self._finished = True
        if self._parts is None:
            return None
        self._parts.append(
            struct.pack("<II", self._crc & 0xFFFFFFFF, self._raw & 0xFFFFFFFF)
        )
        return b"".join(self._parts)


def gzip_compress(data: bytes, level: int = 1) -> bytes:
    """Compress ``data`` as the HyRec server does on the fly.

    Level 1 is the realistic choice for per-request on-the-fly
    compression (it is what web servers configure for dynamic
    responses) and it already achieves the ~70% ratio the paper
    reports on JSON profile payloads.  ``mtime=0`` keeps the gzip
    header deterministic so that measured message sizes are
    reproducible.
    """
    return gzip.compress(data, compresslevel=level, mtime=0)


def gzip_decompress(data: bytes) -> bytes:
    """Inverse of :func:`gzip_compress` (what the browser does natively)."""
    return gzip.decompress(data)


def wire_sizes(payload: Any) -> tuple[int, int]:
    """Return ``(raw_json_bytes, gzipped_bytes)`` for a payload.

    This is exactly the pair of curves plotted in Figure 10.
    """
    raw = encode_json(payload)
    return len(raw), len(gzip_compress(raw))


@dataclass
class MeterReading:
    """Byte/message counters for one traffic channel."""

    messages: int = 0
    raw_bytes: int = 0
    wire_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        """Fraction of bytes saved by gzip (0 when nothing was sent)."""
        if self.raw_bytes == 0:
            return 0.0
        return 1.0 - self.wire_bytes / self.raw_bytes


@dataclass
class MessageMeter:
    """Accumulates traffic per named channel (e.g. per direction).

    Used for Figure 10 (server responses), Section 5.6 (per-widget
    totals) and the P2P-vs-HyRec comparison.
    """

    channels: dict[str, MeterReading] = field(default_factory=dict)

    def record_payload(
        self, channel: str, payload: Any, compress: bool = True
    ) -> tuple[int, int]:
        """Encode ``payload``, count its bytes, return ``(raw, wire)``."""
        raw = encode_json(payload)
        wire = gzip_compress(raw) if compress else raw
        return self.record_bytes(channel, len(raw), len(wire))

    def record_bytes(self, channel: str, raw: int, wire: int) -> tuple[int, int]:
        """Count a message of known sizes on ``channel``."""
        reading = self.channels.setdefault(channel, MeterReading())
        reading.messages += 1
        reading.raw_bytes += raw
        reading.wire_bytes += wire
        return raw, wire

    def reading(self, channel: str) -> MeterReading:
        """Counters for ``channel`` (zeros if never used)."""
        return self.channels.get(channel, MeterReading())

    @property
    def total_wire_bytes(self) -> int:
        """Bytes actually on the wire, across all channels."""
        return sum(reading.wire_bytes for reading in self.channels.values())

    @property
    def total_messages(self) -> int:
        """Messages across all channels."""
        return sum(reading.messages for reading in self.channels.values())

    def reset(self) -> None:
        """Clear every channel."""
        self.channels.clear()
