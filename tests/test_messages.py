"""Tests for the JSON + gzip wire format and bandwidth meters."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.messages import (
    MessageMeter,
    decode_json,
    encode_json,
    gzip_compress,
    gzip_decompress,
    wire_sizes,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


class TestJsonCodec:
    def test_round_trip(self):
        payload = {"u": "tok", "p": {"1": 1.0}, "k": 10}
        assert decode_json(encode_json(payload)) == payload

    def test_compact_encoding(self):
        wire = encode_json({"a": [1, 2]})
        assert b" " not in wire

    def test_deterministic_key_order(self):
        a = encode_json({"b": 1, "a": 2})
        b = encode_json({"a": 2, "b": 1})
        assert a == b

    def test_unicode_survives(self):
        payload = {"title": "cinéma vérité ★"}
        assert decode_json(encode_json(payload)) == payload

    @given(payload=json_values)
    def test_round_trip_property(self, payload):
        assert decode_json(encode_json(payload)) == payload


class TestGzip:
    def test_round_trip(self):
        data = b"x" * 10_000
        assert gzip_decompress(gzip_compress(data)) == data

    def test_compresses_redundant_data(self):
        data = encode_json({str(i): 1.0 for i in range(1000)})
        assert len(gzip_compress(data)) < len(data) / 2

    def test_deterministic_output(self):
        data = b"hello world" * 100
        assert gzip_compress(data) == gzip_compress(data)

    def test_wire_sizes_pair(self):
        payload = {str(i): 1.0 for i in range(100)}
        raw, compressed = wire_sizes(payload)
        assert raw == len(encode_json(payload))
        assert compressed < raw


class TestMessageMeter:
    def test_record_payload_counts(self):
        meter = MessageMeter()
        raw, wire = meter.record_payload("down", {"a": 1})
        reading = meter.reading("down")
        assert reading.messages == 1
        assert reading.raw_bytes == raw
        assert reading.wire_bytes == wire

    def test_uncompressed_channel(self):
        meter = MessageMeter()
        raw, wire = meter.record_payload("down", {"a": 1}, compress=False)
        assert raw == wire

    def test_totals_across_channels(self):
        meter = MessageMeter()
        meter.record_payload("down", {"a": 1})
        meter.record_payload("up", {"b": 2})
        assert meter.total_messages == 2
        assert meter.total_wire_bytes == (
            meter.reading("down").wire_bytes + meter.reading("up").wire_bytes
        )

    def test_compression_ratio(self):
        meter = MessageMeter()
        meter.record_payload("down", {str(i): 1.0 for i in range(500)})
        assert 0.0 < meter.reading("down").compression_ratio < 1.0

    def test_unused_channel_zeroes(self):
        reading = MessageMeter().reading("nothing")
        assert reading.messages == 0
        assert reading.compression_ratio == 0.0

    def test_reset(self):
        meter = MessageMeter()
        meter.record_payload("down", {"a": 1})
        meter.reset()
        assert meter.total_messages == 0

    def test_record_bytes_direct(self):
        meter = MessageMeter()
        meter.record_bytes("x", raw=100, wire=30)
        meter.record_bytes("x", raw=50, wire=20)
        reading = meter.reading("x")
        assert reading.raw_bytes == 150
        assert reading.wire_bytes == 50
        assert reading.messages == 2


class TestFragmentGzip:
    """The spliced-gzip fast path must be a valid, faithful gzip member."""

    def _segments(self, chunks):
        from repro.messages import FragmentGzipWriter, deflate_segment

        writer = FragmentGzipWriter()
        for kind, data in chunks:
            if kind == "literal":
                writer.write(data)
            else:
                writer.write_deflated([deflate_segment(data)], [data])
        return writer.finish(), b"".join(data for _, data in chunks)

    def test_literal_only(self):
        wire, raw = self._segments([("literal", b"hello world" * 50)])
        assert gzip_decompress(wire) == raw

    def test_spliced_only(self):
        wire, raw = self._segments([("spliced", b"abcdef" * 200)])
        assert gzip_decompress(wire) == raw

    def test_interleaved(self):
        chunks = [
            ("literal", b'{"c":{'),
            ("spliced", b'{"1":1.0,"2":0.0}' * 30),
            ("literal", b',"x":'),
            ("spliced", b'{"9":1.0}' * 50),
            ("literal", b"}"),
        ]
        wire, raw = self._segments(chunks)
        assert gzip_decompress(wire) == raw

    def test_many_splices(self):
        chunks = []
        for index in range(120):
            chunks.append(("literal", b'"k%d":' % index))
            chunks.append(("spliced", b'{"item":%d}' % index))
        wire, raw = self._segments(chunks)
        assert gzip_decompress(wire) == raw

    def test_segment_is_the_run_a_full_flushed_stream_emits(self):
        # Why a key run can be deflated on its own and spliced: after a
        # full flush the stream has no history left to refer to.
        import zlib

        from repro.messages import deflate_segment

        stream = zlib.compressobj(1, zlib.DEFLATED, -15)
        stream.compress(b'{"c":{' + b'"ab":1.0,' * 300)
        stream.flush(zlib.Z_FULL_FLUSH)
        key = b',"3f9a0c":'
        run = stream.compress(key) + stream.flush(zlib.Z_FULL_FLUSH)
        assert run == deflate_segment(key)

    def test_compresses(self):
        payload = encode_json({str(i): 1.0 for i in range(2000)})
        wire, raw = self._segments([("spliced", payload)])
        assert len(wire) < len(raw) / 2

    def test_writer_single_use(self):
        from repro.messages import FragmentGzipWriter

        writer = FragmentGzipWriter()
        writer.write(b"x")
        writer.finish()
        with pytest.raises(RuntimeError):
            writer.write(b"y")
        with pytest.raises(RuntimeError):
            writer.finish()

    def test_raw_size_tracks_uncompressed(self):
        from repro.messages import FragmentGzipWriter, deflate_segment

        writer = FragmentGzipWriter()
        writer.write(b"abc")
        writer.write_deflated([deflate_segment(b"defgh")], [b"defgh"])
        assert writer.raw_size == 8
