"""Trace/span envelope in the SDU header: wire format and stamping."""

import struct

import pytest

from repro.protocol.headers import (
    HEADER_SIZE,
    TRACE_EXT_SIZE,
    HeaderError,
    Sdu,
    SduHeader,
)
from repro.protocol.segmentation import Reassembler, segment_message


def _sdu(payload=b"abc", trace_id=0, span_id=0):
    return Sdu.build(
        connection_id=1,
        msg_id=2,
        seqno=0,
        total_sdus=1,
        payload=payload,
        end_bit=True,
        trace_id=trace_id,
        span_id=span_id,
    )


class TestHeaderExtension:
    def test_untraced_header_has_zero_overhead(self):
        sdu = _sdu()
        assert sdu.header.trace_id == 0
        assert sdu.header.header_size == HEADER_SIZE
        assert len(sdu.encode()) == HEADER_SIZE + 3

    def test_traced_header_appends_extension(self):
        sdu = _sdu(trace_id=0xDEADBEEFCAFEF00D, span_id=42)
        assert sdu.header.header_size == HEADER_SIZE + TRACE_EXT_SIZE
        assert len(sdu.encode()) == HEADER_SIZE + TRACE_EXT_SIZE + 3

    def test_roundtrip_preserves_trace_and_payload(self):
        sdu = _sdu(payload=b"hello", trace_id=123456789, span_id=9)
        decoded = Sdu.decode(sdu.encode())
        assert decoded.header.trace_id == 123456789
        assert decoded.header.span_id == 9
        assert bytes(decoded.payload) == b"hello"
        assert decoded.header.payload_crc == sdu.header.payload_crc

    def test_untraced_roundtrip_unchanged(self):
        decoded = Sdu.decode(_sdu(payload=b"hello").encode())
        assert decoded.header.trace_id == 0
        assert decoded.header.span_id == 0
        assert bytes(decoded.payload) == b"hello"

    def test_encode_into_matches_encode(self):
        for sdu in (_sdu(), _sdu(trace_id=7, span_id=3)):
            segments = []
            assert sdu.encode_into(segments) == sdu.wire_size
            assert b"".join(segments) == sdu.encode()

    def test_truncated_extension_raises(self):
        wire = _sdu(trace_id=5).encode()
        # Chop the frame inside the trace extension.
        with pytest.raises(HeaderError):
            SduHeader.decode(wire[: HEADER_SIZE + 4])

    def test_trace_flag_only_set_when_traced(self):
        traced = _sdu(payload=b"x", trace_id=1).encode()
        plain = _sdu(payload=b"x").encode()
        # Flags live in byte 3 of the fixed header ("!HBB...").
        _, _, traced_flags = struct.unpack_from("!HBB", traced)
        _, _, plain_flags = struct.unpack_from("!HBB", plain)
        assert traced_flags & 0x02
        assert not plain_flags & 0x02


class TestSegmentationStamping:
    def test_every_sdu_carries_the_trace(self):
        sdus = segment_message(
            connection_id=1, msg_id=77, payload=b"z" * 16000, sdu_size=4096,
            trace_id=0xABCDEF,
        )
        assert len(sdus) == 4
        assert all(s.header.trace_id == 0xABCDEF for s in sdus)
        # Default span derives from the message id.
        assert all(s.header.span_id == 77 for s in sdus)

    def test_explicit_span_id(self):
        sdus = segment_message(
            connection_id=1, msg_id=77, payload=b"z" * 100, sdu_size=4096,
            trace_id=5, span_id=31,
        )
        assert sdus[0].header.span_id == 31

    def test_untraced_segmentation_stamps_nothing(self):
        sdus = segment_message(
            connection_id=1, msg_id=77, payload=b"z" * 100, sdu_size=4096,
        )
        assert sdus[0].header.trace_id == 0
        assert sdus[0].header.span_id == 0

    def test_reassembly_of_traced_sdus(self):
        payload = bytes(range(256)) * 40  # 10240 B -> 3 SDUs
        sdus = segment_message(
            connection_id=1, msg_id=5, payload=payload, sdu_size=4096,
            trace_id=99,
        )
        reassembler = Reassembler()
        result = None
        for sdu in sdus:
            result = reassembler.add(sdu)
        assert result is not None
        assert bytes(result) == payload
