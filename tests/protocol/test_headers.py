"""SDU framing: header encode/decode and integrity checks."""

import pytest

from repro.protocol.headers import (
    HEADER_SIZE,
    HeaderError,
    Sdu,
    SduHeader,
)


def make_sdu(payload=b"data", seqno=0, total=1, end=True, conn=7, msg=1):
    return Sdu.build(
        connection_id=conn,
        msg_id=msg,
        seqno=seqno,
        total_sdus=total,
        payload=payload,
        end_bit=end,
    )


class TestHeader:
    def test_roundtrip(self):
        header = SduHeader(
            connection_id=0xDEADBEEF,
            msg_id=42,
            seqno=17,
            total_sdus=32,
            payload_len=4096,
            payload_crc=0x12345678,
            end_bit=True,
        )
        assert SduHeader.decode(header.encode()) == header

    def test_fixed_size(self):
        header = make_sdu().header
        assert len(header.encode()) == HEADER_SIZE

    def test_end_bit_both_ways(self):
        for end in (True, False):
            sdu = make_sdu(end=end)
            assert SduHeader.decode(sdu.header.encode()).end_bit is end

    def test_bad_magic_rejected(self):
        data = bytearray(make_sdu().header.encode())
        data[0] ^= 0xFF
        with pytest.raises(HeaderError, match="magic"):
            SduHeader.decode(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(make_sdu().header.encode())
        data[2] = 99  # version byte
        with pytest.raises(HeaderError, match="version"):
            SduHeader.decode(bytes(data))

    def test_short_buffer_rejected(self):
        with pytest.raises(HeaderError, match="short"):
            SduHeader.decode(b"\x00" * (HEADER_SIZE - 1))


class TestSdu:
    def test_frame_roundtrip(self):
        sdu = make_sdu(payload=bytes(range(200)), seqno=3, total=5, end=False)
        again = Sdu.decode(sdu.encode())
        assert again.payload == sdu.payload
        assert again.header == sdu.header

    def test_empty_payload_frame(self):
        sdu = make_sdu(payload=b"")
        again = Sdu.decode(sdu.encode())
        assert again.payload == b""
        assert again.payload_intact()

    def test_wire_size(self):
        sdu = make_sdu(payload=b"x" * 100)
        assert sdu.wire_size == HEADER_SIZE + 100
        assert len(sdu.encode()) == sdu.wire_size

    def test_truncated_payload_rejected(self):
        frame = make_sdu(payload=b"x" * 50).encode()
        with pytest.raises(HeaderError, match="truncated"):
            Sdu.decode(frame[:-10])

    def test_crc_detects_payload_corruption(self):
        sdu = make_sdu(payload=b"sensitive bits")
        assert sdu.payload_intact()
        damaged = sdu.corrupted_copy()
        assert not damaged.payload_intact()

    def test_corrupted_copy_of_empty_payload(self):
        damaged = make_sdu(payload=b"").corrupted_copy()
        assert not damaged.payload_intact()

    def test_decode_after_transit_corruption(self):
        # A single bit flip in the payload survives decode (header ok)
        # but fails the CRC — mirroring AAL5 behaviour.
        frame = bytearray(make_sdu(payload=b"z" * 64).encode())
        frame[-1] ^= 0x10
        sdu = Sdu.decode(bytes(frame))
        assert not sdu.payload_intact()


class TestWireFormatIsFrozen:
    """Bytes produced before the header became a slotted value object
    with precompiled codecs; the wire must not have moved."""

    UNTRACED = (
        "4e430101" "01020304" "00000005" "00000006" "00000007" "00000008"
        "f3f43752" "7061796c6f616421"
    )
    TRACED = (
        "4e430102" "01020304" "00000005" "00000006" "00000007" "00000008"
        "f3f43752" "1122334455667788" "99aabbcc" "7061796c6f616421"
    )

    def build(self, traced):
        if not traced:
            return Sdu.build(0x01020304, 5, 6, 7, b"payload!", True)
        return Sdu.build(
            0x01020304, 5, 6, 7, b"payload!", False,
            trace_id=0x1122334455667788, span_id=0x99AABBCC,
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_golden_bytes(self, traced):
        golden = bytes.fromhex(self.TRACED if traced else self.UNTRACED)
        sdu = self.build(traced)
        assert sdu.encode() == golden
        segments = []
        assert sdu.encode_into(segments) == len(golden) == sdu.wire_size
        assert b"".join(segments) == golden
        assert sdu.header.encode() == golden[:-8]
        # ...and an SDU that was decoded, not built, encodes the same.
        again = Sdu.decode(golden)
        assert again == sdu and again.encode() == golden
