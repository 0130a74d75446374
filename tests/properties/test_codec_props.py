"""Property tests: wire codecs."""

from hypothesis import given, settings, strategies as st

from repro.protocol.headers import Sdu, SduHeader
from repro.protocol.pdus import (
    AckPdu,
    ConnectRequestPdu,
    CreditPdu,
    CumAckPdu,
    decode_control_pdu,
)
from repro.protocol.segmentation import (
    MAX_SDU_SIZE,
    MIN_SDU_SIZE,
    Reassembler,
    segment_message,
)
from repro.util.bitmap import AckBitmap
from repro.util.codec import XdrDecoder, XdrEncoder

U32 = st.integers(0, 2**32 - 1)


@given(
    conn=U32,
    msg=U32,
    seqno=U32,
    total=U32,
    payload=st.binary(max_size=1000),
    end=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_sdu_frame_roundtrip(conn, msg, seqno, total, payload, end):
    sdu = Sdu.build(conn, msg, seqno, total, payload, end)
    again = Sdu.decode(sdu.encode())
    assert again.header == sdu.header
    assert again.payload == payload
    assert again.payload_intact()


@given(conn=U32, msg=U32, size=st.integers(0, 300), marks=st.sets(st.integers(0, 299)))
@settings(max_examples=60, deadline=None)
def test_ack_pdu_roundtrip(conn, msg, size, marks):
    bitmap = AckBitmap(size)
    for seqno in marks:
        if seqno < size:
            bitmap.mark_received(seqno)
    pdu = AckPdu(conn, msg, bitmap)
    again = decode_control_pdu(pdu.encode())
    assert again == pdu


@given(conn=U32, credits=U32)
@settings(max_examples=40, deadline=None)
def test_credit_pdu_roundtrip(conn, credits):
    pdu = CreditPdu(conn, credits)
    assert decode_control_pdu(pdu.encode()) == pdu


@given(conn=U32, msg=U32, next_expected=U32)
@settings(max_examples=40, deadline=None)
def test_cum_ack_roundtrip(conn, msg, next_expected):
    pdu = CumAckPdu(conn, msg, next_expected)
    assert decode_control_pdu(pdu.encode()) == pdu


@given(
    src=st.text(max_size=40),
    dst=st.text(max_size=40),
    port=st.integers(0, 65535),
)
@settings(max_examples=40, deadline=None)
def test_connect_request_roundtrip(src, dst, port):
    pdu = ConnectRequestPdu(
        connection_id=1,
        src_node=src,
        dst_node=dst,
        src_data_port=port,
        flow_control="credit",
        error_control="selective_repeat",
        interface="sci",
        sdu_size=4096,
        initial_credits=4,
        window_size=8,
        rate_pps=1000.0,
    )
    assert decode_control_pdu(pdu.encode()) == pdu


@given(
    values=st.lists(
        st.one_of(
            st.integers(-(2**31), 2**31 - 1),
            st.binary(max_size=100),
            st.text(max_size=50),
        ),
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_xdr_stream_roundtrip(values):
    encoder = XdrEncoder()
    for value in values:
        if isinstance(value, int):
            encoder.pack_int(value)
        elif isinstance(value, bytes):
            encoder.pack_opaque(value)
        else:
            encoder.pack_string(value)
    decoder = XdrDecoder(encoder.getvalue())
    for value in values:
        if isinstance(value, int):
            assert decoder.unpack_int() == value
        elif isinstance(value, bytes):
            assert decoder.unpack_opaque() == value
        else:
            assert decoder.unpack_string() == value
    assert decoder.done()


SDU_SIZES = st.one_of(
    st.sampled_from([MIN_SDU_SIZE, MAX_SDU_SIZE]),
    st.integers(MIN_SDU_SIZE, MAX_SDU_SIZE),
)


@st.composite
def messages(draw):
    """(payload, sdu_size): zero-length, exact multiples of the SDU
    size and ragged tails all come up."""
    sdu_size = draw(SDU_SIZES)
    whole = draw(st.integers(0, 3))
    tail = draw(st.sampled_from([0, 0, 1, sdu_size - 1]))
    seed = draw(st.integers(0, 250))
    size = whole * sdu_size + tail
    pattern = bytes((seed + i) % 251 for i in range(251))
    return (pattern * (size // 251 + 1))[:size], sdu_size


def over_the_wire(sdu, gathered: bool) -> bytes:
    if not gathered:
        return sdu.encode()
    segments = []
    assert sdu.encode_into(segments) == sdu.wire_size
    return b"".join(segments)


@given(message=messages(), traced=st.booleans(), gathered=st.booleans())
@settings(max_examples=60, deadline=None)
def test_message_survives_segment_encode_decode_reassemble(
    message, traced, gathered
):
    payload, sdu_size = message
    sdus = segment_message(
        3, 11, payload, sdu_size, trace_id=0xFEED if traced else 0
    )
    assert len(sdus) == max(1, -(-len(payload) // sdu_size))
    reassembler = Reassembler()
    result = None
    for sdu in sdus:
        frame = over_the_wire(sdu, gathered)
        assert len(frame) == sdu.wire_size
        decoded = Sdu.decode(frame)
        assert decoded.header == sdu.header
        assert decoded.header.trace_id == (0xFEED if traced else 0)
        assert result is None
        result = reassembler.add(decoded)
    assert result == payload
    assert reassembler.buffered_bytes == 0
    assert (reassembler.corrupted_count, reassembler.duplicate_count) == (0, 0)


@given(message=messages(), victim=st.integers(0, 1 << 16), bit=st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_flipped_payload_bit_is_rejected_and_duplicates_are_counted(
    message, victim, bit
):
    payload, sdu_size = message
    sdus = segment_message(3, 11, payload or b"x", sdu_size)
    frames = [sdu.encode() for sdu in sdus]
    index = victim % len(frames)
    damaged = bytearray(frames[index])
    offset = sdus[index].header.header_size + victim % len(sdus[index].payload)
    damaged[offset] ^= 1 << bit
    reassembler = Reassembler()
    results = [
        reassembler.add(Sdu.decode(bytes(damaged) if i == index else frame))
        for i, frame in enumerate(frames)
    ]
    # The CRC caught it: the message is still waiting for that SDU...
    assert results == [None] * len(frames)
    assert reassembler.corrupted_count == 1
    assert reassembler.bitmap_for(11, len(sdus)).pending() == [index]
    # ...an SDU it already holds is a counted duplicate...
    if len(frames) > 1:
        other = (index + 1) % len(frames)
        assert reassembler.add(Sdu.decode(frames[other])) is None
        assert reassembler.duplicate_count == 1
    # ...and the intact retransmission completes it.
    assert reassembler.add(Sdu.decode(frames[index])) == (payload or b"x")
    duplicates = reassembler.duplicate_count
    assert reassembler.add(Sdu.decode(frames[index])) is None
    assert reassembler.duplicate_count == duplicates + 1
