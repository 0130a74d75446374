"""SCI's stream parser and gathered transmit, fed byte-exact scripts.

A real socket decides for itself where a stream is cut; these tests
need to choose.  ``ScriptedSocket`` is the non-blocking socket surface
``SciInterface`` uses, with the reads and the short writes written down
in advance, so any split — one byte at a time through a length prefix,
a write that stops inside a header — is a plain list.
"""

import struct
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.interfaces import sci
from repro.interfaces.base import InterfaceClosed
from repro.interfaces.sci import MAX_FRAME, SciInterface
from repro.protocol.headers import HEADER_SIZE, Sdu
from repro.protocol.segmentation import MAX_SDU_SIZE, segment_message

#: The stream buffer never stays larger than this (sci._RX_BUFFER_MAX).
RX_BUFFER_MAX = 64 * 1024


class ScriptedSocket:
    """``reads``: what each ``recv_into`` returns — bytes (as much as
    fits; the rest stays for the next call), ``None`` for "nothing
    ready", ``b""`` for EOF; an exhausted script has nothing ready.
    ``writes``: how many bytes each ``sendmsg`` accepts (``None``:
    would block); an exhausted script accepts everything.
    ``calls`` lists the ``recv_into`` calls made ("read") and, under
    the ``scripted_select`` fixture, the ``select`` waits ("select")."""

    def __init__(self, reads=(), writes=()):
        self.reads = list(reads)
        self.writes = list(writes)
        self.sent = bytearray()
        self.closed = False
        self.calls = []

    def setsockopt(self, *args):
        pass

    def setblocking(self, flag):
        assert flag is False

    def recv_into(self, buffer):
        assert len(buffer) > 0, "read offered no room"
        self.calls.append("read")
        if not self.reads or self.reads[0] is None:
            del self.reads[:1]
            raise BlockingIOError
        chunk = self.reads[0]
        taken = chunk[: len(buffer)]
        buffer[: len(taken)] = taken
        if len(taken) < len(chunk):
            self.reads[0] = chunk[len(taken):]
        else:
            del self.reads[0]
        return len(taken)

    def sendmsg(self, buffers):
        data = b"".join(buffers)
        assert data, "empty write"
        accept = self.writes.pop(0) if self.writes else len(data)
        if accept is None:
            raise BlockingIOError
        self.sent += data[:accept]
        return min(accept, len(data))

    def shutdown(self, how):
        pass

    def close(self):
        self.closed = True


def framed(frames) -> bytes:
    return b"".join(struct.pack("!I", len(f)) + f for f in frames)


def split(stream: bytes, cuts) -> list:
    edges = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def drain(iface, receive) -> list:
    """Call ``receive`` until the script is used up and nothing more
    comes out."""
    sock, got = iface._sock, []
    while True:
        out = receive(iface)
        if out is None or out == []:
            if not sock.reads:
                return got
        elif isinstance(out, list):
            got.extend(out)
        else:
            got.append(out)


RECEIVERS = {
    "recv": lambda iface: iface.recv(0.0),
    "try_recv": lambda iface: iface.try_recv(),
    "recv_many": lambda iface: iface.recv_many(3, timeout=0.0),
    "recv_many_64": lambda iface: iface.recv_many(64, timeout=0.0),
}

frame_sizes = st.one_of(
    st.integers(0, 64),
    st.integers(4000, 4200),
    st.sampled_from([RX_BUFFER_MAX - 4, RX_BUFFER_MAX - 3, RX_BUFFER_MAX,
                     MAX_SDU_SIZE + HEADER_SIZE, 3 * RX_BUFFER_MAX + 1]),
)


class TestAnySplitYieldsTheSameFrames:
    @given(
        sizes=st.lists(frame_sizes, min_size=1, max_size=8),
        cuts=st.lists(st.integers(0, 1 << 20), max_size=12),
        gaps=st.lists(st.booleans(), min_size=13, max_size=13),
        how=st.sampled_from(sorted(RECEIVERS)),
    )
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_chunking(self, sizes, cuts, gaps, how):
        frames = [bytes([i + 1]) * size for i, size in enumerate(sizes)]
        reads = []
        for chunk, gap in zip(split(framed(frames), cuts), gaps):
            reads.append(chunk)
            if gap:
                reads.append(None)  # the socket runs dry mid-stream
        iface = SciInterface(ScriptedSocket(reads))
        assert drain(iface, RECEIVERS[how]) == frames
        assert iface.received_frames == len(frames)
        assert iface.received_bytes == len(framed(frames))
        assert iface.metrics()["rx_buffered_bytes"] == 0
        assert iface.metrics()["rx_buffer_capacity"] <= RX_BUFFER_MAX

    @pytest.mark.parametrize("how", sorted(RECEIVERS))
    def test_one_byte_at_a_time(self, how):
        frames = [b"", b"a", b"bc" * 300, b""]
        reads = []
        for byte in framed(frames):
            reads += [bytes([byte]), None]
        iface = SciInterface(ScriptedSocket(reads))
        assert drain(iface, RECEIVERS[how]) == frames

    @pytest.mark.parametrize("how", sorted(RECEIVERS))
    def test_frames_longer_than_the_stream_buffer(self, how):
        sdu = segment_message(1, 1, b"s" * MAX_SDU_SIZE, MAX_SDU_SIZE)[0]
        frames = [b"before", sdu.encode(), b"c" * (200 * 1024), b"after"]
        stream = framed(frames)
        reads = [stream[i:i + 10_000] for i in range(0, len(stream), 10_000)]
        iface = SciInterface(ScriptedSocket(reads))
        got = drain(iface, RECEIVERS[how])
        assert got == frames
        assert Sdu.decode(got[1]).payload_intact()
        # The long frames borrowed their buffers; none was kept.
        assert iface.metrics()["rx_buffer_capacity"] <= RX_BUFFER_MAX

    def test_a_frame_is_an_owning_copy(self):
        """A held frame must survive the buffer being reused."""
        iface = SciInterface(ScriptedSocket([framed([b"first"]), None,
                                             framed([b"SECOND"])]))
        first = iface.try_recv()
        assert iface.try_recv() is None
        assert iface.try_recv() == b"SECOND"
        assert first == b"first"


class TestStreamErrors:
    @pytest.mark.parametrize("how", sorted(RECEIVERS))
    def test_eof_mid_frame_raises(self, how):
        stream = framed([b"whole", b"x" * 100])
        iface = SciInterface(ScriptedSocket([stream[:-40], None, b""]))
        got = []
        with pytest.raises(InterfaceClosed, match="mid-frame"):
            for _ in range(10):
                out = RECEIVERS[how](iface)
                got += out if isinstance(out, list) else [out]
        assert [frame for frame in got if frame is not None] == [b"whole"]
        assert iface.closed

    def test_eof_between_frames_raises_plainly(self):
        iface = SciInterface(ScriptedSocket([framed([b"whole"]), b""]))
        assert iface.recv_many(8, timeout=0.0) == [b"whole"]
        with pytest.raises(InterfaceClosed):
            iface.try_recv()

    @pytest.mark.parametrize("how", sorted(RECEIVERS))
    def test_length_beyond_max_frame_raises(self, how):
        bad = framed([b"ok"]) + struct.pack("!I", MAX_FRAME + 1) + b"junk"
        iface = SciInterface(ScriptedSocket([bad]))
        got = []
        with pytest.raises(InterfaceClosed, match="insane frame length"):
            for _ in range(3):
                out = RECEIVERS[how](iface)
                got += out if isinstance(out, list) else [out]
        assert got == [b"ok"]
        # The stream can never resynchronize: the interface is dead.
        assert iface.closed

    def test_max_frame_itself_is_accepted(self):
        prefix = struct.pack("!I", MAX_FRAME)
        iface = SciInterface(ScriptedSocket([prefix + b"z" * 1000]))
        assert iface.try_recv() is None
        assert iface.metrics()["rx_buffered_bytes"] == 4 + 1000


@pytest.fixture
def scripted_select(monkeypatch):
    """``select`` for scripted sockets: readable when the script's next
    read is data or EOF, and no time passes while waiting."""

    def select(rlist, wlist, xlist, timeout=None):
        (sock,) = rlist
        sock.calls.append("select")
        ready = bool(sock.reads) and sock.reads[0] is not None
        return (rlist if ready else []), [], []

    monkeypatch.setattr(sci, "select", types.SimpleNamespace(select=select))


class TestNoReadThatCanOnlyReturnEagain:
    """A read that comes back short emptied the socket: the next read
    waits until ``select`` says there is something to read."""

    def test_short_read_ends_the_receive(self):
        sock = ScriptedSocket([framed([b"a", b"b"])])
        assert SciInterface(sock).recv_many(8, timeout=0.0) == [b"a", b"b"]
        assert sock.calls == ["read"]

    def test_full_read_is_followed_by_one_more(self):
        # Exactly the room the stream buffer starts with: the socket may
        # hold more, so the top-up read goes ahead.
        frame = b"f" * (sci._RX_BUFFER_MIN - 4)
        sock = ScriptedSocket([framed([frame])])
        assert SciInterface(sock).recv_many(8, timeout=0.0) == [frame]
        assert sock.calls == ["read", "read"]

    def test_blocking_call_after_short_read_selects_first(self, scripted_select):
        sock = ScriptedSocket([framed([b"first"]), framed([b"late"])])
        iface = SciInterface(sock)
        assert iface.recv_many(8, timeout=0.0) == [b"first"]
        assert iface.recv(timeout=1.0) == b"late"  # no lost wake-up
        assert sock.calls == ["read", "select", "read"]

    def test_blocking_call_on_idle_socket_never_reads(self, scripted_select):
        sock = ScriptedSocket([framed([b"only"])])
        iface = SciInterface(sock)
        assert iface.recv_many(8, timeout=0.0) == [b"only"]
        del sock.calls[:]
        assert iface.recv_many(8, timeout=0.01) == []
        assert sock.calls and set(sock.calls) == {"select"}

    def test_zero_timeout_poll_always_reads(self):
        sock = ScriptedSocket([framed([b"first"]), framed([b"late"])])
        iface = SciInterface(sock)
        assert iface.try_recv() == b"first"
        assert iface.try_recv() == b"late"
        assert iface.try_recv() is None
        assert sock.calls == ["read", "read", "read"]

    def test_frame_split_across_short_reads_is_finished(self, scripted_select):
        stream = framed([b"x" * 100])
        sock = ScriptedSocket([stream[:2], stream[2:50], stream[50:]])
        assert SciInterface(sock).recv(timeout=1.0) == b"x" * 100
        assert sock.calls == ["read", "select", "read", "select", "read"]

    @pytest.mark.parametrize("timeout", [0.0, 1.0])
    def test_eof_after_short_read_raises(self, scripted_select, timeout):
        sock = ScriptedSocket([framed([b"last"]), b""])
        iface = SciInterface(sock)
        assert iface.recv_many(8, timeout=timeout) == [b"last"]
        with pytest.raises(InterfaceClosed):
            iface.recv_many(8, timeout=timeout)
        assert iface.closed


def burst(count=5, sdu_size=4096, **kwargs):
    payload = bytes(range(256)) * (count * sdu_size // 256)
    return segment_message(7, 1, payload, sdu_size, **kwargs)


class TestGatheredTransmit:
    def test_burst_is_one_write_of_prefixed_frames(self):
        sock = ScriptedSocket()
        iface = SciInterface(sock)
        sdus = burst()
        assert iface.send_many(sdus) == len(sdus)
        assert bytes(sock.sent) == framed([sdu.encode() for sdu in sdus])
        assert iface.sent_bytes == len(sock.sent)
        assert (iface.batched_sends, iface.batched_frames) == (1, len(sdus))
        assert iface.backlog_bytes == 0

    def test_length_prefix_golden_bytes(self):
        sock = ScriptedSocket()
        SciInterface(sock).send_many([b"abc", b""])
        assert bytes(sock.sent) == b"\x00\x00\x00\x03abc\x00\x00\x00\x00"

    def test_raw_and_empty_frames_mix_with_sdus(self):
        sock = ScriptedSocket()
        iface = SciInterface(sock)
        empty = segment_message(7, 2, b"", 4096)[0]
        frames = [b"raw", empty, b"", burst(1)[0]]
        iface.send_many(frames)
        expected = [f if isinstance(f, bytes) else f.encode() for f in frames]
        assert bytes(sock.sent) == framed(expected)

    @pytest.mark.parametrize(
        "stops",
        [
            # ...inside the first length prefix, then inside an SDU header
            [2, 4 + 10],
            # ...inside a payload, twice
            [4 + HEADER_SIZE + 100, 1000],
            # ...exactly on segment boundaries: after a prefix, after a
            # header, after a whole frame
            [4, HEADER_SIZE, 4096, 4 + HEADER_SIZE + 4096],
            # ...one byte at a time across a frame boundary
            [4 + HEADER_SIZE + 4096 - 1, 1, 1, 1, 1, 1],
        ],
    )
    def test_short_writes_resume_inside_the_frame(self, stops):
        writes = []
        for accept in stops:
            writes += [accept, None]  # a short write, then "would block"
        sock = ScriptedSocket(writes=writes)
        iface = SciInterface(sock)
        sdus = burst(trace_id=0xABC)
        expected = framed([sdu.encode() for sdu in sdus])
        drained = iface.queue_frames(sdus)
        for accepted in range(1, len(stops) + 1):
            assert not drained
            assert iface.backlog_bytes == len(expected) - sum(stops[:accepted])
            assert bytes(sock.sent) == expected[: sum(stops[:accepted])]
            drained = iface.flush_backlog()
        assert drained and iface.backlog_bytes == 0
        assert bytes(sock.sent) == expected
        # What the peer's parser sees is the frames, whole and in order.
        peer = SciInterface(ScriptedSocket([bytes(sock.sent)]))
        assert peer.recv_many(64, timeout=0.0) == [s.encode() for s in sdus]

    def test_oversize_frame_rejected_before_anything_is_queued(self):
        sock = ScriptedSocket()
        iface = SciInterface(sock)
        iface.max_frame = 64
        with pytest.raises(ValueError, match="exceeds"):
            iface.send_many([b"ok", b"x" * 65])
        assert not sock.sent and iface.backlog_bytes == 0


class TestClosedEndpointHoldsNothing:
    """Closed connections sit in reference cycles until the cyclic GC
    runs; what a closed interface still references stays resident."""

    @staticmethod
    def loaded():
        # Half a frame buffered on the receive side, most of a burst
        # stuck in the transmit backlog.
        reads = [framed([b"r" * 50_000])[:30_000]]
        iface = SciInterface(ScriptedSocket(reads, writes=[100, None]))
        assert iface.try_recv() is None
        assert not iface.queue_frames(burst())
        before = iface.metrics()
        assert before["rx_buffered_bytes"] == 30_000
        assert before["rx_buffer_capacity"] >= 30_000
        assert before["backlog_bytes"] > 4096
        return iface

    @staticmethod
    def holds_nothing(iface):
        after = iface.metrics()
        return (
            after["rx_buffer_capacity"] == after["rx_buffered_bytes"] == 0
            and after["backlog_bytes"] == 0
            and not iface._tx_backlog
        )

    def test_close_releases_stream_buffer_and_backlog(self):
        iface = self.loaded()
        iface.close()
        assert self.holds_nothing(iface)

    def test_peer_death_on_receive_releases_both(self):
        iface = self.loaded()
        iface._sock.reads.append(b"")
        with pytest.raises(InterfaceClosed):
            iface.try_recv()
        assert iface.closed and self.holds_nothing(iface)

    def test_peer_death_on_transmit_releases_both(self):
        iface = self.loaded()

        def reset(_buffers):
            raise ConnectionResetError("peer reset")

        iface._sock.sendmsg = reset
        with pytest.raises(InterfaceClosed):
            iface.flush_backlog()
        assert iface.closed and self.holds_nothing(iface)
