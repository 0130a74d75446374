"""SCI: framed TCP interface."""

import select
import socket
import struct
import threading
import time

import pytest

from repro.interfaces.base import InterfaceClosed
from repro.interfaces.sci import (
    _LEN_FMT,
    _LEN_SIZE,
    SciInterface,
    SciListener,
    sci_connect,
    sci_pair,
)


def throttled_sci_pair(snd=8192, rcv=8192):
    """A loopback TCP pair with tiny kernel buffers, so a large frame
    cannot be absorbed in one write and the sender must track partial
    progress."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcv)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, snd)
    client.connect(listener.getsockname())
    server, _ = listener.accept()
    listener.close()
    return SciInterface(client), SciInterface(server)


@pytest.fixture
def pair():
    a, b = sci_pair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_roundtrip(self, pair):
        a, b = pair
        a.send(b"framed message")
        assert b.recv(1.0) == b"framed message"

    def test_boundaries_preserved_across_stream(self, pair):
        a, b = pair
        frames = [bytes([i]) * (i * 100 + 1) for i in range(10)]
        for frame in frames:
            a.send(frame)
        for frame in frames:
            assert b.recv(1.0) == frame

    def test_large_frame(self, pair):
        a, b = pair
        big = bytes(range(256)) * 1024  # 256 KB
        a.send(big)
        assert b.recv(5.0) == big

    def test_empty_frame(self, pair):
        a, b = pair
        a.send(b"")
        assert b.recv(1.0) == b""

    def test_timeout_preserves_stream_sync(self, pair):
        a, b = pair
        assert b.recv(0.02) is None  # timeout mid-wait
        a.send(b"after the timeout")
        assert b.recv(1.0) == b"after the timeout"

    def test_try_recv(self, pair):
        a, b = pair
        assert b.try_recv() is None
        a.send(b"polled")
        # Poll until the kernel delivers (loopback: quick).
        for _ in range(1000):
            frame = b.try_recv()
            if frame is not None:
                break
        assert frame == b"polled"


class TestLifecycle:
    def test_peer_address(self, pair):
        a, b = pair
        host, port = a.peer_address()
        assert host == "127.0.0.1"
        assert port > 0

    def test_send_after_close(self, pair):
        a, _ = pair
        a.close()
        with pytest.raises(InterfaceClosed):
            a.send(b"x")

    def test_recv_detects_peer_close(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(InterfaceClosed):
            # May take one timeout cycle for the FIN to arrive.
            for _ in range(50):
                b.recv(0.1)

    def test_recv_many_delivers_frames_that_precede_eof(self, pair):
        """Frames the peer wrote before closing are data, not collateral:
        the batch that runs into EOF still returns them, and only the
        *next* receive reports the death."""
        import time

        a, b = pair
        a.send(b"one")
        a.send(b"two")
        a.close()
        time.sleep(0.05)  # frames and FIN all sit in b's socket buffer
        assert b.recv_many(8, timeout=1.0) == [b"one", b"two"]
        with pytest.raises(InterfaceClosed):
            b.recv_many(8, timeout=0.1)

    def test_oversized_frame_rejected(self, pair):
        a, _ = pair
        a.max_frame = 10
        with pytest.raises(ValueError, match="exceeds"):
            a.send(b"x" * 11)


class TestListener:
    def test_accept_timeout(self):
        listener = SciListener()
        assert listener.accept(timeout=0.05) is None
        listener.close()

    def test_nonblocking_accept(self):
        listener = SciListener()
        assert listener.accept(timeout=0.0) is None
        listener.close()

    def test_accept_connect(self):
        listener = SciListener()
        result = {}

        def dial():
            result["iface"] = sci_connect(listener.host, listener.port)

        thread = threading.Thread(target=dial)
        thread.start()
        accepted = listener.accept(timeout=2.0)
        thread.join(2.0)
        assert accepted is not None
        result["iface"].send(b"hi")
        assert accepted.recv(1.0) == b"hi"
        accepted.close()
        result["iface"].close()
        listener.close()

    def test_close_wakes_a_blocked_accept(self):
        """close() must not leave an accept() waiting out its timeout
        (every Node.close used to cost one 0.2 s accept poll)."""
        listener = SciListener()
        parked = threading.Event()
        raised = []

        def accept():
            parked.set()
            try:
                listener.accept(timeout=5.0)
            except InterfaceClosed as exc:
                raised.append(exc)

        thread = threading.Thread(target=accept)
        thread.start()
        assert parked.wait(1.0)
        thread.join(0.05)  # let it get from the event into the syscall
        assert thread.is_alive()
        listener.close()
        thread.join(1.0)
        assert not thread.is_alive()
        assert len(raised) == 1


class TestPartialWrite:
    """Regression tests for the partial-``send`` desync bug: a transmit
    that cannot finish must tear the interface down with a typed error —
    a later send resuming mid-frame would shift every subsequent length
    prefix and desynchronize the peer's parser."""

    def test_stalled_transmit_tears_down_typed(self):
        a, b = throttled_sci_pair()
        a.send_stall_timeout = 0.3
        started = time.monotonic()
        with pytest.raises(InterfaceClosed, match="stalled mid-frame"):
            a.send(b"\xab" * (4 << 20))  # 4 MB into unread tiny buffers
        assert time.monotonic() - started < 3.0, "teardown was not bounded"
        assert a.partial_write_teardowns == 1
        assert a.closed
        # Dead, not wedged: the next send fails fast and can never
        # resume the torn frame.
        with pytest.raises(InterfaceClosed):
            a.send(b"again")
        b.close()

    def test_peer_parser_never_sees_torn_frame(self):
        a, b = throttled_sci_pair()
        a.send_stall_timeout = 0.3
        with pytest.raises(InterfaceClosed):
            a.send(b"\xab" * (4 << 20))
        # The peer holds a committed length prefix and a partial body
        # followed by EOF: it must raise, never deliver a torn frame.
        with pytest.raises(InterfaceClosed):
            for _ in range(100):
                b.recv(0.1)
        assert b.received_frames == 0
        b.close()

    def test_slow_reader_inside_window_completes(self):
        """The stall deadline punishes zero progress, not slowness: a
        reader draining in throttled chunks resets the clock every time
        bytes move, and the frame lands intact even though the whole
        transfer takes far longer than ``send_stall_timeout``."""
        a, b = throttled_sci_pair()
        a.send_stall_timeout = 0.4
        payload = b"\xcd" * (1 << 20)
        total = _LEN_SIZE + len(payload)
        received = bytearray()

        def trickle_read():
            while len(received) < total:
                select.select([b._sock], [], [], 1.0)
                try:
                    chunk = b._sock.recv(65536)
                except (BlockingIOError, InterruptedError):
                    continue
                if not chunk:
                    break
                received.extend(chunk)
                time.sleep(0.05)

        thread = threading.Thread(target=trickle_read, daemon=True)
        thread.start()
        started = time.monotonic()
        a.send(payload)
        thread.join(30.0)
        assert len(received) == total
        assert time.monotonic() - started > a.send_stall_timeout
        assert a.partial_write_teardowns == 0
        (length,) = struct.unpack(_LEN_FMT, received[:_LEN_SIZE])
        assert length == len(payload)
        assert bytes(received[_LEN_SIZE:]) == payload
        a.close()
        b.close()

    def test_slow_reader_multi_frame_burst_lands_whole(self):
        """The same, for a gathered burst: 64 SDUs (a prefix, a header
        and a payload segment each) through 8 KB kernel buffers stop
        short dozens of times, wherever the kernel pleases; every frame
        must still reach the peer's parser whole and in order."""
        from repro.protocol.segmentation import segment_message

        a, b = throttled_sci_pair()
        a.send_stall_timeout = 0.4
        sdus = segment_message(3, 1, bytes(range(256)) * 1024, 4096, trace_id=9)
        assert len(sdus) == 64
        received = []

        def slow_read():
            while len(received) < len(sdus):
                frames = b.recv_many(4, timeout=5.0)
                if not frames:
                    break
                received.extend(frames)
                time.sleep(0.01)

        thread = threading.Thread(target=slow_read, daemon=True)
        thread.start()
        assert a.send_many(sdus) == len(sdus)
        thread.join(30.0)
        assert received == [sdu.encode() for sdu in sdus]
        assert a.partial_write_teardowns == 0
        assert a.backlog_bytes == 0
        a.close()
        b.close()

    def test_queue_frames_backlog_then_flush(self):
        """The event-plane surface: ``queue_frames`` never blocks — it
        reports an unflushed backlog, and ``flush_backlog`` completes
        the same bytes later without tearing or reordering frames."""
        a, b = throttled_sci_pair()
        frames = [bytes([i % 256]) * 60000 for i in range(40)]  # ~2.3 MB
        drained = a.queue_frames(frames)
        assert not drained
        assert a.backlog_bytes > 0
        result = {}

        def drain():
            got = []
            while len(got) < len(frames):
                frame = b.recv(5.0)
                if frame is None:
                    break
                got.append(frame)
            result["frames"] = got

        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        deadline = time.monotonic() + 20.0
        while not a.flush_backlog() and time.monotonic() < deadline:
            select.select([], [a._sock], [], 0.25)
        assert a.backlog_bytes == 0
        thread.join(20.0)
        assert result["frames"] == frames
        a.close()
        b.close()


class TestMidFrameStall:
    def test_half_a_frame_fails_cleanly(self, pair):
        """A peer that sends a length header and then goes quiet must
        produce a transport error within the mid-frame deadline — not
        hang the receiver forever."""
        import struct
        import time

        from repro.interfaces.sci import _LEN_FMT

        a, b = pair
        b.mid_frame_timeout = 0.3
        a._sock.sendall(struct.pack(_LEN_FMT, 100) + b"only-a-prefix")
        started = time.monotonic()
        with pytest.raises(InterfaceClosed, match="stalled mid-frame"):
            b.recv(timeout=5.0)
        assert time.monotonic() - started < 2.0, "deadline was not bounded"
        assert b.mid_frame_stalls == 1
        # The interface is dead, not wedged: later calls fail fast too.
        with pytest.raises(InterfaceClosed):
            b.recv(timeout=0.1)

    def test_slow_but_progressing_frame_survives(self, pair):
        """The deadline punishes stalls, not slowness: a frame trickling
        in chunks inside the window is still delivered."""
        a, b = pair
        b.mid_frame_timeout = 2.0
        payload = bytes(range(200)) * 10

        def trickle():
            import struct

            from repro.interfaces.sci import _LEN_FMT

            a._sock.sendall(struct.pack(_LEN_FMT, len(payload)))
            for i in range(0, len(payload), 500):
                a._sock.sendall(payload[i:i + 500])
                threading.Event().wait(0.05)

        thread = threading.Thread(target=trickle)
        thread.start()
        assert b.recv(timeout=10.0) == payload
        thread.join(5.0)
        assert b.mid_frame_stalls == 0


class TestNonBlockingPartialFrame:
    """Regression tests for the zero-timeout receive path.

    The event data plane reads with ``timeout=0`` from its loop thread,
    so a frame that is split across kernel writes (its tail parked in
    the sender's tx backlog behind a busy loop) must stay buffered and
    return None — the old path blocked in bounded selects and then
    declared a merely *slow* peer dead, tearing down healthy
    connections under a connection storm.
    """

    def test_partial_frame_stays_buffered_and_completes(self, pair):
        a, b = pair
        payload = bytes(range(256)) * 4
        a._sock.sendall(struct.pack(_LEN_FMT, len(payload)) + payload[:100])
        deadline = time.monotonic() + 2.0
        while b.metrics()["rx_buffered_bytes"] < _LEN_SIZE + 100:
            assert b.try_recv() is None
            assert time.monotonic() < deadline, "prefix never buffered"
        # Stable: repeated polls neither consume, block, nor kill.
        for _ in range(10):
            assert b.try_recv() is None
        assert b.mid_frame_stalls == 0
        a._sock.sendall(payload[100:])
        frame = None
        deadline = time.monotonic() + 2.0
        while frame is None and time.monotonic() < deadline:
            frame = b.try_recv()
        assert frame == payload

    def test_partial_frame_poll_never_blocks(self, pair):
        a, b = pair
        a._sock.sendall(struct.pack(_LEN_FMT, 5000) + b"\x01" * 10)
        time.sleep(0.05)  # let the kernel deliver the fragment
        started = time.monotonic()
        for _ in range(100):
            assert b.try_recv() is None
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"zero-timeout polls blocked ({elapsed:.2f}s)"
        assert b.mid_frame_stalls == 0

    def test_recv_many_returns_only_complete_frames(self, pair):
        a, b = pair
        f1, f2 = b"first-frame", b"second"
        partial_len = 64
        a._sock.sendall(
            struct.pack(_LEN_FMT, len(f1)) + f1
            + struct.pack(_LEN_FMT, len(f2)) + f2
            + struct.pack(_LEN_FMT, partial_len) + b"\x02" * 10
        )
        got = []
        deadline = time.monotonic() + 2.0
        while len(got) < 2 and time.monotonic() < deadline:
            got.extend(b.recv_many(8, timeout=0.0))
        assert got == [f1, f2]
        assert b.recv_many(8, timeout=0.0) == []
        a._sock.sendall(b"\x02" * (partial_len - 10))
        got = []
        deadline = time.monotonic() + 2.0
        while not got and time.monotonic() < deadline:
            got = b.recv_many(8, timeout=0.0)
        assert got == [b"\x02" * partial_len]

    def test_peer_close_mid_frame_still_raises(self, pair):
        """EOF remains the death signal: a peer that really dies
        mid-frame produces a typed error, not a silent None."""
        a, b = pair
        a._sock.sendall(struct.pack(_LEN_FMT, 500) + b"\x03" * 20)
        time.sleep(0.05)
        while b.try_recv() is None and not b.metrics()["rx_buffered_bytes"]:
            time.sleep(0.01)
        a._sock.close()
        deadline = time.monotonic() + 2.0
        with pytest.raises(InterfaceClosed, match="mid-frame"):
            while time.monotonic() < deadline:
                b.try_recv()
                time.sleep(0.01)
