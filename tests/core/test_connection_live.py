"""Live connection behaviour: primitives, handles, stats, teardown —
on every data plane (see the ``plane`` fixture)."""

import threading
import time

import pytest

from repro.core import (
    ConnectionClosedError,
    ConnectionConfig,
    SendStatus,
)
from repro.obs.xray import XrayConfig
from repro.protocol.segmentation import segment_message

pytestmark = pytest.mark.usefixtures("plane")


class TestSendRecv:
    def test_send_wait_blocks_until_acked(self, connected_pair):
        conn, peer = connected_pair()
        received = []
        receiver = threading.Thread(
            target=lambda: received.append(peer.recv(timeout=5.0))
        )
        receiver.start()
        handle = conn.send(b"acked message", wait=True, timeout=5.0)
        receiver.join(5.0)
        assert handle.status is SendStatus.COMPLETED
        assert received == [b"acked message"]

    def test_async_send_returns_pending_handle(self, connected_pair):
        conn, peer = connected_pair()
        handle = conn.send(b"fire and check later")
        assert peer.recv(timeout=5.0) == b"fire and check later"
        assert handle.wait(timeout=5.0)

    def test_empty_message(self, connected_pair, deliver):
        conn, peer = connected_pair()
        assert deliver(conn, peer, b"") == b""

    def test_message_larger_than_sdu(self, connected_pair, deliver):
        conn, peer = connected_pair()
        payload = bytes(range(256)) * 256  # 64 KB = 16 SDUs
        assert deliver(conn, peer, payload, timeout=10.0) == payload

    def test_many_messages_in_order(self, connected_pair):
        conn, peer = connected_pair()
        for index in range(50):
            conn.send(f"msg-{index:03d}".encode())
        received = [peer.recv(timeout=5.0) for _ in range(50)]
        assert received == [f"msg-{i:03d}".encode() for i in range(50)]

    def test_bidirectional_traffic(self, connected_pair, deliver):
        conn, peer = connected_pair()
        assert deliver(conn, peer, b"ping") == b"ping"
        assert deliver(peer, conn, b"pong") == b"pong"

    def test_recv_timeout_none_message(self, connected_pair):
        conn, _ = connected_pair()
        assert conn.recv(timeout=0.05) is None

    def test_try_recv(self, connected_pair):
        conn, peer = connected_pair()
        assert peer.try_recv() is None
        conn.send(b"polled")
        frame = None
        deadline = time.monotonic() + 5.0
        while frame is None and time.monotonic() < deadline:
            frame = peer.try_recv()
        assert frame == b"polled"


class TestRecvZeroTimeout:
    """``recv(timeout=0.0)`` looks at the queue before the deadline."""

    def test_queued_message_is_returned(self, connected_pair, plane):
        conn, peer = connected_pair()
        conn.send(b"first")
        conn.send(b"second")
        assert peer.recv(timeout=5.0) == b"first"
        if plane != "bypass":
            # Someone else pumps: wait until the message is parked, then
            # a single zero-timeout call has to find it.
            deadline = time.monotonic() + 5.0
            while peer.recv_queue.empty() and time.monotonic() < deadline:
                time.sleep(0.002)
            assert peer.recv(timeout=0.0) == b"second"
            return
        # Bypass pumps inside recv; the frame may still be in flight.
        got = None
        deadline = time.monotonic() + 5.0
        while got is None and time.monotonic() < deadline:
            got = peer.recv(timeout=0.0)
        assert got == b"second"

    def test_empty_queue_returns_none_without_blocking(self, connected_pair):
        conn, _ = connected_pair()
        started = time.monotonic()
        for _ in range(20):
            assert conn.recv(timeout=0.0) is None
        assert time.monotonic() - started < 0.5


class TestInstrumentation:
    def test_stamps_recorded_in_order(self, connected_pair, plane):
        conn, peer = connected_pair(
            ConnectionConfig(flow_control="none", error_control="none"),
            xray=XrayConfig(period=1),
        )
        conn.send(b"x")
        assert peer.recv(timeout=5.0) == b"x"
        # The peer can hold the message before the Send Thread executes
        # its post-transmit stamp line; give it a beat.
        spans = []
        for _ in range(200):
            spans = conn.node.xray.spans("send")
            if spans:
                break
            time.sleep(0.002)
        (span,) = spans
        stamps = span["stamps"]
        if plane == "threaded":
            expected_order = [
                "entry", "queued", "dequeued", "segmented",
                "flow_released", "send_thread_dequeued", "transmitted",
            ]
        else:
            # No protocol/send threads: no queue hops to stamp.
            expected_order = [
                "entry", "segmented", "flow_released", "transmitted",
            ]
            assert "dequeued" not in stamps
            assert "send_thread_dequeued" not in stamps
        assert all(key in stamps for key in expected_order)
        values = [stamps[key] for key in expected_order]
        assert values == sorted(values)


class TestStats:
    def test_counters_track_traffic(self, connected_pair, deliver):
        conn, peer = connected_pair()
        deliver(conn, peer, b"one")
        deliver(conn, peer, b"two")
        assert conn.stats()["messages_sent"] == 2
        assert peer.stats()["messages_received"] == 2
        assert conn.messages_completed == 2
        totals = peer.metrics_totals()
        assert totals["messages_received"] == 2
        assert totals["bytes_received"] == 6


class TestOneDeliveryFunction:
    def test_timer_released_message_reaches_every_sink(self, connected_pair):
        """A message released by the receiver-side timer (ordered
        delivery giving up on a gap) is reported exactly like one
        released by a batch: size histogram, recorder and trace."""
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        _, peer = connected_pair(
            metrics=True, metrics_registry=registry, trace=True
        )
        # Message 2 arrives, message 1 never does: force the gap by
        # handing the receiver half the frame directly.
        (sdu,) = segment_message(peer.conn_id, 2, b"held", peer.config.sdu_size)
        peer.event_rx([sdu.encode()])
        assert peer.recv_queue.empty()
        assert peer.next_deadline is not None
        peer.on_timer_tick(peer.next_deadline)
        assert peer.recv(timeout=1.0) == b"held"
        assert peer.messages_received == 1
        hist = registry.histogram(
            "ncs_recv_message_bytes",
            node=peer.node.name, conn=str(peer.conn_id), peer=peer.peer_name,
        )
        assert hist.count == 1
        recorded = [
            e for e in peer.node.recorder.snapshot() if e["name"] == "deliver"
        ]
        assert [e["messages"] for e in recorded] == [1]
        traced = peer.node.tracer.select("data", "deliver")
        assert [e.detail["messages"] for e in traced] == [1]


class TestConcurrentUse:
    def test_many_senders_many_receivers_lose_nothing(self, connected_pair):
        """More threads than cores on both primitives at once, with a
        shortened switch interval: every counter the two halves of the
        core keep must come out exact, and every budget byte must be
        handed back — a lost update in either half breaks one of them."""
        import sys

        from repro.pressure import PressureConfig

        conn, peer = connected_pair(
            pressure=PressureConfig(delivery_quota_bytes=4096)
        )
        senders, receivers, per_sender = 6, 3, 40
        total = senders * per_sender
        received, errors = [], []
        received_lock = threading.Lock()

        def send_some(tag: int) -> None:
            try:
                for index in range(per_sender):
                    conn.send(bytes([tag, index]) * 300)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        def recv_some() -> None:
            try:
                while True:
                    with received_lock:
                        if len(received) >= total:
                            return
                    message = peer.recv(timeout=0.05)
                    if message is not None:
                        with received_lock:
                            received.append(message)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=send_some, args=(tag,))
                for tag in range(senders)
            ] + [threading.Thread(target=recv_some) for _ in range(receivers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(received) == sorted(
            bytes([tag, index]) * 300
            for tag in range(senders) for index in range(per_sender)
        )
        deadline = time.monotonic() + 5.0
        while conn.messages_completed < total and time.monotonic() < deadline:
            time.sleep(0.01)
        assert conn.messages_sent == conn.messages_completed == total
        assert peer.messages_received == total
        assert peer.bytes_received == total * 600
        assert not peer.credit_gate_closed
        assert conn.node.pressure.used() == 0
        assert peer.node.pressure.used() == 0


class TestClose:
    def test_send_after_close_raises(self, connected_pair):
        conn, _ = connected_pair()
        conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.send(b"too late")

    def test_peer_learns_of_close(self, connected_pair):
        conn, peer = connected_pair()
        conn.close()
        with pytest.raises(ConnectionClosedError):
            for _ in range(100):
                peer.recv(timeout=0.1)

    def test_pending_data_drains_before_close_error(self, connected_pair):
        conn, peer = connected_pair()
        conn.send(b"final words")
        time.sleep(0.05)  # let the Send Thread put it on the wire
        conn.close()
        assert peer.recv(timeout=5.0) == b"final words"

    def test_node_forgets_closed_connection(self, connected_pair):
        conn, _ = connected_pair()
        node = conn.node
        conn.close()
        assert conn not in node.connections()
