"""Admission policies, slow-consumer credit gating, and batch_max
validation — integration tests over real node pairs, on every data
plane (see the ``plane`` fixture)."""

import time

import pytest

from repro.core import ConnectionConfig, Node, NodeConfig
from repro.core.errors import NCSOverloaded, NCSTimeout
from repro.pressure import PressureConfig

pytestmark = pytest.mark.usefixtures("plane")


@pytest.fixture
def autonomous_receiver(plane):
    """Skip where the test needs a receiver that processes frames while
    its application is *not* calling recv: the §4.2 bypass plane has no
    such pump by construction (the application thread is the Receive
    Thread), so unread data simply waits in the transport."""
    if plane == "bypass":
        pytest.skip("bypass pumps the receive path only inside recv()")


def make_pair(node_factory, pressure, client_cfg=None, **node_kwargs):
    client = node_factory("client", pressure=pressure, **node_kwargs)
    server = node_factory("server", pressure=pressure, **node_kwargs)
    conn = client.connect(
        server.address, client_cfg or ConnectionConfig(), peer_name="server"
    )
    peer = server.accept(timeout=5.0)
    assert peer is not None
    return client, server, conn, peer


SMALL = PressureConfig(
    node_bytes=16 * 1024, conn_bytes=16 * 1024, delivery_quota_bytes=8 * 1024
)


class TestFailFast:
    def test_rejects_when_budget_exhausted(self, node_factory, deliver):
        client, server, conn, peer = make_pair(
            node_factory, SMALL, ConnectionConfig(admission="fail-fast")
        )
        client.pressure.force_reserve("send", conn.conn_id, SMALL.conn_bytes)
        with pytest.raises(NCSOverloaded) as excinfo:
            conn.send(b"x" * 64)
        assert excinfo.value.site == "send"
        assert client.pressure.snapshot()["admission_rejections"] == 1
        client.pressure.release("send", conn.conn_id, SMALL.conn_bytes)
        # Budget freed: the same send now goes through.
        assert deliver(conn, peer, b"x" * 64) == b"x" * 64

    def test_rejection_is_fast(self, node_factory):
        client, server, conn, peer = make_pair(
            node_factory, SMALL, ConnectionConfig(admission="fail-fast")
        )
        client.pressure.force_reserve("send", conn.conn_id, SMALL.conn_bytes)
        samples = []
        for _ in range(30):
            started = time.perf_counter()
            with pytest.raises(NCSOverloaded):
                conn.send(b"y")
            samples.append(time.perf_counter() - started)
        samples.sort()
        assert samples[len(samples) // 2] < 0.001  # median < 1 ms
        client.pressure.release("send", conn.conn_id, SMALL.conn_bytes)


class TestBlock:
    def test_blocks_then_times_out(self, node_factory):
        client, server, conn, peer = make_pair(
            node_factory, SMALL, ConnectionConfig(admission="block")
        )
        client.pressure.force_reserve("send", conn.conn_id, SMALL.conn_bytes)
        started = time.monotonic()
        with pytest.raises(NCSTimeout):
            conn.send(b"z" * 64, wait=True, timeout=0.3)
        assert 0.25 <= time.monotonic() - started < 2.0
        assert client.pressure.snapshot()["admission_waits"] >= 1
        client.pressure.release("send", conn.conn_id, SMALL.conn_bytes)

    def test_blocked_send_proceeds_when_budget_frees(self, node_factory, deliver):
        client, server, conn, peer = make_pair(
            node_factory, SMALL, ConnectionConfig(admission="block")
        )
        client.pressure.force_reserve("send", conn.conn_id, SMALL.conn_bytes)

        def free_later():
            time.sleep(0.2)
            client.pressure.release("send", conn.conn_id, SMALL.conn_bytes)

        import threading

        threading.Thread(target=free_later, daemon=True).start()
        started = time.monotonic()
        assert deliver(conn, peer, b"w" * 64) == b"w" * 64
        assert time.monotonic() - started >= 0.15


class TestShedOldest:
    def test_sheds_stalest_delivery_to_admit_send(
        self, node_factory, deliver, autonomous_receiver
    ):
        client, server, conn, peer = make_pair(
            node_factory, SMALL, ConnectionConfig(admission="shed-oldest")
        )
        # Fill the *client's* delivery site: the server sends messages
        # the client application never picks up.
        for index in range(3):
            peer.send(bytes([index]) * 4096, wait=True, timeout=5.0)
        deadline = time.monotonic() + 5.0
        while (
            client.pressure.site_used("delivery", conn.conn_id) < 3 * 4096
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        # A large send no longer fits; shed-oldest evicts parked
        # deliveries (oldest first) instead of failing.
        assert deliver(conn, peer, b"s" * 8192) == b"s" * 8192
        snap = client.pressure.snapshot()
        assert snap["deliveries_shed"] >= 1
        assert snap["shed_bytes"] >= 4096
        assert snap["shed_control_pdus"] == 0
        # The evicted message is message 0 (the stalest); a later recv
        # yields a younger survivor, not the shed one.
        survivor = conn.recv(1.0)
        assert survivor is not None and survivor[0] != 0

    def test_raises_when_nothing_left_to_shed(self, node_factory):
        client, server, conn, peer = make_pair(
            node_factory, SMALL, ConnectionConfig(admission="shed-oldest")
        )
        client.pressure.force_reserve("send", conn.conn_id, SMALL.conn_bytes)
        with pytest.raises(NCSOverloaded):
            conn.send(b"x" * 64)
        client.pressure.release("send", conn.conn_id, SMALL.conn_bytes)


class TestSlowConsumer:
    def test_credit_gate_closes_and_reopens(
        self, node_factory, deliver, autonomous_receiver
    ):
        pressure = PressureConfig(
            node_bytes=1 << 20,
            conn_bytes=1 << 20,
            delivery_quota_bytes=8 * 1024,
        )
        client, server, conn, peer = make_pair(node_factory, pressure)
        for _ in range(40):
            conn.send(b"m" * 2048)
        deadline = time.monotonic() + 5.0
        while not peer.credit_gate_closed and time.monotonic() < deadline:
            time.sleep(0.02)
        assert peer.credit_gate_closed
        stats = peer.stats()
        assert stats["slow_consumer_trips"] >= 1
        assert stats["credits_withheld"] > 0
        # The stalled sender shows up in its flow-control counters.
        sender_deadline = time.monotonic() + 5.0
        while (
            conn.metrics_totals().get("fc_tx_credit_stalls", 0) == 0
            and time.monotonic() < sender_deadline
        ):
            time.sleep(0.05)
        assert conn.metrics_totals()["fc_tx_credit_stalls"] > 0
        # Draining the queue reopens the gate and flushes the withheld
        # credits in one coalesced grant; traffic resumes.
        drained = 0
        while peer.recv(0.5) is not None:
            drained += 1
        assert drained == 40
        assert not peer.credit_gate_closed
        assert deliver(conn, peer, b"after") == b"after"

    def test_gated_peer_stays_pinned_under_resync(
        self, node_factory, deliver, autonomous_receiver
    ):
        # Regression for the credit-trickle leak: a stalled sender's
        # credit *resynchronization* must not mint fresh credits while
        # the receiver's slow-consumer gate is closed.  The two-phase
        # protocol sends a CreditResyncPdu instead; the gated receiver
        # answers with a zero-credit pin, and the send window stays shut
        # until the application drains below resume_fraction.
        pressure = PressureConfig(
            node_bytes=1 << 20,
            conn_bytes=1 << 20,
            delivery_quota_bytes=8 * 1024,
        )
        client, server, conn, peer = make_pair(node_factory, pressure)
        conn.fc_sender.resync_timeout = 0.1  # several cycles per second
        for _ in range(40):
            conn.send(b"m" * 2048)
        deadline = time.monotonic() + 5.0
        while not peer.credit_gate_closed and time.monotonic() < deadline:
            time.sleep(0.02)
        assert peer.credit_gate_closed
        # The sender stalls, raises a resync request, and gets pinned.
        deadline = time.monotonic() + 5.0
        while (
            conn.metrics_totals().get("fc_tx_pinned_replies", 0) == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        totals = conn.metrics_totals()
        assert totals["fc_tx_resync_requests"] >= 1
        assert totals["fc_tx_pinned_replies"] >= 1
        assert peer.resync_requests_answered >= 1
        released = totals["fc_tx_released_sdus"]
        # Many resync cycles later: still no unilateral restore, and not
        # one extra SDU released — the window is pinned, not trickling.
        time.sleep(0.5)
        totals = conn.metrics_totals()
        assert totals["fc_tx_resyncs"] == 0
        assert totals["fc_tx_released_sdus"] == released
        assert peer.credit_gate_closed
        # Draining below resume_fraction reopens the gate and flushes
        # the withheld grants; everything queued arrives.
        drained = 0
        while peer.recv(1.0) is not None:
            drained += 1
        assert drained == 40
        assert not peer.credit_gate_closed
        assert deliver(conn, peer, b"after") == b"after"

    def test_budget_returns_to_zero_after_traffic(self, node_factory, deliver):
        client, server, conn, peer = make_pair(node_factory, SMALL)
        for _ in range(5):
            assert deliver(conn, peer, b"q" * 1024) is not None
        deadline = time.monotonic() + 5.0
        while (
            client.pressure.used() + server.pressure.used() > 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert client.pressure.used() == 0
        assert server.pressure.used() == 0


class TestHealthIntegration:
    def test_credit_gate_surfaces_overloaded(
        self, node_factory, autonomous_receiver
    ):
        pressure = PressureConfig(
            node_bytes=1 << 20,
            conn_bytes=1 << 20,
            delivery_quota_bytes=4 * 1024,
        )
        client, server, conn, peer = make_pair(node_factory, pressure)
        for _ in range(20):
            conn.send(b"h" * 2048)
        deadline = time.monotonic() + 5.0
        while not peer.credit_gate_closed and time.monotonic() < deadline:
            time.sleep(0.02)
        report = server.health()
        assert report["state"] in ("OVERLOADED", "STALLED", "DEGRADED")
        assert "pressure" in report
        states = [c["state"] for c in report["connections"]]
        assert "OVERLOADED" in states


class TestBatchMaxValidation:
    def test_nonpositive_batch_max_rejected(self, node_factory):
        from repro.core.node import _PendingConnect
        from repro.protocol.pdus import ConnectRequestPdu

        client = node_factory("client")
        server = node_factory("server")
        conn_id = client._new_conn_id()
        pending = _PendingConnect()
        client._pending[conn_id] = pending
        request = ConnectRequestPdu(
            connection_id=conn_id,
            src_node=client.name,
            dst_node="server",
            src_data_port=0,
            flow_control="none",
            error_control="none",
            interface="sci",
            sdu_size=1024,
            initial_credits=16,
            window_size=16,
            rate_pps=0.0,
            batch_max=0,  # hostile: the dataclass is bypassable on the wire
        )
        client.control_send(client.control_link(server.address), request)
        assert pending.event.wait(5.0)
        assert pending.reject_reason is not None
        assert "batch_max" in pending.reject_reason
        client._pending.pop(conn_id, None)

    def test_huge_batch_max_clamped_to_ceiling(self, node_factory, deliver):
        client = node_factory("client")
        server = node_factory("server", batch_max_ceiling=8)
        conn = client.connect(
            server.address,
            ConnectionConfig(batch_max=500),
            peer_name="server",
        )
        peer = server.accept(timeout=5.0)
        assert peer is not None
        assert peer.config.batch_max == 8
        # The clamped connection still moves data.
        assert deliver(conn, peer, b"clamped") == b"clamped"

    def test_normal_batch_max_passes_through(self, node_factory):
        client = node_factory("client")
        server = node_factory("server")
        conn = client.connect(
            server.address, ConnectionConfig(batch_max=4), peer_name="server"
        )
        peer = server.accept(timeout=5.0)
        assert peer.config.batch_max == 4
