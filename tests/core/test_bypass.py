"""The §4.2 thread-bypass (procedure) variant of the primitives."""

import pytest

from repro.core import ConnectionConfig, Node, NodeConfig, SendStatus
from repro.obs.xray import XrayConfig


@pytest.fixture
def bypass_pair(node_factory):
    def make(config_overrides=None, **node_kwargs):
        client = node_factory("bp-client", **node_kwargs)
        server = node_factory("bp-server", **node_kwargs)
        server.accept_mode = "bypass"
        config = ConnectionConfig(
            interface="sci", mode="bypass", **(config_overrides or {})
        )
        conn = client.connect(server.address, config, peer_name="server")
        peer = server.accept(timeout=5.0)
        return conn, peer

    return make


class TestBypassPath:
    def test_no_data_threads_spawned(self, bypass_pair):
        conn, peer = bypass_pair()
        assert conn._threads == []
        assert peer._threads == []

    def test_send_recv(self, bypass_pair):
        conn, peer = bypass_pair()
        conn.send(b"procedural")
        assert peer.recv(timeout=5.0) == b"procedural"

    def test_multi_sdu_message(self, bypass_pair):
        conn, peer = bypass_pair()
        payload = b"B" * (5 * 4096)
        conn.send(payload)
        assert peer.recv(timeout=5.0) == payload

    def test_bidirectional(self, bypass_pair):
        conn, peer = bypass_pair()
        conn.send(b"there")
        assert peer.recv(timeout=5.0) == b"there"
        peer.send(b"back")
        assert conn.recv(timeout=5.0) == b"back"

    def test_reliable_send_completes_via_control_plane(self, bypass_pair):
        # ACKs arrive on the node's control reader thread and are applied
        # inline (procedures, not per-connection threads).
        conn, peer = bypass_pair()
        handle = conn.send(b"needs ack")
        assert peer.recv(timeout=5.0) == b"needs ack"
        assert handle.wait(timeout=5.0)
        assert handle.status is SendStatus.COMPLETED

    def test_try_recv_pumps_inline(self, bypass_pair):
        conn, peer = bypass_pair()
        conn.send(b"poll")
        for _ in range(500):
            frame = peer.try_recv()
            if frame is not None:
                break
        assert frame == b"poll"

    def test_mixed_modes_interoperate(self, node_factory):
        # Threaded client talking to a bypass server.  Note the ordering:
        # a bypass peer only pumps its receive path (and thus only emits
        # ACKs) inside recv(), so the sender must not block on the ACK
        # before the peer has called recv.
        client = node_factory("threaded-client")
        server = node_factory("bypass-server")
        server.accept_mode = "bypass"
        conn = client.connect(
            server.address, ConnectionConfig(interface="sci"), peer_name="s"
        )
        peer = server.accept(timeout=5.0)
        handle = conn.send(b"mixed")
        assert peer.recv(timeout=5.0) == b"mixed"
        assert handle.wait(timeout=5.0)

    def test_instrumentation_shows_fewer_stages(self, bypass_pair):
        conn, peer = bypass_pair(xray=XrayConfig(period=1))
        conn.send(b"x")
        peer.recv(timeout=5.0)
        (span,) = conn.node.xray.spans("send")
        stamps = span["stamps"]
        # No protocol/send threads: no queued->dequeued hop.
        assert "dequeued" not in stamps
        assert "send_thread_dequeued" not in stamps
        assert stamps["transmitted"] >= stamps["entry"]
