"""Node lifecycle, signaling, and connection management."""

import pytest

from repro.core import (
    ConnectionConfig,
    ConnectRejectedError,
    NcsError,
    Node,
    NodeConfig,
)


class TestLifecycle:
    def test_address_is_dialable(self, node_factory):
        node = node_factory("solo")
        host, port = node.address
        assert host == "127.0.0.1"
        assert port > 0

    def test_context_manager(self):
        with Node("ctx") as node:
            assert node.address[1] > 0
        assert node._closed

    def test_close_idempotent(self, node_factory):
        node = node_factory("twice")
        node.close()
        node.close()

    def test_connect_after_close_rejected(self, node_factory):
        a = node_factory("a")
        b = node_factory("b")
        a.close()
        with pytest.raises(NcsError):
            a.connect(b.address)


class TestSignaling:
    def test_accept_returns_matching_connection(self, node_factory):
        a = node_factory("alice")
        b = node_factory("bob")
        conn = a.connect(b.address, peer_name="bob")
        peer = b.accept(timeout=5.0)
        assert peer is not None
        assert peer.conn_id == conn.conn_id
        assert peer.peer_name == "alice"

    def test_accept_timeout_returns_none(self, node_factory):
        node = node_factory("lonely")
        assert node.accept(timeout=0.05) is None

    def test_config_negotiated_to_acceptor(self, node_factory):
        a = node_factory("alice")
        b = node_factory("bob")
        config = ConnectionConfig(
            flow_control="window",
            error_control="go_back_n",
            interface="aci",
            sdu_size=8192,
            window_size=5,
        )
        a.connect(b.address, config, peer_name="bob")
        peer = b.accept(timeout=5.0)
        assert peer.config.flow_control == "window"
        assert peer.config.error_control == "go_back_n"
        assert peer.config.interface == "aci"
        assert peer.config.sdu_size == 8192

    def test_accept_handler_can_reject(self, node_factory):
        a = node_factory("alice")
        b = node_factory("bob")
        b.accept_handler = lambda request: "policy says no"
        with pytest.raises(ConnectRejectedError, match="policy says no"):
            a.connect(b.address, timeout=5.0)

    def test_accept_handler_false_rejects(self, node_factory):
        a = node_factory("alice")
        b = node_factory("bob")
        b.accept_handler = lambda request: False
        with pytest.raises(ConnectRejectedError):
            a.connect(b.address, timeout=5.0)

    def test_accept_handler_can_override_config(self, node_factory):
        a = node_factory("alice")
        b = node_factory("bob")
        b.accept_handler = lambda request: ConnectionConfig(
            interface=request.interface, mode="bypass",
            flow_control="none", error_control="none",
        )
        conn = a.connect(
            b.address,
            ConnectionConfig(flow_control="none", error_control="none"),
            peer_name="bob",
        )
        peer = b.accept(timeout=5.0)
        assert peer.config.mode == "bypass"
        conn.send(b"hello")
        assert peer.recv(timeout=5.0) == b"hello"

    def test_multiple_connections_same_pair(self, node_factory):
        a = node_factory("alice")
        b = node_factory("bob")
        conns = [a.connect(b.address, peer_name="bob") for _ in range(3)]
        peers = [b.accept(timeout=5.0) for _ in range(3)]
        assert len({c.conn_id for c in conns}) == 3
        # Traffic stays on its own connection.
        for index, conn in enumerate(conns):
            conn.send(f"msg-{index}".encode(), wait=True, timeout=5.0)
        by_id = {p.conn_id: p for p in peers}
        for index, conn in enumerate(conns):
            assert by_id[conn.conn_id].recv(timeout=5.0) == f"msg-{index}".encode()

    def test_connections_listing(self, node_factory):
        a = node_factory("alice")
        b = node_factory("bob")
        a.connect(b.address, peer_name="bob")
        b.accept(timeout=5.0)
        assert len(a.connections()) == 1
        assert len(b.connections()) == 1


class TestHpiSignaling:
    def test_hpi_rejected_across_fabrics(self, node_factory):
        from repro.interfaces.hpi import HpiFabric

        a = node_factory("alice", hpi_fabric=HpiFabric("left"))
        b = node_factory("bob", hpi_fabric=HpiFabric("right"))
        with pytest.raises(ConnectRejectedError, match="HPI offer"):
            a.connect(b.address, ConnectionConfig(interface="hpi"), timeout=5.0)

    def test_hpi_works_on_shared_fabric(self, node_factory):
        from repro.interfaces.hpi import HpiFabric

        fabric = HpiFabric("shared")
        a = node_factory("alice", hpi_fabric=fabric)
        b = node_factory("bob", hpi_fabric=fabric)
        conn = a.connect(b.address, ConnectionConfig(interface="hpi"))
        peer = b.accept(timeout=5.0)
        conn.send(b"trap", wait=True, timeout=5.0)
        assert peer.recv(timeout=5.0) == b"trap"


class TestControlPlane:
    def test_sent_pdu_count_is_exact_under_concurrent_senders(self, node_factory):
        """Every sender thread used to bump the per-type count itself,
        unlocked; the Control Send Thread is its only writer now."""
        import sys
        import threading
        import time

        from repro.interfaces.loopback import LoopbackPair
        from repro.obs.registry import MetricsRegistry
        from repro.protocol.pdus import CreditPdu

        registry = MetricsRegistry()
        node = node_factory("counter", metrics=True, metrics_registry=registry)
        link, far_end = LoopbackPair().endpoints()
        threads, each = 8, 2000

        def sender(tag: int) -> None:
            for n in range(each):
                node.control_send(link, CreditPdu(tag, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=sender, args=(tag,))
                for tag in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        arrived = 0
        deadline = time.monotonic() + 10.0
        while arrived < threads * each and time.monotonic() < deadline:
            arrived += len(far_end.recv_many(1024, timeout=0.1))
        assert arrived == threads * each
        # (The count follows the write, which the frames above prove done.)
        deadline = time.monotonic() + 5.0
        while node._ctrl_pdu_sent.get("CreditPdu") != arrived:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        published = [
            gauge["value"]
            for gauge in registry.snapshot()["gauges"]
            if gauge["name"] == "ncs_control_pdus_sent"
            and gauge["labels"]["type"] == "CreditPdu"
        ]
        assert published == [threads * each]

    def test_malformed_control_frame_is_skipped_not_fatal(
        self, connected_pair, monkeypatch
    ):
        """A frame that does not decode is traced and dropped; the PDUs
        read with it, before and after, still reach their connection —
        here as the one run they would have been without it."""
        from repro.core.connection import Connection
        from repro.protocol.pdus import ClosePdu, CreditPdu

        conn, _peer = connected_pair(trace=True)
        runs = []
        monkeypatch.setattr(
            Connection, "on_control_run", lambda self, pdus: runs.append(pdus)
        )
        good = [CreditPdu(conn.conn_id, 1), CreditPdu(conn.conn_id, 2)]
        frames = [good[0].encode(), b"\xff not a pdu", good[1].encode(), b""]
        conn.node._route_frames(frames, conn.peer_link)
        assert runs == [good]
        malformed = conn.node.tracer.select("node", "malformed_control")
        assert [event.detail["size"] for event in malformed] == [11, 0]
        # A PDU of another kind ends the run and is routed alone.
        del runs[:]
        frames = [good[0].encode(), ClosePdu(conn.conn_id).encode(), good[1].encode()]
        conn.node._route_frames(frames, conn.peer_link)
        assert runs == [[good[0]], [good[1]]]
        assert conn.peer_gone
