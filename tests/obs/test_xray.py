"""Latency X-ray: sampling determinism, telescoping, export surfaces.

Covers the ISSUE-7 acceptance bars directly: deterministic 1-in-N
sampling under a seeded ``NCS_XRAY``, stage sums telescoping to the
measured end-to-end latency on both the in-process (hpi) and simulated
(sci) interfaces, a near-free disabled path (no X-ray allocations on
unsampled sends), and per-connection p99 visibility through the
telemetry snapshot and the Prometheus exposition.
"""

import json
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.core import ConnectionConfig, Node, NodeConfig
from repro.obs.profiler import TELESCOPE_TOLERANCE
from repro.obs.registry import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.xray import (
    STAGE_ORDER,
    XRAY_SPAN_MARK,
    XrayConfig,
    XrayRecorder,
    dominance_report,
    join_spans,
    load_spans,
)


class TestXrayConfigParsing:
    @pytest.mark.parametrize("raw", ["", "off", "none", "0", "false",
                                     "disabled", "  OFF  "])
    def test_off_spellings(self, raw):
        assert XrayConfig.parse(raw) is None

    def test_none_is_off(self):
        assert XrayConfig.parse(None) is None

    @pytest.mark.parametrize("raw,period", [("64", 64), ("1/64", 64),
                                            ("1", 1), ("1/1", 1),
                                            (" 1/8 ", 8)])
    def test_period_forms(self, raw, period):
        cfg = XrayConfig.parse(raw)
        assert cfg.period == period
        assert cfg.seed == 0

    def test_seed_clause(self):
        cfg = XrayConfig.parse("1/64;seed=7")
        assert (cfg.period, cfg.seed) == (64, 7)

    @pytest.mark.parametrize("raw", ["banana", "1/banana", "1/64;tilt=3",
                                     "1/64;seed=", "1/64;seed=x", "-4"])
    def test_bad_specs_raise(self, raw):
        with pytest.raises(ValueError):
            XrayConfig.parse(raw)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            XrayConfig(period=0)
        with pytest.raises(ValueError):
            XrayConfig(seed=-1)
        with pytest.raises(ValueError):
            XrayConfig(ring_capacity=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("NCS_XRAY", "1/16;seed=3")
        cfg = XrayConfig.from_env()
        assert (cfg.period, cfg.seed) == (16, 3)
        monkeypatch.delenv("NCS_XRAY")
        assert XrayConfig.from_env() is None

    def test_node_config_plumbing(self, monkeypatch):
        monkeypatch.delenv("NCS_XRAY", raising=False)
        assert NodeConfig(name="x").xray_config() is None
        assert NodeConfig(name="x", xray="8").xray_config().period == 8
        cfg = XrayConfig(period=4)
        assert NodeConfig(name="x", xray=cfg).xray_config() is cfg
        # env supplies the default; an explicit False overrides it off.
        monkeypatch.setenv("NCS_XRAY", "32")
        assert NodeConfig(name="x").xray_config().period == 32
        assert NodeConfig(name="x", xray=False).xray_config() is None


class TestDeterministicSampling:
    def test_exact_one_in_n(self):
        recorder = XrayRecorder("n", XrayConfig(period=4))
        picks = [i for i in range(1, 41) if recorder.sampled(i)]
        assert len(picks) == 10
        assert picks == list(range(4, 41, 4))

    def test_seed_shifts_phase_deterministically(self):
        base = XrayRecorder("n", XrayConfig(period=8))
        shifted = XrayRecorder("n", XrayConfig(period=8, seed=3))
        base_picks = {i for i in range(1, 65) if base.sampled(i)}
        shifted_picks = {i for i in range(1, 65) if shifted.sampled(i)}
        assert len(base_picks) == len(shifted_picks) == 8
        assert base_picks.isdisjoint(shifted_picks)
        again = {i for i in range(1, 65)
                 if XrayRecorder("n", XrayConfig(period=8, seed=3)).sampled(i)}
        assert again == shifted_picks

    def test_period_one_samples_everything(self):
        recorder = XrayRecorder("n", XrayConfig(period=1))
        assert all(recorder.sampled(i) for i in range(1, 20))


@pytest.fixture
def xray_pair():
    """Two X-ray'd nodes (period=1) over the full protocol stack."""

    def build(interface="hpi", period=1, payload_size=512, iterations=20):
        cfg = XrayConfig(period=period)
        node_a = Node(NodeConfig(name="xa", xray=cfg))
        node_b = Node(NodeConfig(name="xb", xray=cfg))
        try:
            conn = node_a.connect(
                node_b.address,
                ConnectionConfig(
                    interface=interface,
                    flow_control="credit",
                    error_control="selective_repeat",
                ),
                peer_name="xb",
            )
            peer = node_b.accept(timeout=5.0)
            payload = bytes(payload_size)
            for _ in range(iterations):
                conn.send(payload, wait=True, timeout=5.0)
                assert peer.recv(timeout=5.0) is not None
            time.sleep(0.05)  # let the last transmit stamp land
            return (node_a.xray.spans() + node_b.xray.spans(),
                    node_a.xray, node_b.xray)
        finally:
            node_a.close()
            node_b.close()

    return build


class TestLiveSampling:
    def test_one_in_four_picks_exactly_a_quarter(self, xray_pair):
        spans, sender, receiver = xray_pair(period=4, iterations=20)
        assert sender.sampled_sends == 5
        assert receiver.sampled_recvs == 5
        # Sender and receiver agree on which messages were sampled.
        send_traces = {s["trace"] for s in spans if s["kind"] == "send"}
        recv_traces = {s["trace"] for s in spans if s["kind"] == "recv"}
        assert send_traces == recv_traces

    def test_span_mark_rides_the_envelope(self):
        assert XRAY_SPAN_MARK == 0x80000000
        # msg ids count from 1, so an unsampled message's default
        # span_id (= msg_id) cannot carry the mark in any realistic run.
        assert (20 & XRAY_SPAN_MARK) == 0


def _assert_joined_telescopes(spans):
    # Each direction telescopes *exactly*: adjacent stages share their
    # boundary stamps, so the sum is the measured total by construction.
    for span in spans:
        assert sum(span["stages"].values()) == span["total_ns"], (
            f"{span['kind']} span for msg {span['msg']} does not "
            f"telescope: {span['stages']} vs total {span['total_ns']}"
        )
    joined = join_spans(spans)
    assert joined, "no sender/receiver span pairs joined by trace id"
    for span in joined:
        # End to end the invariant gains the wire/overlap terms: on
        # inline-delivery interfaces the receiver's stages overlap the
        # sender's interface_write, and join_spans accounts every
        # clamped nanosecond in overlap_ns.
        stage_sum = sum(span["stages"].values()) - span["overlap_ns"]
        assert span["e2e_ns"] > 0
        assert stage_sum == pytest.approx(
            span["e2e_ns"], rel=TELESCOPE_TOLERANCE
        ), (
            f"stages sum to {stage_sum} ns but e2e is {span['e2e_ns']} ns "
            f"for msg {span['msg']}: {span['stages']}"
        )
    return joined


class TestTelescoping:
    def test_stage_sums_telescope_on_hpi(self, xray_pair):
        spans, _, _ = xray_pair(interface="hpi")
        joined = _assert_joined_telescopes(spans)
        assert len(joined) == 20

    def test_stage_sums_telescope_on_sci(self, xray_pair):
        spans, _, _ = xray_pair(interface="sci")
        _assert_joined_telescopes(spans)

    def test_bypass_mode_uses_queue_free_taxonomy(self):
        node_a = Node(NodeConfig(name="bya", xray=XrayConfig(period=1)))
        node_b = Node(NodeConfig(name="byb", xray=XrayConfig(period=1)))
        node_b.accept_mode = "bypass"
        try:
            conn = node_a.connect(
                node_b.address,
                ConnectionConfig(interface="sci", mode="bypass",
                                 flow_control="none", error_control="none"),
                peer_name="byb",
            )
            peer = node_b.accept(timeout=5.0)
            for _ in range(6):
                conn.send(b"z" * 256)
                assert peer.recv(timeout=5.0) is not None
            time.sleep(0.05)
            sends = node_a.xray.spans(kind="send")
        finally:
            node_a.close()
            node_b.close()
        assert len(sends) == 6
        for span in sends:
            # No queues, no context switches: the bypass taxonomy.
            assert set(span["stages"]) == {
                "admission_wait", "encode", "ec_window_wait",
                "fc_credit_wait", "interface_write",
            }
            assert sum(span["stages"].values()) == span["total_ns"]

    def test_all_threaded_stages_present(self, xray_pair):
        spans, _, _ = xray_pair(interface="hpi", iterations=4)
        joined = join_spans(spans)
        expected = set(STAGE_ORDER)
        for span in joined:
            assert set(span["stages"]) == expected


class TestDisabledPath:
    def test_off_by_default_and_allocation_free(self):
        node_a = Node(NodeConfig(name="off-a", xray=False))
        node_b = Node(NodeConfig(name="off-b", xray=False))
        try:
            assert node_a.xray is None
            conn = node_a.connect(
                node_b.address, ConnectionConfig(interface="hpi"),
                peer_name="off-b",
            )
            peer = node_b.accept(timeout=5.0)
            conn.send(b"warm")  # warm up lazy machinery before tracing
            assert peer.recv(timeout=5.0) is not None
            tracemalloc.start()
            try:
                for _ in range(10):
                    conn.send(b"x")
                    assert peer.recv(timeout=5.0) is not None
                snap = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, "*xray*")]
                )
            finally:
                tracemalloc.stop()
            assert sum(stat.count for stat in snap.statistics("filename")) == 0
            assert conn.xray is None and peer.xray is None
        finally:
            node_a.close()
            node_b.close()

    def test_unsampled_sends_leave_no_spans(self, xray_pair):
        spans, sender, _ = xray_pair(period=1000, iterations=5)
        assert sender.sampled_sends == 0
        assert spans == []


@pytest.fixture
def queued_pair(node_factory):
    """Every message sampled; the receiver's ``recv_queue`` fills with
    ``count`` copies of ``payload`` before anything is taken."""

    def build(payload, count=8):
        cfg = XrayConfig(period=1)
        sender = node_factory("qa", xray=cfg)
        receiver = node_factory("qb", xray=cfg)
        conn = sender.connect(
            receiver.address, ConnectionConfig(interface="hpi"),
            peer_name="qb",
        )
        peer = receiver.accept(timeout=5.0)
        for _ in range(count):
            conn.send(payload, wait=True, timeout=5.0)
        assert peer.core.messages_received == count
        return peer, receiver.xray

    return build


class TestParkedDeliveries:
    """Receive spans wait in ``recv_queue`` order, not under
    ``id(message)``: CPython hands out one object for every equal
    1-byte ``bytes``, so queued ``b"x"`` deliveries used to share (and
    overwrite) a single parked span."""

    def test_queued_one_byte_messages_keep_their_own_spans(self, queued_pair):
        peer, recorder = queued_pair(b"x")
        for _ in range(8):
            assert peer.recv(timeout=5.0) == b"x"
        spans = recorder.spans("recv")
        assert recorder.sampled_recvs == len(spans) == 8
        assert [span["msg"] for span in spans] == list(range(1, 9))
        reassembled = [span["stamps"]["reassembled"] for span in spans]
        popped = [span["stamps"]["popped"] for span in spans]
        assert reassembled == sorted(reassembled)
        assert popped == sorted(popped)

    def test_shed_delivery_takes_its_span_with_it(self, queued_pair):
        peer, recorder = queued_pair(b"x")
        assert peer.shed_oldest_delivery() == 1
        for _ in range(7):
            assert peer.recv(timeout=5.0) == b"x"
        spans = recorder.spans("recv")
        # Message 1 was evicted; every survivor kept its own span.
        assert [span["msg"] for span in spans] == list(range(2, 9))
        for span in spans:
            assert sum(span["stages"].values()) == span["total_ns"]

    def test_held_ride_along_drops_the_batch_spans(self):
        """A completing SDU that also releases held messages makes the
        batch's queue positions unknowable: its spans are dropped, never
        attached to a neighbour."""
        def sdu(msg_id):
            return SimpleNamespace(header=SimpleNamespace(
                span_id=XRAY_SPAN_MARK | msg_id, msg_id=msg_id,
                trace_id=7, end_bit=True,
            ))

        recorder = XrayRecorder("n", XrayConfig(period=1))
        table = recorder.span_table(1, "peer")
        stamp = table.begin_batch()
        stamp("decoded", [sdu(1), sdu(3)])
        stamp("reassembled", (sdu(1),), b"x")  # releases held msg 2 too
        stamp("reassembled", (sdu(3),), b"x")
        table.delivering(3)
        for _ in range(3):
            table.taken(1)
        assert recorder.spans() == []
        # The next batch is back in step with the queue.
        stamp = table.begin_batch()
        stamp("decoded", [sdu(4)])
        stamp("reassembled", (sdu(4),), b"x")
        table.delivering(1)
        table.taken(1)
        (span,) = recorder.spans("recv")
        assert span["msg"] == 4 and "delivered" in span["stamps"]

    def test_concurrent_consumer_gets_every_span_once(self, node_factory):
        """The Receive Thread queues spans beside deliveries while the
        consumer takes them: every span recorded exactly once, with both
        sides' stamps, however the interpreter interleaves the two."""
        cfg = XrayConfig(period=1, ring_capacity=1024)
        sender = node_factory("ra", xray=cfg)
        receiver = node_factory("rb", xray=cfg)
        conn = sender.connect(
            receiver.address,
            ConnectionConfig(interface="sci", flow_control="none",
                             error_control="none"),
            peer_name="rb",
        )
        peer = receiver.accept(timeout=5.0)
        total = 400
        got = []

        def consume():
            while len(got) < total:
                message = peer.recv(timeout=5.0)
                if message is None:
                    return
                got.append(message)

        consumer = threading.Thread(target=consume)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer.start()
            for _ in range(total):
                conn.send(b"x")
            consumer.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive() and len(got) == total
        spans = receiver.xray.spans("recv")
        assert [span["msg"] for span in spans] == list(range(1, total + 1))
        for span in spans:
            assert {"recv_entry", "delivered", "popped"} <= set(span["stamps"])


class TestExportSurfaces:
    def test_snapshot_has_per_connection_quantiles(self, xray_pair):
        spans, sender, receiver = xray_pair(iterations=20)
        snap = sender.snapshot()
        assert snap["period"] == 1
        assert snap["sampled_sends"] == 20
        (conn_stats,) = snap["conns"].values()
        assert conn_stats["send_count"] == 20
        assert 0 < conn_stats["send_p50_s"] <= conn_stats["send_p99_s"]
        recv_snap = receiver.snapshot()
        (recv_stats,) = recv_snap["conns"].values()
        assert recv_stats["recv_count"] == 20
        assert 0 < recv_stats["recv_p50_s"] <= recv_stats["recv_p99_s"]
        assert "delivery_wait" in recv_snap["stages"]
        assert recv_snap["stages"]["delivery_wait"]["count"] == 20

    def test_p99_reaches_telemetry_and_prometheus(self):
        from repro.obs.telemetry import Collector, render_prometheus
        from repro.tools.ncs_top import render_dashboard

        hub = Node(NodeConfig(name="hub"))
        collector = Collector(hub)
        target = f"{hub.address[0]}:{hub.address[1]}"
        alice = Node(NodeConfig(name="alice", telemetry=target,
                                telemetry_interval=60.0, xray="1"))
        bob = Node(NodeConfig(name="bob", xray="1"))
        try:
            conn = alice.connect(
                bob.address, ConnectionConfig(interface="hpi"),
                peer_name="bob",
            )
            peer = bob.accept(timeout=5.0)
            for _ in range(8):
                conn.send(b"y" * 256, wait=True, timeout=5.0)
                assert peer.recv(timeout=5.0) is not None
            alice.telemetry_exporter.export_once()
            deadline = time.monotonic() + 5.0
            while collector.snapshots_received < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            body = collector.view("alice").last_body
            assert body["xray"]["sampled_sends"] == 8
            (conn_stats,) = body["xray"]["conns"].values()
            assert conn_stats["send_p99_s"] > 0
            text = render_prometheus(collector)
            assert 'ncs_xray_sampled_total{direction="send",node="alice"} 8' \
                in text
            assert 'ncs_xray_send_seconds{' in text
            assert 'quantile="0.99"' in text
            assert "ncs_xray_stage_seconds{" in text
            dashboard = render_dashboard(collector)
            assert "lat p50" in dashboard and "p99" in dashboard
        finally:
            alice.close()
            bob.close()
            hub.close()


class TestOfflineJoin:
    def test_dump_load_join_round_trip(self, xray_pair, tmp_path):
        spans, sender, receiver = xray_pair(iterations=6)
        send_path, recv_path = tmp_path / "a.json", tmp_path / "b.json"
        assert sender.dump(str(send_path)) == 6
        assert receiver.dump(str(recv_path)) == 6
        loaded = load_spans(str(send_path)) + load_spans(str(recv_path))
        joined = join_spans(loaded)
        assert len(joined) == 6
        report = dominance_report(joined)
        assert report["spans"] == 6
        assert report["dominant"] in STAGE_ORDER
        assert sum(report["overall"].values()) == pytest.approx(1.0, abs=0.02)

    def test_clock_offset_shifts_receiver_stamps(self, xray_pair):
        spans, _, _ = xray_pair(iterations=2)
        plain = join_spans(spans)
        # Pretend the receiver's clock runs 1 ms ahead: wire shrinks (or
        # clamps at 0) and e2e drops by the same 1 ms.
        shifted = join_spans(spans, offsets={"xb": 1e-3})
        for before, after in zip(plain, shifted):
            assert after["e2e_ns"] == before["e2e_ns"] - 1_000_000

    def test_load_rejects_non_dump_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"not": "spans"}))
        with pytest.raises(ValueError):
            load_spans(str(path))

    def test_ncs_stat_xray_load_cli(self, xray_pair, tmp_path, capsys):
        from repro.tools.ncs_stat import main

        spans, sender, receiver = xray_pair(iterations=4)
        send_path, recv_path = tmp_path / "a.json", tmp_path / "b.json"
        sender.dump(str(send_path))
        receiver.dump(str(recv_path))
        out_path = tmp_path / "waterfall.txt"
        code = main(["xray", "--load", str(send_path), str(recv_path),
                     "--output", str(out_path)])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "4 joined spans" in rendered
        assert "tail dominant" in rendered
        assert out_path.read_text() == rendered.rstrip("\n") + "\n"


class TestRttHistogram:
    def test_heartbeat_rtt_lands_in_per_peer_histogram(self):
        from repro.obs.telemetry.clocksync import ClockSync

        registry = MetricsRegistry()
        sync = ClockSync(registry=registry, node_name="me")
        for rtt in (0.001, 0.002, 0.004):
            sync.observe("peer-1", offset=0.0, rtt=rtt)
        sync.observe("peer-2", offset=0.0, rtt=0.010)
        sync.observe("peer-1", offset=0.0, rtt=-1.0)  # clamped garbage
        hist = registry.histogram(
            "ncs_rtt_seconds", buckets=LATENCY_BUCKETS,
            node="me", peer="peer-1",
        )
        assert hist.count == 3
        assert hist.buckets == LATENCY_BUCKETS
        hist2 = registry.histogram(
            "ncs_rtt_seconds", buckets=LATENCY_BUCKETS,
            node="me", peer="peer-2",
        )
        assert hist2.count == 1

    def test_no_registry_no_crash(self):
        from repro.obs.telemetry.clocksync import ClockSync

        sync = ClockSync()
        sync.observe("peer", offset=0.0, rtt=0.001)
        assert sync.snapshot()["peer"]["samples"] == 1
