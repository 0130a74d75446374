"""ConnectionCore driven without threads, sockets or sleeps.

Two cores are joined by in-memory lists; the clock is a float the test
advances by hand.  Everything the live planes and the simulator rely on
is checked here on the state machine itself.
"""

import random

import pytest

from repro.core import ConnectionConfig, SendStatus
from repro.core.conncore import ConnectionCore
from repro.core.handles import SendHandle
from repro.pressure import MemoryBudget, PressureConfig
from repro.protocol.pdus import CreditPdu, CreditResyncPdu
from repro.protocol.segmentation import segment_message

SDU = 4096


class Pair:
    """Cores ``a`` and ``b`` over two in-memory wires each way."""

    def __init__(self, drop_rate=0.0, seed=0, budget=None, pressure_cfg=None,
                 **config):
        config.setdefault("retransmit_timeout", 0.05)
        self.config = ConnectionConfig(**config)
        self.now = 0.0
        self.a = ConnectionCore(1, self.config)
        self.b = ConnectionCore(
            1, self.config, budget=budget, pressure_cfg=pressure_cfg
        )
        self.frames = {self.a: [], self.b: []}  # data frames *to* a core
        self.pdus = {self.a: [], self.b: []}  # control PDUs *to* a core
        self.delivered = {self.a: [], self.b: []}
        self.handles = []
        self._rng = random.Random(seed)
        self._drop_rate = drop_rate
        self._msg_ids = {self.a: iter(range(1, 1 << 20)),
                         self.b: iter(range(1, 1 << 20))}
        #: Largest release ever seen relative to the credit available.
        self.credit_violations = []

    def peer(self, core):
        return self.b if core is self.a else self.a

    def apply(self, core, effects):
        peer = self.peer(core)
        for sdu in effects.transmits:
            if self._rng.random() >= self._drop_rate:
                self.frames[peer].append(sdu.encode())
        self.pdus[peer].extend(effects.controls)
        self.delivered[core].extend(effects.deliveries)

    def send(self, payload, core=None):
        core = core or self.a
        handle = SendHandle(next(self._msg_ids[core]), len(payload))
        self.handles.append(handle)
        self._sender(core, core.submit, handle, payload, self.now)
        return handle

    def _sender(self, core, call, *args):
        """One sender-half call, checking the credit invariant."""
        fc = core.fc_sender
        before = getattr(fc, "credits", None)
        grant = args[0].credits if isinstance(args[0], CreditPdu) else 0
        effects = call(*args)
        if before is not None and fc.resyncs == 0:
            if len(effects.transmits) > before + grant:
                self.credit_violations.append(
                    (len(effects.transmits), before, grant)
                )
        self.apply(core, effects)

    def step(self):
        """Deliver everything in flight, then fire whatever is due."""
        busy = False
        for core in (self.a, self.b):
            frames, self.frames[core] = self.frames[core], []
            if frames:
                busy = True
                self.apply(core, core.on_frames(frames, self.now))
            pdus, self.pdus[core] = self.pdus[core], []
            for pdu in pdus:
                busy = True
                if isinstance(pdu, CreditResyncPdu):
                    self.apply(core, core.on_resync_request(self.now))
                else:
                    self._sender(core, core.on_control, pdu, self.now)
            if core.sender_deadline is not None and core.sender_deadline <= self.now:
                busy = True
                self._sender(core, core.on_timer, self.now)
            if core.recv_deadline is not None and core.recv_deadline <= self.now:
                busy = True
                self.apply(core, core.on_recv_timer(self.now))
        return busy

    def run(self, until, limit=60.0, tick=0.005):
        while not until():
            if not self.step():
                self.now += tick
            assert self.now < limit, "protocol made no progress in virtual time"


def payloads(count, rng):
    return [
        bytes([index % 251]) * rng.choice((1, 100, SDU, 3 * SDU + 17))
        for index in range(count)
    ]


class TestExactlyOnceInOrder:
    @pytest.mark.parametrize("fc", ["credit", "window", "rate", "none"])
    @pytest.mark.parametrize("ec", ["selective_repeat", "go_back_n", "none"])
    def test_every_ec_fc_pair_under_seeded_drop(self, ec, fc):
        # "none" error control promises nothing under loss; it still has
        # to deliver exactly once, in order, on a clean wire.
        drop = 0.0 if ec == "none" else 0.1
        for seed in range(3):
            pair = Pair(
                drop_rate=drop, seed=seed, error_control=ec, flow_control=fc,
                max_retries=50,
            )
            sent = payloads(12, random.Random(seed))
            for payload in sent:
                pair.send(payload)
            pair.run(lambda: len(pair.delivered[pair.b]) >= len(sent))
            pair.run(lambda: all(h.done() for h in pair.handles))
            assert pair.delivered[pair.b] == sent, (ec, fc, seed)
            assert all(
                h.status is SendStatus.COMPLETED for h in pair.handles
            )
            assert pair.a.messages_completed == len(sent)
            assert pair.b.messages_received == len(sent)
            assert pair.credit_violations == []

    def test_both_directions_at_once(self):
        pair = Pair(drop_rate=0.05, seed=4)
        for index in range(6):
            pair.send(b"a" * (index + 1), pair.a)
            pair.send(b"b" * (index + 1), pair.b)
        pair.run(lambda: all(h.done() for h in pair.handles))
        pair.run(lambda: min(len(d) for d in pair.delivered.values()) >= 6)
        assert pair.delivered[pair.b] == [b"a" * n for n in range(1, 7)]
        assert pair.delivered[pair.a] == [b"b" * n for n in range(1, 7)]


class TestFlowRelease:
    def test_transmits_never_exceed_available_credit(self):
        pair = Pair(initial_credits=4)
        effects = pair.a.submit(SendHandle(1, 10 * SDU), b"x" * 10 * SDU, 0.0)
        assert len(effects.transmits) == 4
        assert pair.a.fc_sender.queued() == 6
        effects = pair.a.on_control(CreditPdu(1, 2), 0.0)
        assert len(effects.transmits) == 2
        assert pair.a.on_control(CreditPdu(1, 0), 0.0).transmits == []

    def test_deadline_is_the_sooner_of_ec_and_fc(self):
        pair = Pair(initial_credits=1, fc_resync_timeout=0.01)
        effects = pair.a.submit(SendHandle(1, 2 * SDU), b"x" * 2 * SDU, 0.0)
        # Stalled at zero credits: the resync clock (10 ms) is sooner
        # than the retransmission timeout (50 ms).
        assert effects.timer_at == pytest.approx(0.01)
        assert pair.a.next_deadline == pair.a.sender_deadline == effects.timer_at

    def test_gated_timer_defers_instead_of_retransmitting(self):
        pair = Pair(initial_credits=1, fc_resync_timeout=10.0)
        pair.a.submit(SendHandle(1, 3 * SDU), b"x" * 3 * SDU, 0.0)
        effects = pair.a.on_timer(0.06)  # past the 50 ms RTO, still gated
        assert effects.transmits == []
        assert pair.a.ec_sender.retransmitted_sdus == 0
        assert effects.timer_at == pytest.approx(0.11)
        # The gated tail leaves at t=0.08: the clock restarts there.
        effects = pair.a.on_control(CreditPdu(1, 2), 0.08)
        assert len(effects.transmits) == 2
        assert effects.timer_at == pytest.approx(0.13)

    def test_stall_raises_a_two_phase_resync_request(self):
        pair = Pair(initial_credits=1, fc_resync_timeout=0.01)
        pair.a.submit(SendHandle(1, 2 * SDU), b"x" * 2 * SDU, 0.0)
        assert pair.a.on_timer(0.011).controls == []  # the stall begins
        effects = pair.a.on_timer(0.022)
        assert [type(p) for p in effects.controls] == [CreditResyncPdu]
        reply = pair.b.on_resync_request(0.012)
        assert [p.credits for p in reply.controls] == [1]
        assert pair.b.resync_requests_answered == 1

    def test_a_run_decides_what_its_pdus_decide_one_at_a_time(self):
        """ACKs and credits handed over as one run release the same SDUs
        in the same order, confirm the same sends and leave the engines'
        counters and deadline where one-at-a-time delivery leaves them —
        on a sender that stays gated, so the stall clock matters."""

        def drive(as_run):
            pair = Pair(initial_credits=2, max_credits=2)
            sent = []
            for index in range(6):
                pair.send(bytes([index]) * 100)
            for _ in range(10):
                frames, pair.frames[pair.b] = pair.frames[pair.b], []
                sent += frames
                if frames:
                    pair.apply(pair.b, pair.b.on_frames(frames, pair.now))
                run, pair.pdus[pair.a] = pair.pdus[pair.a], []
                if as_run and run:
                    assert len(run) > 1
                    pair.apply(pair.a, pair.a.on_controls(run, pair.now))
                for pdu in () if as_run else run:
                    pair.apply(pair.a, pair.a.on_control(pdu, pair.now))
                pair.now += 0.001
            assert all(h.status is SendStatus.COMPLETED for h in pair.handles)
            assert pair.a.fc_sender.credit_stalls > 0
            return sent, pair.a.fc_sender.metrics(), pair.a.sender_deadline

        assert drive(as_run=True) == drive(as_run=False)


class TestPeerGone:
    def test_dead_data_path_leaves_sdus_pending_for_replay(self):
        pair = Pair()
        first = pair.a.submit(SendHandle(1, 5), b"first", 0.0)
        assert len(first.transmits) == 1
        pair.a.peer_gone = True
        second = pair.a.submit(SendHandle(2, 6), b"second", 0.0)
        assert second.transmits == []
        assert pair.a.on_timer(1.0).transmits == []
        assert pair.a.ec_sender.pending() == [(1, b"first"), (2, b"second")]


class TestCreditGate:
    def make(self):
        budget = MemoryBudget(1 << 20, 1 << 20)
        cfg = PressureConfig(delivery_quota_bytes=2 * SDU, resume_fraction=0.5)
        return Pair(budget=budget, pressure_cfg=cfg, initial_credits=8), budget

    def test_gate_withholds_then_flushes_one_coalesced_grant(self):
        pair, budget = self.make()
        for _ in range(4):
            pair.send(b"m" * SDU)
        released = []
        # Deliver frame by frame so grants arrive after the gate closes.
        for frame in pair.frames[pair.b]:
            released.append(pair.b.on_frames([frame], 0.0))
        assert pair.b.credit_gate_closed
        assert pair.b.slow_consumer_trips == 1
        granted = sum(
            p.credits for e in released for p in e.controls
            if isinstance(p, CreditPdu)
        )
        assert granted + pair.b.credits_withheld == 4
        assert pair.b.credits_withheld > 0
        assert budget.site_used("delivery", 1) == 4 * SDU
        # ACKs are never gated.
        assert all(
            any(not isinstance(p, CreditPdu) for p in e.controls)
            for e in released
        )
        flushed = []
        for _ in range(4):
            flushed.extend(pair.b.on_consumed(SDU).controls)
        assert not pair.b.credit_gate_closed
        assert [p.credits for p in flushed] == [pair.b.credits_withheld]
        assert budget.site_used("delivery", 1) == 0

    def test_pinned_reply_while_gated(self):
        pair, _ = self.make()
        for _ in range(3):
            pair.send(b"m" * SDU)
        pair.b.on_frames(pair.frames[pair.b], 0.0)
        assert pair.b.credit_gate_closed
        reply = pair.b.on_resync_request(0.0)
        assert [p.credits for p in reply.controls] == [0]

    def test_shed_counts_and_releases(self):
        pair, budget = self.make()
        pair.send(b"m" * SDU)
        pair.b.on_frames(pair.frames[pair.b], 0.0)
        assert pair.b.oldest_delivery_ts() == 0.0
        pair.b.on_consumed(SDU, shed=True)
        assert pair.b.deliveries_shed == 1
        assert pair.b.oldest_delivery_ts() is None
        assert budget.site_used("delivery", 1) == 0


class TestOneDeliveryFunction:
    def test_timer_released_messages_are_counted_like_batch_ones(self):
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder(name="t", capacity=64, clock=lambda: 0.0)
        config = ConnectionConfig(error_control="selective_repeat")
        sender = ConnectionCore(1, config)
        receiver = ConnectionCore(1, config, recorder=recorder)
        first = sender.submit(SendHandle(1, 1), b"1", 0.0).transmits
        second = sender.submit(SendHandle(2, 1), b"2", 0.0).transmits
        assert len(first) == len(second) == 1
        # Message 2 arrives, message 1 never does: 2 is held behind the
        # gap until the ordered-delivery timer gives up on 1.
        held = receiver.on_frames([second[0].encode()], 0.0)
        assert held.deliveries == []
        assert receiver.recv_deadline is not None
        released = receiver.on_recv_timer(receiver.recv_deadline)
        assert released.deliveries == [b"2"]
        assert receiver.messages_received == 1
        assert receiver.bytes_received == 1
        events = [e for e in recorder.snapshot() if e["name"] == "deliver"]
        assert len(events) == 1 and events[0]["messages"] == 1


class TestReceiverDeadline:
    """``recv_deadline`` is the receiver engine's deadline after the
    batch, not the ``timer_at`` of whichever SDU happened to come last."""

    @staticmethod
    def frames(*messages):
        # (msg_id, SDU count) -> the first SDU of each message, encoded.
        return [
            segment_message(1, msg_id, bytes([msg_id]) * (count * SDU), SDU)[0]
            .encode()
            for msg_id, count in messages
        ]

    @pytest.mark.parametrize("ec", ["selective_repeat", "go_back_n"])
    @pytest.mark.parametrize("trailing", [(), ((3, 3),)])
    def test_a_later_sdu_does_not_disarm_the_gap_timer(self, ec, trailing):
        core = ConnectionCore(1, ConnectionConfig(error_control=ec))
        # Message 1 (three SDUs) stays incomplete; message 2 completes
        # and is held behind it; message 3's first SDU completes nothing.
        out = core.on_frames(self.frames((1, 3), (2, 1), *trailing), 10.0)
        assert out.deliveries == []
        assert out.timer_at == core.recv_deadline == core.next_deadline
        assert core.recv_deadline == pytest.approx(12.0)
        assert core.on_recv_timer(11.9).deliveries == []
        assert core.on_recv_timer(12.0).deliveries == [bytes([2]) * SDU]
        assert core.recv_deadline is None

    def test_unreliable_gc_deadline_tracks_the_oldest_partial_message(self):
        core = ConnectionCore(1, ConnectionConfig(error_control="none"))
        core.on_frames(self.frames((1, 3)), 10.0)
        assert core.recv_deadline == pytest.approx(12.0)
        # Later traffic must not push the stale message's GC out.
        out = core.on_frames(self.frames((2, 1), (3, 3)), 11.0)
        assert out.deliveries == [bytes([2]) * SDU]
        assert core.recv_deadline == pytest.approx(12.0)
        core.on_recv_timer(12.0)
        assert core.ec_receiver.dropped_messages == 1
        assert core.recv_deadline == pytest.approx(13.0)
