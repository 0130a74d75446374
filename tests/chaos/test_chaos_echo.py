"""End-to-end chaos: supervised echo over live SCI under fault schedules.

The core invariant of the recovery layer, asserted under every schedule:
the application sees **every message exactly once**, the session returns
to CONNECTED, and recovery time stays bounded.
"""

import time

import pytest

from repro.core import ConnectionConfig
from repro.faults import parse_fault_plan
from repro.recovery import CONNECTED, RecoveryPolicy

from tests.chaos.harness import (
    assert_exactly_once,
    collect_echoes,
    sever_transport,
    supervised_echo_pair,
)

#: Generous wall-clock bound on one outage's recovery (reconnect with
#: FAST_POLICY typically lands in the first attempt, ~20 ms).
RECOVERY_BOUND = 5.0


def _echo_through_drops_and_a_severing(node_factory, seed, plane="threaded"):
    config = ConnectionConfig(
        fault_plan=parse_fault_plan(f"drop:rate=0.05;seed:{seed}"),
    )
    sup, echo = supervised_echo_pair(
        node_factory, config=config, session=f"drops{seed}"
    )
    try:
        expected = [b"chaos-%03d" % i for i in range(30)]
        for index, payload in enumerate(expected):
            if index == 15:
                sever_transport(sup)
            sup.send(payload)
            time.sleep(0.005)
        received = collect_echoes(sup, len(expected), deadline=60.0)
        assert_exactly_once(sup, expected, received)
        status = sup.status()
        assert sup.state == CONNECTED, status
        assert status["outages"] >= 1, "the severing went unnoticed"
        assert status["incarnations"] >= 2
        assert status["last_downtime"] < RECOVERY_BOUND
        assert sup.connection.config.mode == plane  # the reconnect too
        sup.flush(timeout=10.0)
        assert sup.status()["outstanding"] == 0
    finally:
        sup.close()
        echo.close()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_echo_survives_drops_and_a_severed_transport(node_factory, seed):
    """Seeded frame drops the whole way through, plus one abrupt
    transport severing mid-stream (the classic crashed-peer shape)."""
    _echo_through_drops_and_a_severing(node_factory, seed)


def test_echo_survives_on_every_plane(node_factory, plane):
    """The same schedule with both ends — every incarnation of them — on
    each live driver of the connection core."""
    _echo_through_drops_and_a_severing(node_factory, seed=4, plane=plane)


def test_echo_survives_repeated_injected_crashes(node_factory):
    """A peer_crash spec severs every incarnation 0.4 s in; the stream
    still completes exactly-once across the resulting reconnects."""
    config = ConnectionConfig(
        fault_plan=parse_fault_plan("peer_crash:at=0.4"),
    )
    sup, echo = supervised_echo_pair(
        node_factory, config=config, session="crashloop"
    )
    try:
        expected = [b"crash-%03d" % i for i in range(20)]
        for payload in expected:
            sup.send(payload)
            time.sleep(0.05)  # stretch the stream across >1 crash
        received = collect_echoes(sup, len(expected), deadline=60.0)
        assert_exactly_once(sup, expected, received)
        status = sup.status()
        assert status["incarnations"] >= 2, status
        assert status["replayed_messages"] >= 1, (
            "crashes mid-stream must force at least one replay"
        )
    finally:
        sup.close()
        echo.close()


def test_partition_window_delays_but_loses_nothing(node_factory):
    """A 0.6 s link partition: messages sent into the void are ledgered
    or retransmitted, and all arrive after the window closes."""
    config = ConnectionConfig(
        fault_plan=parse_fault_plan("partition:start=0.2,stop=0.8"),
    )
    policy = RecoveryPolicy(
        backoff_base=0.05, backoff_max=0.3, jitter=0.1,
        max_attempts=20, connect_timeout=2.0,
    )
    sup, echo = supervised_echo_pair(
        node_factory, config=config, policy=policy, session="partition"
    )
    try:
        expected = [b"part-%03d" % i for i in range(12)]
        for payload in expected:
            sup.send(payload)
            time.sleep(0.08)  # straddles the partition window
        received = collect_echoes(sup, len(expected), deadline=60.0)
        assert_exactly_once(sup, expected, received)
    finally:
        sup.close()
        echo.close()


def test_recovery_steps_reach_the_flight_recorder(node_factory):
    sup, echo = supervised_echo_pair(node_factory, session="recorded")
    try:
        sup.send(b"first")
        assert sup.recv(timeout=5.0) == b"first"
        sever_transport(sup)
        sup.send(b"second")
        assert collect_echoes(sup, 1, deadline=30.0) == [b"second"]
        events = [
            entry["name"]
            for entry in sup.node.recorder.snapshot()
            if entry["category"] == "recovery"
        ]
        assert "outage" in events
        assert "reconnect_attempt" in events
        assert "reconnected" in events
    finally:
        sup.close()
        echo.close()
