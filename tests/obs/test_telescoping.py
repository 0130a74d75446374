"""The telescoping stage-sum invariant, promoted to tier-1.

The Table 1 breakdown (a view of the X-ray's spans) is only trustworthy
if the per-stage means sum to the measured total — adjacent stages
share boundary stamps, so the sums telescope by construction and any
drift means a stamp went missing or a stage pair overlaps.  This used
to live in ``benchmarks/bench_table1.py`` where it
only ran in the bench CI job; it now gates every pytest run with an
explicit tolerance constant.
"""

import pytest

from repro.core import ConnectionConfig
from repro.obs.profiler import (
    BYPASS_SEND_STAGES,
    RECV_STAGES,
    SEND_STAGES,
    TELESCOPE_TOLERANCE,
    profile_echo,
)
from repro.obs.xray import XrayConfig


@pytest.fixture(scope="module")
def threaded_profiler():
    return profile_echo(iterations=80, mode="threaded", interface="sci")


@pytest.fixture(scope="module")
def bypass_profiler():
    return profile_echo(iterations=80, mode="bypass", interface="sci")


def _assert_telescopes(profiler, direction):
    stage_sum, total = profiler.consistency(direction)
    assert total > 0, f"no {direction} samples recorded"
    assert stage_sum == pytest.approx(total, rel=TELESCOPE_TOLERANCE), (
        f"{direction} stages sum to {stage_sum:.2f} us but the measured "
        f"total is {total:.2f} us (> {TELESCOPE_TOLERANCE:.0%} apart) — "
        f"a stamp is missing or two stages overlap"
    )


def test_threaded_send_stages_sum_to_total(threaded_profiler):
    _assert_telescopes(threaded_profiler, "send")


def test_threaded_recv_stages_sum_to_total(threaded_profiler):
    _assert_telescopes(threaded_profiler, "recv")


def test_bypass_send_stages_sum_to_total(bypass_profiler):
    _assert_telescopes(bypass_profiler, "send")


def test_tolerance_is_explicit():
    """The tolerance is a named constant, not a magic number per test."""
    assert 0 < TELESCOPE_TOLERANCE <= 0.25


#: Each Table 1 stage as the X-ray stages it coarsens, per plane.
TABLE1_AS_XRAY = {
    "threaded": (SEND_STAGES, {
        "queue a message request": ("admission_wait", "send_enqueue"),
        "context switch to protocol thread": ("proto_queue_wait",),
        "attach headers (segmentation)": ("encode",),
        "flow-control release": ("ec_window_wait", "fc_credit_wait"),
        "context switch to Send Thread": ("send_queue_wait",),
        "data transfer (interface send)": ("interface_write",),
    }),
    "bypass": (BYPASS_SEND_STAGES, {
        "error control (segmentation)": ("admission_wait", "encode"),
        "flow-control release": ("ec_window_wait", "fc_credit_wait"),
        "data transfer (interface send)": ("interface_write",),
    }),
}


@pytest.mark.parametrize("mode", sorted(TABLE1_AS_XRAY))
def test_table1_and_xray_read_the_same_stamps(node_factory, mode):
    """One record, two views: per span, every Table 1 stage equals the
    X-ray stages it coarsens to the nanosecond."""
    cfg = XrayConfig(period=1)
    sender = node_factory("one-a", xray=cfg)
    receiver = node_factory("one-b", xray=cfg)
    receiver.accept_mode = mode
    conn = sender.connect(
        receiver.address,
        ConnectionConfig(interface="sci", mode=mode), peer_name="one-b",
    )
    peer = receiver.accept(timeout=5.0)
    handles = []
    for _ in range(10):
        handles.append(conn.send(b"x"))
        assert peer.recv(timeout=5.0) == b"x"
    assert all(handle.wait(5.0) for handle in handles)
    # Joining the Send and Receive Threads lands every span.
    conn.close()
    peer.close()
    stages, coarsening = TABLE1_AS_XRAY[mode]
    assert {label for label, _s, _e in stages} == set(coarsening)
    sends = sender.xray.spans("send")
    assert len(sends) == 10
    for span in sends:
        stamps = span["stamps"]
        for label, start, end in stages:
            assert stamps[end] - stamps[start] == sum(
                span["stages"][part] for part in coarsening[label]
            ), (label, span)
    recvs = receiver.xray.spans("recv")
    assert len(recvs) == 10
    for span in recvs:
        stamps = span["stamps"]
        # A one-SDU message is first seen at its batch's decode: the
        # same clock reading under both names.
        assert stamps["first_sdu"] == stamps["decoded"]
        assert stamps["fc_done"] <= stamps["reassembled"] <= stamps["ec_done"]
        assert sum(
            stamps[end] - stamps[start] for _label, start, end in RECV_STAGES
        ) == stamps["delivered"] - stamps["recv_entry"]
