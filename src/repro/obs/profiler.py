"""Per-stage overhead accounting for ``NCS_send`` / ``NCS_recv``.

The paper's Table 1 decomposes a 1-byte send into session-overhead
stages (function entry, header attach, queueing, context switches) and
data transfer.  :class:`OverheadProfiler` generalizes that methodology
to the live runtime: the send path stamps ``time.perf_counter_ns`` at
each stage boundary into an *instrument dict* (see
:meth:`repro.core.connection.Connection.send`), the receive path stamps
its own boundaries when a profiler is attached to the connection, and
the profiler turns both stamp streams into per-stage statistics.

Because the stage deltas telescope (each stage's end is the next
stage's start), the stage *means* sum exactly to the mean of the
measured total — the consistency check benches assert (within noise).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from repro.util.stats import RunningStats

#: Telescoping tolerance: the per-stage sums must agree with the
#: measured totals within this relative error.  The stamps share
#: boundaries, so any real disagreement means a stage is missing or
#: double-counted; 10% absorbs the samples where one boundary stamp
#: landed and its partner didn't (a stage skipped on the fast path).
#: Enforced by tests/obs/test_telescoping.py (tier-1) for both the
#: offline profiler and the live X-ray spans.
TELESCOPE_TOLERANCE = 0.10

#: Threaded-mode send stages (label, start stamp, end stamp); the stamp
#: names match the keys written by the instrumented send path.
SEND_STAGES: List[Tuple[str, str, str]] = [
    ("queue a message request", "entry", "queued"),
    ("context switch to protocol thread", "queued", "dequeued"),
    ("attach headers (segmentation)", "dequeued", "segmented"),
    ("flow-control release", "segmented", "flow_released"),
    ("context switch to Send Thread", "flow_released", "send_thread_dequeued"),
    ("data transfer (interface send)", "send_thread_dequeued", "transmitted"),
]

#: §4.2 procedure-variant stages: no queues, no context switches.
BYPASS_SEND_STAGES: List[Tuple[str, str, str]] = [
    ("error control (segmentation)", "entry", "segmented"),
    ("flow-control release", "segmented", "flow_released"),
    ("data transfer (interface send)", "flow_released", "transmitted"),
]

#: Receive-path stages: ``recv_entry``/``delivered`` stamped by
#: ``Connection._on_frames`` around the core call, the three interior
#: boundaries by ``ConnectionCore.on_frames`` through its ``stamp`` hook.
RECV_STAGES: List[Tuple[str, str, str]] = [
    ("header decode", "recv_entry", "decoded"),
    ("flow control (credit return)", "decoded", "fc_done"),
    ("error control (reassembly + ack)", "fc_done", "ec_done"),
    ("delivery to receive queue", "ec_done", "delivered"),
]


class _StageSet:
    """Stats for one direction (send or recv)."""

    def __init__(self, stages: List[Tuple[str, str, str]], first: str, last: str):
        self.stages = stages
        self.first = first
        self.last = last
        self.stats: Dict[str, RunningStats] = {
            label: RunningStats() for label, _s, _e in stages
        }
        self.raw: Dict[str, List[float]] = {label: [] for label, _s, _e in stages}
        self.total = RunningStats()
        self.total_raw: List[float] = []
        self.samples = 0

    def record(self, stamps: Dict[str, int]) -> bool:
        if self.first not in stamps or self.last not in stamps:
            return False
        self.samples += 1
        for label, start, end in self.stages:
            if start in stamps and end in stamps and stamps[end] >= stamps[start]:
                delta_us = (stamps[end] - stamps[start]) / 1000.0
                self.stats[label].add(delta_us)
                self.raw[label].append(delta_us)
        total_us = (stamps[self.last] - stamps[self.first]) / 1000.0
        self.total.add(total_us)
        self.total_raw.append(total_us)
        return True

    def medians(self) -> Dict[str, float]:
        return {
            label: (statistics.median(values) if values else 0.0)
            for label, values in self.raw.items()
        }

    def means(self) -> Dict[str, float]:
        return {label: stats.mean for label, stats in self.stats.items()}


class OverheadProfiler:
    """Accumulates stage timings for the Table-1-style breakdown."""

    def __init__(self, mode: str = "threaded"):
        if mode not in ("threaded", "bypass"):
            raise ValueError(f"mode must be 'threaded' or 'bypass', got {mode!r}")
        self.mode = mode
        stages = SEND_STAGES if mode == "threaded" else BYPASS_SEND_STAGES
        self.send = _StageSet(stages, "entry", "transmitted")
        self.recv = _StageSet(RECV_STAGES, "recv_entry", "delivered")

    # -- recording -----------------------------------------------------------

    def record_send(self, stamps: Dict[str, int]) -> bool:
        """Absorb one instrumented send's stamps; True if usable."""
        return self.send.record(stamps)

    def record_recv(self, stamps: Dict[str, int]) -> bool:
        """Absorb one received frame's stamps (called by the runtime)."""
        return self.recv.record(stamps)

    # -- results -------------------------------------------------------------

    def send_breakdown(self) -> Dict[str, float]:
        """Median microseconds per send stage, plus derived totals.

        Matches the historical ``repro.bench.table1`` result keys: the
        last stage is the data transfer, everything before it is session
        overhead.
        """
        results = self.send.medians()
        labels = [label for label, _s, _e in self.send.stages]
        data = results[labels[-1]] if labels else 0.0
        session = sum(results[label] for label in labels[:-1])
        results["session overhead total"] = session
        results["data transfer total"] = data
        results["total"] = session + data
        results["session fraction"] = (
            session / (session + data) if (session + data) > 0 else 0.0
        )
        return results

    def recv_breakdown(self) -> Dict[str, float]:
        """Median microseconds per receive stage plus the measured total."""
        results = self.recv.medians()
        results["total (recv_entry→delivered)"] = (
            statistics.median(self.recv.total_raw) if self.recv.total_raw else 0.0
        )
        return results

    def consistency(self, direction: str = "send") -> Tuple[float, float]:
        """(sum of stage means, mean of measured total) in microseconds.

        The stages telescope, so these agree whenever every sample
        carried every stamp — the acceptance check for the breakdown.
        """
        stage_set = self.send if direction == "send" else self.recv
        return (
            sum(stats.mean for stats in stage_set.stats.values()),
            stage_set.total.mean,
        )

    def format_table(self) -> str:
        from repro.bench.runner import format_table  # local: avoid cycle

        rows = []
        breakdown = self.send_breakdown()
        for label, _s, _e in self.send.stages:
            rows.append((label, breakdown[label]))
        for key in ("session overhead total", "data transfer total", "total"):
            rows.append((key, breakdown[key]))
        stage_sum, total_mean = self.consistency("send")
        rows.append(("stage sum (mean us)", stage_sum))
        rows.append(("measured total (mean us)", total_mean))
        table = format_table(
            f"NCS_send overhead breakdown ({self.mode}, us, median over "
            f"{self.send.samples} sends)",
            ("stage", "us"),
            rows,
            col_width=14,
        )
        if self.recv.samples:
            recv_rows = []
            recv = self.recv_breakdown()
            for label, _s, _e in RECV_STAGES:
                recv_rows.append((label, recv[label]))
            recv_rows.append(
                ("total (recv_entry→delivered)", recv["total (recv_entry→delivered)"])
            )
            table += "\n\n" + format_table(
                f"NCS_recv overhead breakdown (us, median over "
                f"{self.recv.samples} frames)",
                ("stage", "us"),
                recv_rows,
                col_width=14,
            )
        return table


def profile_echo(
    iterations: int = 200,
    mode: str = "threaded",
    interface: str = "sci",
    thread_package: str = "kernel",
    payload: bytes = b"x",
) -> OverheadProfiler:
    """Measure a one-way instrumented transfer between two live nodes.

    Sets up the same unencumbered connection as the Table 1 bench (no
    flow control, no error control — the stages under test are the
    threading and queueing machinery) and returns the filled profiler,
    including receive-side stages recorded at the consuming node.
    """
    from repro.core import ConnectionConfig, Node, NodeConfig  # local: avoid cycle

    node_a = Node(NodeConfig(name="prof-a", thread_package=thread_package))
    node_b = Node(NodeConfig(name="prof-b", thread_package=thread_package))
    profiler = OverheadProfiler(mode=mode)
    try:
        node_b.accept_mode = mode
        conn = node_a.connect(
            node_b.address,
            ConnectionConfig(
                interface=interface,
                flow_control="none",
                error_control="none",
                mode=mode,
            ),
            peer_name="prof-b",
        )
        peer = node_b.accept(timeout=5.0)
        peer.profiler = profiler
        for _ in range(iterations):
            stamps: Dict[str, int] = {}
            conn.send(payload, instrument=stamps)
            if peer.recv(timeout=5.0) is not None:
                profiler.record_send(stamps)
    finally:
        node_a.close()
        node_b.close()
    return profiler
