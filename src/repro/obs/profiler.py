"""Per-stage overhead accounting for ``NCS_send`` / ``NCS_recv``.

The paper's Table 1 decomposes a 1-byte send into session-overhead
stages (function entry, header attach, queueing, context switches) and
data transfer.  :class:`OverheadProfiler` generalizes that methodology
to the live runtime as a *reader* of the X-ray's spans
(:mod:`repro.obs.xray`, the only per-message stage record): the stage
tables below are coarsenings of the X-ray's own, over the same stamps,
and the profiler turns a run's spans into per-stage statistics.

Because the stage deltas telescope (each stage's end is the next
stage's start), the stage *means* sum exactly to the mean of the
measured total — the consistency check benches assert (within noise).
"""

from __future__ import annotations

import statistics
import time
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

#: Threaded-mode send stages (label, start stamp, end stamp) over the
#: stamps of an X-ray send span.
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

#: Receive-path stages: the boundaries of the receive batch that
#: completed a sampled message, copied into its X-ray receive span
#: (``delivered``: its messages are handed to the receive queue).
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
        #: Microseconds each timed ``NCS_send`` call took as its caller
        #: saw it (Table 1's "NCS_send entry/exit").
        self.caller_us: List[float] = []

    # -- recording -----------------------------------------------------------

    def record_send(self, stamps: Dict[str, int]) -> bool:
        """Absorb one send span's stamps; True if usable."""
        return self.send.record(stamps)

    def record_recv(self, stamps: Dict[str, int]) -> bool:
        """Absorb one receive span's stamps; True if usable."""
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
    """Measure a one-way transfer between two live nodes, every message
    X-rayed.

    Sets up the unencumbered connection of the Table 1 bench (no flow
    control, no error control — the stages under test are the threading
    and queueing machinery) and returns the profiler filled from the
    sender's send spans and the consuming node's receive spans.
    """
    from repro.core import ConnectionConfig, Node, NodeConfig  # local: avoid cycle
    from repro.obs.xray import XrayConfig

    xray = XrayConfig(period=1, ring_capacity=max(1, iterations))
    node_a = Node(
        NodeConfig(name="prof-a", thread_package=thread_package, xray=xray)
    )
    node_b = Node(
        NodeConfig(name="prof-b", thread_package=thread_package, xray=xray)
    )
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
        for _ in range(iterations):
            started = time.perf_counter_ns()
            conn.send(payload)
            elapsed_ns = time.perf_counter_ns() - started
            profiler.caller_us.append(elapsed_ns / 1000.0)
            peer.recv(timeout=5.0)
    finally:
        # Closing joins the Send Thread, so the last send span has
        # landed before the ring is read.
        node_a.close()
        node_b.close()
    for span in node_a.xray.spans("send"):
        profiler.record_send(span["stamps"])
    for span in node_b.xray.spans("recv"):
        profiler.record_recv(span["stamps"])
    return profiler
