"""What ncsbench measures: workloads, metrics and spans.

This module is data only.  ``BENCHMARK.json`` at the repository root is
the driver-facing copy of the workload and metric tables below (the
self-test asserts the two agree); everything else in the package reads
the names, units and bounds from here.  ``INTERACTIONS`` says which
layer metric should move which end-to-end metric on which workload; the
contract's schema has no place for it, so it lives here, in README.md
and in every record ``run`` and ``repeat`` write.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # relative worsening that counts as a regression


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str


#: Seconds one run measures (``run_seconds`` in BENCHMARK.json and the
#: default ``--measure-s``).  A traced run splits it: half untraced
#: reference, half traced.
RUN_SECONDS = 26

#: Names are fixed: later issues cite them.
WORKLOADS = (
    Workload(
        "pingpong_small",
        "64 B echo, window 1, threaded plane: per-message fixed cost and "
        "thread hand-offs dominate (Table 1 / Figure 11 at 1 byte); "
        "per-byte work does almost nothing.",
    ),
    Workload(
        "bulk_stream",
        "1 MiB one-way, window 2, threaded plane: 256 SDUs per message, so "
        "segmentation, SDU codec, reassembly and vectored I/O dominate and "
        "hand-offs are amortised 256:1 (Figure 10 / batching regime).",
    ),
    Workload(
        "lossy_stream",
        "64 KiB one-way, window 2, bypass plane, seeded 2% SDU drop: "
        "retransmission, timers and credit resync are live and the run is "
        "timer-bound, so a pure CPU saving should not move it.",
    ),
    Workload(
        "event_duplex",
        "4 KiB (one SDU) one-way on 2 connections, window 16 each, event "
        "plane: per-message cost of the selector loop where Send/Receive "
        "threads do not exist.",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

#: End-to-end metrics, reported per workload with tracing off.
#: ``failed_ratio`` is reported by every run as well but is not in this
#: table: its bound is absolute (+0, must stay 0) and the driver carries
#: it as ``failed`` / ``attempted``.
#:
#: Time-based bounds sit at the contract's ceiling of 0.25 because the
#: sandbox host's CPU speed itself drifts by that order over minutes
#: (README, "Noise"); ``ncsbench/observed_spread.json`` holds what was
#: last measured.  Compare two commits with alternating runs.
#:
#: ``latency_p99_us`` has the widest spread measured for it instead
#: (``baseline/p99_batches.json``: up to 0.354), which the contract's
#: ceiling does not allow: see ``DRIVER_END_TO_END``.
END_TO_END = (
    Metric("msgs_per_s", "msg/s", "higher", 0.25),
    Metric("goodput_MBps", "MB/s", "higher", 0.25),
    Metric("latency_p50_us", "us", "lower", 0.25),
    Metric("latency_p99_us", "us", "lower", 0.36),
    Metric("cpu_us_per_msg", "us", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("teardown_s", "s", "lower", 0.10),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: What BENCHMARK.json lists.  ``run``, ``repeat`` and ``compare`` treat
#: ``latency_p99_us`` like every other metric; the driver does not get
#: it, because in two of seven batches of ten runs its spread on
#: ``pingpong_small`` and ``event_duplex`` was above the largest bound
#: the driver accepts, and the driver refuses such a benchmark whole.
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.name != "latency_p99_us")

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
BOUNDS = {m.name: m.bound for m in END_TO_END}
BETTER = {m.name: m.better for m in END_TO_END}
UNITS = {m.name: m.unit for m in END_TO_END}

#: Spans, named by the module they enter.  ``ncsbench.tracer`` maps each
#: to the public entry points it wraps.
SPANS = (
    "core.send",
    "core.recv",
    "threadpkg.chan_put",
    "threadpkg.chan_get",
    "eventplane.submit",
    "eventplane.on_readable",
    "eventplane.on_writable",
    "protocol.segment",
    "protocol.sdu_encode",
    "protocol.sdu_decode",
    "protocol.reassemble",
    "protocol.pdu_encode",
    "protocol.pdu_decode",
    "errorcontrol.tx_send",
    "errorcontrol.tx_ack",
    "errorcontrol.tx_timer",
    "errorcontrol.rx_sdu",
    "flowcontrol.tx_offer",
    "flowcontrol.tx_pull",
    "flowcontrol.tx_credit",
    "flowcontrol.rx_batch",
    "interfaces.tx",
    "interfaces.rx",
    "pressure.budget",
)

#: Per span: calls, self thread-CPU and self blocked time, per message.
SPAN_FIELDS = (
    ("calls_per_msg", "count", "lower"),
    ("cpu_us_per_msg", "us/msg", "lower"),
    ("wait_us_per_msg", "us/msg", "lower"),
)

#: Counter-derived layer metrics (deltas of the public
#: ``Connection.metrics_totals()`` / ``EventLoop.stats()`` over the
#: traced interval) and the three the harness computes itself.
COUNTERS = (
    LayerMetric("protocol.sdus_per_msg", "count", "lower"),
    LayerMetric("interfaces.frames_per_tx_call", "count", "higher"),
    LayerMetric("interfaces.wire_overhead_ratio", "ratio", "lower"),
    LayerMetric("flowcontrol.credit_pdus_per_msg", "count", "lower"),
    LayerMetric("flowcontrol.credit_stalls_per_msg", "count", "lower"),
    LayerMetric("flowcontrol.stall_s_per_s", "ratio", "lower"),
    LayerMetric("flowcontrol.resyncs", "count", "lower"),
    LayerMetric("errorcontrol.retransmit_ratio", "ratio", "lower"),
    LayerMetric("errorcontrol.full_retransmits", "count", "lower"),
    LayerMetric("errorcontrol.dup_acks_per_msg", "count", "lower"),
    LayerMetric("errorcontrol.rx_duplicates_ratio", "ratio", "lower"),
    LayerMetric("errorcontrol.acks_deduped_per_msg", "count", "higher"),
    LayerMetric("pressure.admission_waits", "count", "lower"),
    LayerMetric("eventplane.loops_per_msg", "count", "lower"),
    LayerMetric("eventplane.dispatches_per_loop", "count", "higher"),
    LayerMetric("core.residual_cpu_us_per_msg", "us", "lower"),
    LayerMetric("trace.cpu_coverage", "ratio", "higher"),
    LayerMetric("trace.overhead_ratio", "ratio", "higher"),
)

PER_LAYER = tuple(
    LayerMetric(f"{span}.{field}", unit, better)
    for span in SPANS
    for field, unit, better in SPAN_FIELDS
) + COUNTERS

PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
LAYER_UNITS = {m.name: m.unit for m in PER_LAYER}

#: Spans that some workload never enters, so their times read exactly 0
#: on every run of it.  ``ncsbench run --traced`` prints and records all
#: 90 metrics; the driver-facing list keeps only the call counts of
#: these spans, because the driver refuses a time that never varies.
NEVER_ENTERED_SOMEWHERE = (
    "eventplane.submit",
    "eventplane.on_readable",
    "eventplane.on_writable",
    "errorcontrol.tx_timer",
)
DRIVER_PER_LAYER = tuple(
    m
    for m in PER_LAYER
    if not (
        m.unit == "us/msg"
        and m.name.rsplit(".", 1)[0] in NEVER_ENTERED_SOMEWHERE
    )
)


class Interaction(NamedTuple):
    """A prediction written down before measuring, so a later claim can
    be checked against it."""

    #: Layer metrics by name or dotted prefix (``threadpkg`` covers
    #: ``threadpkg.chan_put.cpu_us_per_msg``).
    layer: Tuple[str, ...]
    #: (end-to-end metric, workload) pairs they should move.
    moves: Tuple[Tuple[str, str], ...]
    #: Workloads on which they should barely move anything.
    barely_on: Tuple[str, ...]
    why: str


def _on(workload: str, *metrics: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((metric, workload) for metric in metrics)


#: Every per-layer metric falls under exactly one row (self-tested).
INTERACTIONS = (
    Interaction(
        ("threadpkg", "core"),
        _on("pingpong_small", "latency_p50_us", "msgs_per_s"),
        ("bulk_stream", "event_duplex"),
        "hand-offs and driver loops are per message: amortised 256:1 on "
        "bulk_stream, and the event plane has no Send/Receive threads",
    ),
    Interaction(
        (
            "protocol.segment", "protocol.sdu_encode", "protocol.sdu_decode",
            "protocol.reassemble", "protocol.sdus_per_msg",
            "errorcontrol.tx_send", "errorcontrol.rx_sdu",
            "flowcontrol.tx_offer", "flowcontrol.tx_pull",
            "flowcontrol.rx_batch",
        ),
        _on("bulk_stream", "goodput_MBps", "cpu_us_per_msg"),
        ("pingpong_small", "event_duplex"),
        "per-SDU work: 256 SDUs a message on bulk_stream, one elsewhere",
    ),
    Interaction(
        ("interfaces",),
        _on("bulk_stream", "goodput_MBps") + _on("event_duplex", "msgs_per_s"),
        ("lossy_stream",),
        "vectored I/O carries the bytes; lossy_stream is timer-bound",
    ),
    Interaction(
        ("eventplane",),
        _on("event_duplex", "msgs_per_s", "cpu_us_per_msg"),
        ("pingpong_small", "bulk_stream", "lossy_stream"),
        "spans absent off the event plane: reported as 0",
    ),
    Interaction(
        (
            "errorcontrol.tx_timer", "errorcontrol.retransmit_ratio",
            "errorcontrol.full_retransmits", "errorcontrol.dup_acks_per_msg",
            "errorcontrol.rx_duplicates_ratio", "flowcontrol.resyncs",
            "flowcontrol.stall_s_per_s", "flowcontrol.credit_stalls_per_msg",
        ),
        _on("lossy_stream", "goodput_MBps", "latency_p99_us"),
        ("pingpong_small", "bulk_stream", "event_duplex"),
        "loss recovery; retransmissions and resyncs should read ~0 "
        "(< 0.001) on the clean workloads, and are recorded when not",
    ),
    Interaction(
        (
            "flowcontrol.credit_pdus_per_msg", "flowcontrol.tx_credit",
            "protocol.pdu_encode", "protocol.pdu_decode",
            "errorcontrol.tx_ack", "errorcontrol.acks_deduped_per_msg",
        ),
        _on("pingpong_small", "latency_p50_us"),
        ("bulk_stream",),
        "control PDUs: 1 credit PDU + 1 ACK per message per direction on "
        "pingpong_small, ~4 credit PDUs per 256 SDUs on bulk_stream",
    ),
    Interaction(
        ("pressure",),
        tuple(("cpu_us_per_msg", name) for name in WORKLOAD_NAMES),
        (),
        "everywhere, small: ~8 budget calls per round trip",
    ),
    Interaction(
        ("trace",),
        (),
        WORKLOAD_NAMES,
        "qualify the other layer metrics; no end-to-end metric follows them",
    ),
)

