"""Observability: metrics registry, profiler, health, flight recorder.

The unified measurement layer for the NCS reproduction.  Components
publish to a :class:`MetricsRegistry` (counters / gauges / histograms
with per-connection labels), :class:`OverheadProfiler` reads the
paper's Table 1 per-stage overhead decomposition off the X-ray's spans,
and the trace sinks in :mod:`repro.util.trace` export the event stream as
JSONL or Chrome ``trace_event`` JSON.  On top of those raw signals,
:mod:`repro.obs.health` classifies every connection ``OK`` /
``DEGRADED`` / ``STALLED`` / ``DEAD`` (credit starvation, retransmit
storms, blocked receivers, dead peers) via an optional per-node
:class:`Watchdog`, and :mod:`repro.obs.recorder` keeps a bounded
:class:`FlightRecorder` ring of recent protocol events that dumps
automatically on the first sample of an anomaly.  :mod:`repro.obs.xray`
extends Table 1's stage decomposition to *live* traffic: deterministic
1-in-N sampled per-message spans whose stage sums telescope to the
measured end-to-end latency, with per-connection streaming quantiles.
"""

from repro.obs.health import (
    DEAD,
    DEFAULT_THRESHOLDS,
    DEGRADED,
    Diagnosis,
    HealthThresholds,
    OK,
    STALLED,
    Watchdog,
    classify,
    classify_kernel,
    sample_connection,
    sample_sim_endpoint,
    worst,
)
from repro.obs.profiler import (
    BYPASS_SEND_STAGES,
    OverheadProfiler,
    RECV_STAGES,
    SEND_STAGES,
    TELESCOPE_TOLERANCE,
    profile_echo,
)
from repro.obs.recorder import NULL_RECORDER, FlightRecorder
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    GLOBAL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    SIZE_BUCKETS,
    format_snapshot,
    get_registry,
    set_registry,
)
from repro.obs.xray import (
    XRAY_SPAN_MARK,
    XrayConfig,
    XrayRecorder,
    dominance_report,
    join_spans,
    load_spans,
)

__all__ = [
    "BYPASS_SEND_STAGES",
    "Counter",
    "DEAD",
    "DEFAULT_BUCKETS",
    "DEFAULT_THRESHOLDS",
    "DEGRADED",
    "Diagnosis",
    "FlightRecorder",
    "Gauge",
    "GLOBAL_REGISTRY",
    "HealthThresholds",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_RECORDER",
    "OK",
    "OverheadProfiler",
    "RECV_STAGES",
    "SEND_STAGES",
    "SIZE_BUCKETS",
    "STALLED",
    "TELESCOPE_TOLERANCE",
    "Watchdog",
    "XRAY_SPAN_MARK",
    "XrayConfig",
    "XrayRecorder",
    "classify",
    "classify_kernel",
    "dominance_report",
    "format_snapshot",
    "get_registry",
    "join_spans",
    "load_spans",
    "profile_echo",
    "sample_connection",
    "sample_sim_endpoint",
    "set_registry",
    "worst",
]
