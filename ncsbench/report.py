"""Turn measured legs into named metrics, records and verdicts."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from ncsbench import ROOT
from ncsbench.spec import (
    BETTER,
    BOUNDS,
    LAYER_UNITS,
    PER_LAYER_NAMES,
    SPANS,
    UNITS,
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# One workload, one fresh process
# ---------------------------------------------------------------------------


def run_one(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    warmup_s: Optional[float] = None,
    cycles: Optional[int] = None,
) -> dict:
    """Run workload ``name`` in *this* process and return its result.

    Untraced: set-up/tear-down cycles, then one measured leg; the result
    carries the end-to-end metrics.  Traced: an untraced reference leg
    and a traced leg of ``seconds / 2`` each, in that order; the result
    carries the per-layer metrics, and the throughput ratio of the two
    legs is the tracing overhead.

    Call it in a process that has done nothing else (``python3 -m
    ncsbench one``, or a spawned worker): warm-up behaviour and
    ``peak_rss_mb`` belong to the process.  ``warmup_s`` and ``cycles``
    default to the harness constants; only the self-test shortens them.

    Confines the process to one CPU for the rest of its life; see
    README, "Why the workload process is pinned".
    """
    # Imported here so a checkout without the program fails in the
    # command, with a message, rather than at package import.
    from ncsbench.tracer import Tracer
    from ncsbench.workloads import (
        DEFS,
        SETUP_CYCLES,
        WARMUP_S,
        fault_plan_text,
        run_leg,
        setup_teardown_cycles,
    )

    # The highest CPU we may use: housekeeping tends to sit on CPU 0.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    defn = DEFS[name]
    warmup_s = WARMUP_S if warmup_s is None else warmup_s
    cycles = SETUP_CYCLES if cycles is None else cycles
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "payload_bytes": defn.size,
        "fault_plan": fault_plan_text(defn, seed),
        "cpus": sorted(os.sched_getaffinity(0)),
    }
    if not trace:
        setup_s, teardown_s, cycle_failures = setup_teardown_cycles(
            defn, seed, cycles
        )
        leg = run_leg(defn, seed, seconds, warmup_s=warmup_s)
        result["metrics"] = end_to_end_metrics(
            leg, defn.size, setup_s, teardown_s, cycles
        )
        extra_failed = cycle_failures
    else:
        reference = run_leg(defn, seed, seconds / 2, warmup_s=warmup_s)
        tracer = Tracer()
        tracer.install()
        try:
            leg = run_leg(
                defn, seed, seconds / 2, tracer=tracer, warmup_s=warmup_s
            )
        finally:
            tracer.uninstall()
        result["metrics"] = per_layer_metrics(leg, reference)
        result["traced_msgs_per_s"] = leg.msgs_per_s
        result["untraced_msgs_per_s"] = reference.msgs_per_s
        extra_failed = reference.failures.total()
        result["reference_failures"] = reference.failures.as_dict()
    failed = leg.failures.total() + extra_failed
    result.update(
        attempted=leg.attempted,
        failed=failed,
        failed_ratio=_ratio(failed, leg.attempted),
        failures=leg.failures.as_dict(),
        windows=leg.windows,
        messages=leg.messages,
    )
    return result


def end_to_end_metrics(
    leg, size: int, setup_s: float, teardown_s: float, cycles: int
) -> dict:
    values = {
        "msgs_per_s": (leg.msgs_per_s, leg.messages),
        "goodput_MBps": (leg.msgs_per_s * size / 1e6, leg.messages),
        "latency_p50_us": (leg.latency_p50_us, leg.latency_samples),
        "latency_p99_us": (leg.latency_p99_us, leg.latency_samples),
        "cpu_us_per_msg": (
            _ratio(leg.cpu_s * 1e6, leg.messages), leg.messages
        ),
        "setup_s": (setup_s, cycles),
        "teardown_s": (teardown_s, cycles),
        "peak_rss_mb": (leg.peak_rss_mb, 1),
    }
    return {
        name: {"value": value, "unit": UNITS[name], "samples": samples}
        for name, (value, samples) in values.items()
    }


def per_layer_metrics(leg, reference) -> dict:
    """The 90 layer metrics, per message completed in the traced leg.

    On ``pingpong_small`` a "message" is a round trip, so counters that
    both directions feed (credit PDUs, ACKs, SDUs) read twice what one
    direction pays.
    """
    msgs = leg.messages
    values: Dict[str, float] = {}
    span_cpu_us = 0.0
    for span in SPANS:
        totals = leg.spans[span]
        cpu_us = totals.cpu_ns / 1e3
        span_cpu_us += cpu_us
        values[f"{span}.calls_per_msg"] = _ratio(totals.calls, msgs)
        values[f"{span}.cpu_us_per_msg"] = _ratio(cpu_us, msgs)
        # Two different clocks: can read a hair below zero for a span
        # that never blocks.
        values[f"{span}.wait_us_per_msg"] = _ratio(
            (totals.wall_ns - totals.cpu_ns) / 1e3, msgs
        )

    c = leg.counters
    get = lambda key: c.get(key, 0)  # noqa: E731 - engines differ in keys
    retransmitted = get("ec_tx_retransmitted_sdus")
    first_tx = get("fc_tx_released_sdus") - retransmitted
    tx_calls = (
        get("if_batched_sends") + get("if_sent_frames") - get("if_batched_frames")
    )
    loops = leg.loop.get("loops", 0)
    dispatches = sum(
        leg.loop.get(key, 0)
        for key in ("read_dispatches", "write_dispatches", "queue_dispatches")
    )
    process_cpu_us = leg.cpu_s * 1e6
    values.update(
        {
            "protocol.sdus_per_msg": _ratio(first_tx, msgs),
            "interfaces.frames_per_tx_call": _ratio(
                get("if_sent_frames"), tx_calls
            ),
            "interfaces.wire_overhead_ratio": _ratio(
                get("if_sent_bytes"), get("bytes_sent")
            ),
            "flowcontrol.credit_pdus_per_msg": _ratio(
                get("fc_rx_credit_pdus_sent"), msgs
            ),
            "flowcontrol.credit_stalls_per_msg": _ratio(
                get("fc_tx_credit_stalls"), msgs
            ),
            "flowcontrol.stall_s_per_s": _ratio(
                get("fc_tx_stall_seconds"), leg.measure_s
            ),
            "flowcontrol.resyncs": float(
                get("fc_tx_resync_requests") + get("fc_tx_resyncs")
            ),
            "errorcontrol.retransmit_ratio": _ratio(retransmitted, first_tx),
            "errorcontrol.full_retransmits": float(
                get("ec_tx_full_retransmits")
            ),
            "errorcontrol.dup_acks_per_msg": _ratio(
                get("ec_tx_duplicate_acks"), msgs
            ),
            "errorcontrol.rx_duplicates_ratio": _ratio(
                get("ec_rx_duplicates"), get("fc_rx_packets_seen")
            ),
            "errorcontrol.acks_deduped_per_msg": _ratio(
                get("acks_deduped"), msgs
            ),
            "pressure.admission_waits": float(
                get("pressure_admission_waits")
            ),
            "eventplane.loops_per_msg": _ratio(loops, msgs),
            "eventplane.dispatches_per_loop": _ratio(dispatches, loops),
            "core.residual_cpu_us_per_msg": _ratio(
                process_cpu_us - span_cpu_us, msgs
            ),
            "trace.cpu_coverage": _ratio(span_cpu_us, process_cpu_us),
            "trace.overhead_ratio": _ratio(
                leg.msgs_per_s, reference.msgs_per_s
            ),
        }
    )
    return {
        name: {"value": values[name], "unit": LAYER_UNITS[name], "samples": msgs}
        for name in PER_LAYER_NAMES
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_state() -> dict:
    """HEAD of the checkout and the top-level paths that differ from it.

    'unknown' when the checkout is not a git repository (the driver's is
    not); never looks above the checkout.
    """
    state = {"git_sha": "unknown", "git_dirty": []}
    if not (ROOT / ".git").exists():
        return state
    try:
        sha, status = (
            subprocess.run(
                ["git", "-C", str(ROOT), *command],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout
            for command in (("rev-parse", "HEAD"), ("status", "--porcelain"))
        )
    except (OSError, subprocess.SubprocessError):
        return state
    state["git_sha"] = sha.strip()
    state["git_dirty"] = sorted(
        {line[3:].split("/")[0] for line in status.splitlines() if line}
    )
    return state


def provenance(seed: int, measure_s: float) -> dict:
    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    return {
        **git_state(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": nproc,
        "switchinterval_s": sys.getswitchinterval(),
        "loadavg_1min_at_start": load1,
        "started_loaded": load1 > nproc,
        "seed": seed,
        "measure_s": measure_s,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "transport": "sci over 127.0.0.1: host loopback, not a link",
        "placement": "each workload process pinned to one CPU",
    }


# ---------------------------------------------------------------------------
# Statistics over sets, and comparison
# ---------------------------------------------------------------------------


def rel_spread(values: List[float]) -> float:
    """Distance between first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``), the driver's rule."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return _ratio(q3 - q1, statistics.median(values))


def metric_values(record: dict, workload: str, metric: str) -> List[float]:
    """One value per set in ``record`` (skipping sets without it)."""
    out = []
    for one_set in record["sets"]:
        entry = one_set["workloads"].get(workload, {}).get("metrics", {})
        if metric in entry:
            out.append(entry[metric]["value"])
    return out


def failed_ratio_of(record: dict, workload: str) -> float:
    ratios = [
        s["workloads"][workload]["failed_ratio"]
        for s in record["sets"]
        if workload in s["workloads"]
    ]
    return max(ratios) if ratios else 0.0


def worsening(metric: str, base: float, new: float) -> float:
    """Relative change of ``new`` against ``base`` in the bad direction
    (negative = improved)."""
    if BETTER[metric] == "lower":
        return _ratio(new - base, base)
    return _ratio(base - new, base)


def verdict(metric: str, a: List[float], b: List[float]) -> Optional[dict]:
    """Compare set values ``a`` (base) and ``b`` for one metric."""
    if not a or not b:
        return None
    med_a, med_b = statistics.median(a), statistics.median(b)
    bound = BOUNDS[metric]
    spread = max(rel_spread(a), rel_spread(b))
    overlap = min(a) <= max(b) and min(b) <= max(a)
    worse = worsening(metric, med_a, med_b)
    if spread > bound and overlap:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    else:
        word = "ok"
    return {
        "base": med_a,
        "new": med_b,
        "ratio": _ratio(med_b, med_a),
        "spread": spread,
        "bound": bound,
        "verdict": word,
    }
