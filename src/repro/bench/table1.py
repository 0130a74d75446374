"""Table I: cost decomposition of a 1-byte ``NCS_send`` via the Send Thread.

The paper instruments the transmit path on QuickThreads and reports
(in microseconds): NCS_send entry/exit 10, header attach 4, queueing a
request 15, context switch into the Send Thread 27, dequeueing 17,
freeing the request buffer 10, context switch back 25 — 108 µs of
*session overhead* (28 %) against 274 µs of data transfer (72 %).

Here the same decomposition is read off the live runtime's X-ray spans
(every message sampled; see :func:`repro.obs.profiler.profile_echo`).
Stage mapping:

    entry→queued        = NCS_send function work + header/queue cost
    queued→dequeued     = context switch into the protocol thread
    dequeued→segmented  = header attach (segmentation)
    segmented→flow      = flow-control release (queueing to Send Thread)
    flow→send_dequeued  = context switch into the Send Thread
    send_dequeued→transmitted = data transfer (interface send)

"NCS_send entry/exit (caller visible)" is timed around the call.

Absolute numbers are a 2020s CPython process, not a 1996 SPARC — what
reproduces is the *structure*: a constant session overhead that
dominates 1-byte sends and washes out for large messages (Figure 11).
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Tuple

from repro.bench.runner import (
    dump_metrics_if_requested,
    format_table,
    persist_run,
)
from repro.obs.profiler import SEND_STAGES, OverheadProfiler, profile_echo

#: The paper's published microsecond figures, for side-by-side output.
PAPER_TABLE1_US = {
    "NCS_send entry/exit": 10,
    "Attaching a message header": 4,
    "Queuing a message request": 15,
    "Context switch to Send Thread": 27,
    "Dequeuing a message request": 17,
    "Free a message request buffer": 10,
    "Context switch back": 25,
    "Session overhead total": 108,
    "Data transfer (1-byte send)": 274,
    "Total": 383,
}

#: Ordered stage boundaries of a threaded send (shared with the
#: generalized profiler in :mod:`repro.obs.profiler`).
_STAGES = SEND_STAGES


def run_profiled(
    iterations: int = 200,
    thread_package: str = "kernel",
    interface: str = "sci",
    mode: str = "threaded",
) -> Tuple[Dict[str, float], OverheadProfiler]:
    """Measure the per-stage costs of a 1-byte send.

    Returns ``(results, profiler)``: median microseconds per stage plus
    session/data totals, and the filled :class:`OverheadProfiler` (with
    receive-side stages recorded at the consuming node) for consistency
    checks and the recv breakdown.  SCI (BSD sockets) is the default
    interface, matching the paper's measurement; pass
    ``interface="hpi"`` to isolate pure threading costs with a near-free
    data transfer, or ``mode="bypass"`` for the §4.2 procedure variant.
    """
    profiler = profile_echo(
        iterations=iterations,
        mode=mode,
        interface=interface,
        thread_package=thread_package,
    )
    results = profiler.send_breakdown()
    results["NCS_send entry/exit (caller visible)"] = (
        statistics.median(profiler.caller_us) if profiler.caller_us else 0.0
    )
    return results, profiler


def run(
    iterations: int = 200,
    thread_package: str = "kernel",
    interface: str = "sci",
) -> Dict[str, float]:
    """Historical entry point: the threaded-mode results dict alone."""
    results, _profiler = run_profiled(
        iterations=iterations, thread_package=thread_package, interface=interface
    )
    return results


def format_results(results: Dict[str, float]) -> str:
    rows = []
    for label, _s, _e in _STAGES:
        rows.append((label, results[label]))
    rows.append(("session overhead total", results["session overhead total"]))
    rows.append(("data transfer total", results["data transfer total"]))
    rows.append(("total", results["total"]))
    rows.append(("session fraction", results["session fraction"]))
    table = format_table(
        "Table I reproduction: 1-byte NCS_send cost decomposition (us, median)",
        ("stage", "measured"),
        rows,
        col_width=14,
    )
    paper = format_table(
        "Paper's Table I (QuickThreads, us)",
        ("activity", "us"),
        list(PAPER_TABLE1_US.items()),
        col_width=10,
    )
    return table + "\n\n" + paper


def main() -> None:
    results, profiler = run_profiled()
    print(format_results(results))
    stage_sum, total_mean = profiler.consistency("send")
    print(
        f"\nconsistency: send stage means sum to {stage_sum:.1f} us "
        f"vs measured total {total_mean:.1f} us"
    )
    bypass_results, bypass_profiler = run_profiled(mode="bypass")
    print()
    print(bypass_profiler.format_table())
    persist_run(
        "table1",
        {"threaded": results, "bypass": bypass_results},
        config={"iterations": 200, "interface": "sci"},
    )
    dump_metrics_if_requested()


if __name__ == "__main__":
    main()
