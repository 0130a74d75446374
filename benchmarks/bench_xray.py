"""Latency X-ray overhead: the attribution tax at each sampling rate.

Not a paper figure — the X-ray is this repo's latency-debugging
subsystem — but persisted like one, so the sampler's cost creeping past
its design budget (≤5% at the 1/64 production default) fails here, and
so the telescoping invariant is re-proven on the bench workload, not
just the unit-test one.
"""

import pytest

from conftest import emit, persist
from repro.bench import xray
from repro.obs.profiler import TELESCOPE_TOLERANCE


@pytest.fixture(scope="module", autouse=True)
def results():
    results = xray.run_xray_bench()
    emit(xray.format_results(results))
    persist(
        "xray",
        results,
        config={
            "messages": xray.DEFAULT_MESSAGES,
            "message_bytes": xray.DEFAULT_MESSAGE_BYTES,
            "repeats": xray.DEFAULT_REPEATS,
            "sampled_period": xray.SAMPLED_PERIOD,
        },
    )
    return results


def test_default_sampling_overhead_within_budget(results):
    # Design budget is ≤5%; single-rep noise on a loaded CI runner is
    # itself ±5%, so the gate sits at 10% — still far below the cost a
    # per-message (unsampled) implementation would show.
    assert results["overhead_sampled_pct"] <= 10.0


def test_sampler_picked_exactly_one_in_n(results):
    # Warmup send + messages x repeats, all deterministic: the sampled
    # rig must have picked exactly every 64th message.
    total = 1 + xray.DEFAULT_MESSAGES * xray.DEFAULT_REPEATS
    assert results["full"]["sampled_sends"] == total
    assert results["sampled"]["sampled_sends"] == total // xray.SAMPLED_PERIOD
    assert results["off"]["sampled_sends"] == 0


def test_spans_telescope_on_bench_workload(results):
    tele = results["telescope"]
    assert tele["joined_spans"] > 0
    assert abs(tele["telescope_ratio_median"] - 1.0) <= TELESCOPE_TOLERANCE
    assert abs(tele["telescope_ratio_worst"] - 1.0) <= TELESCOPE_TOLERANCE
    assert tele["dominant_stage"] is not None
