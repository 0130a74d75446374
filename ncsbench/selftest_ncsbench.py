"""Self-test of the benchmark itself: ``python3 -m pytest ncsbench/``.

Not part of tier-1 (``ncsbench/pytest.ini`` collects ``selftest_*.py``
only for runs rooted here).  Checks the harness, not the program's
speed: every workload runs for a second with shortened warm-up.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from ncsbench import ROOT, report, spec, tracer as tracer_mod
from ncsbench.tracer import MissingTargets, Target, Tracer
from ncsbench.workloads import (
    DEFS,
    fault_plan_text,
    make_fault_plan,
    make_payloads,
)


# -- every workload emits every declared metric ------------------------------


@pytest.fixture
def restore_affinity():
    """run_one pins its process for good; give pytest its CPUs back."""
    allowed = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, allowed)


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_workload_emits_every_metric_and_no_failures(name, restore_affinity):
    untraced = report.run_one(name, 7, 1.0, False, warmup_s=0.2, cycles=2)
    assert tuple(untraced["metrics"]) == spec.END_TO_END_NAMES
    assert untraced["failed"] == 0, untraced["failures"]
    assert untraced["attempted"] >= 1
    assert len(untraced["cpus"]) == 1
    for entry in untraced["metrics"].values():
        assert entry["value"] > 0

    traced = report.run_one(name, 7, 1.0, True, warmup_s=0.2)
    assert tuple(traced["metrics"]) == spec.PER_LAYER_NAMES
    assert len(traced["metrics"]) == 90
    assert traced["failed"] == 0, traced["failures"]
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    assert values["core.send.calls_per_msg"] > 0.9  # edges of a 0.5 s leg
    assert values["trace.cpu_coverage"] > 0.5
    event = name == "event_duplex"
    assert (values["eventplane.submit.calls_per_msg"] > 0) == event
    assert (values["eventplane.loops_per_msg"] > 0) == event


# -- tracer -------------------------------------------------------------------


def _patched_namespaces():
    """Every class and module the tracer may touch, with its attributes."""
    probe = Tracer()
    probe.install()
    owners = {owner for owner, _, _ in probe._patches}
    probe.uninstall()
    return owners


def test_install_uninstall_restores_every_namespace():
    owners = _patched_namespaces()
    assert len(owners) > 20
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = Tracer()
    tracer.install()
    touched = {(owner, attr) for owner, attr, _ in tracer._patches}
    for owner, attr in touched:
        assert vars(owner)[attr] is not before[owner][attr]
    tracer.uninstall()
    for owner in owners:
        after = dict(vars(owner))
        assert after.keys() == before[owner].keys()
        for attr, value in after.items():
            assert value is before[owner][attr], (owner, attr)


def test_segment_message_rebound_where_imported_by_name():
    import repro.errorcontrol.selective_repeat as sr
    import repro.protocol.segmentation as seg

    original = seg.segment_message
    assert sr.segment_message is original
    tracer = Tracer()
    tracer.install()
    try:
        assert seg.segment_message is not original
        assert sr.segment_message is not original
    finally:
        tracer.uninstall()
    assert sr.segment_message is original


def test_missing_target_is_listed_and_nothing_is_patched(monkeypatch):
    import repro.core.connection as connection

    bogus = Target(
        "core.send", "repro.core.connection", "Connection", ("no_such_call",)
    )
    gone = Target("core.recv", "repro.core.no_such_module", "X", ("recv",))
    monkeypatch.setattr(
        tracer_mod, "TARGETS", tracer_mod.TARGETS + (bogus, gone)
    )
    send = connection.Connection.send
    tracer = Tracer()
    with pytest.raises(MissingTargets) as raised:
        tracer.install()
    assert len(raised.value.missing) == 2
    assert "no_such_call" in str(raised.value)
    assert "no_such_module" in str(raised.value)
    assert connection.Connection.send is send
    assert not tracer._patches


def test_self_time_arithmetic_on_nested_spans():
    """outer: 10 cpu / 50 wall in itself; inner: 5 cpu / 105 wall."""
    now = {"cpu": 0, "wall": 0}
    tracer = Tracer(
        wall_clock=lambda: now["wall"], cpu_clock=lambda: now["cpu"]
    )

    def spend(cpu, wall):
        now["cpu"] += cpu
        now["wall"] += wall

    def inner():
        spend(5, 105)  # blocked for 100

    inner = tracer.wrap(inner, "core.recv")

    def outer():
        spend(4, 20)
        inner()
        spend(6, 30)
        inner()

    tracer.wrap(outer, "core.send")()
    totals = tracer.snapshot()
    assert totals["core.send"] == (1, 10, 50)
    assert totals["core.recv"] == (2, 10, 210)
    # Sum of self times is the inclusive time of the outermost span.
    assert sum(t.cpu_ns for t in totals.values()) == now["cpu"]
    assert sum(t.wall_ns for t in totals.values()) == now["wall"]


def test_self_time_survives_an_exception_in_the_child():
    now = {"cpu": 0}
    tracer = Tracer(wall_clock=lambda: 0, cpu_clock=lambda: now["cpu"])

    def inner():
        now["cpu"] += 3
        raise ValueError("boom")

    inner = tracer.wrap(inner, "core.recv")

    def outer():
        now["cpu"] += 2
        with pytest.raises(ValueError):
            inner()
        now["cpu"] += 1

    tracer.wrap(outer, "core.send")()
    totals = tracer.snapshot()
    assert totals["core.send"].cpu_ns == 3
    assert totals["core.recv"].cpu_ns == 3


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_same_seed_same_inputs(name):
    defn = DEFS[name]
    first, again = make_payloads(defn, 11), make_payloads(defn, 11)
    assert first == again
    assert len(set(first)) == 4 and all(len(p) == defn.size for p in first)
    assert make_payloads(defn, 12) != first
    assert fault_plan_text(defn, 11) == fault_plan_text(defn, 11)
    assert make_fault_plan(defn, 11) == make_fault_plan(defn, 11)


def test_only_the_lossy_workload_has_a_fault_plan():
    for name, defn in DEFS.items():
        plan = make_fault_plan(defn, 5)
        if name == "lossy_stream":
            assert plan.seed == 5 and plan.specs[0].kind == "drop"
            assert make_fault_plan(defn, 6) != plan
        else:
            assert plan is None


# -- contract file and bounds -------------------------------------------------


def test_benchmark_json_matches_spec():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["ncsbench"]
    assert contract["command"] == ["python3", "-m", "ncsbench", "one"]
    assert contract["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        tuple(w) for w in spec.WORKLOADS
    ]
    assert all(len(w.why) <= 200 for w in spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == [tuple(m) for m in spec.DRIVER_END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [tuple(m) for m in spec.DRIVER_PER_LAYER]
    assert len(spec.PER_LAYER) - len(spec.DRIVER_PER_LAYER) == 8
    assert max(m.bound for m in spec.DRIVER_END_TO_END) <= 0.25
    assert spec.BOUNDS["setup_s"] == 0.25


def test_no_bound_is_tighter_than_the_recorded_spread():
    recorded = json.loads(
        (ROOT / "ncsbench" / "observed_spread.json").read_text()
    )
    for workload, spreads in recorded["spread"].items():
        for metric, spread in spreads.items():
            if metric == "setup_s":
                continue  # its spread is not gated
            assert spread <= spec.BOUNDS[metric], (workload, metric)


def test_every_layer_metric_has_one_prediction():
    for name in spec.PER_LAYER_NAMES:
        rows = [
            row
            for row in spec.INTERACTIONS
            if any(name == k or name.startswith(k + ".") for k in row.layer)
        ]
        assert len(rows) == 1, name
    for row in spec.INTERACTIONS:
        for k in row.layer:
            assert any(
                n == k or n.startswith(k + ".") for n in spec.PER_LAYER_NAMES
            ), k
        for metric, workload in row.moves:
            assert metric in spec.END_TO_END_NAMES
            assert workload in spec.WORKLOAD_NAMES
        assert set(row.barely_on) <= set(spec.WORKLOAD_NAMES)
        assert not {w for _, w in row.moves} & set(row.barely_on)


# -- compare ------------------------------------------------------------------


def _record(values):
    return {
        "sets": [
            {"workloads": {"bulk_stream": {
                "metrics": {"msgs_per_s": {"value": v}}, "failed_ratio": 0.0,
            }}}
            for v in values
        ]
    }


def test_compare_verdicts():
    bound = spec.BOUNDS["msgs_per_s"]

    def word(a, b):
        return report.verdict(
            "msgs_per_s",
            report.metric_values(_record(a), "bulk_stream", "msgs_per_s"),
            report.metric_values(_record(b), "bulk_stream", "msgs_per_s"),
        )["verdict"]

    steady = [100, 101, 99]
    noisy = [100, 100 * (1 + 2 * bound), 100 * (1 - 2 * bound)]

    def scaled(values, factor):
        return [v * factor for v in values]

    assert word(steady, scaled(steady, 1 - bound / 2)) == "ok"
    assert word(steady, scaled(steady, 1 - 1.5 * bound)) == "regressed"
    # Spread wider than the bound and the runs overlap.
    assert word(noisy, scaled(noisy, 1 - bound / 2)) == "unresolved"
    # Wide spread, but every run of B is below every run of A.
    assert word(noisy, scaled(noisy, 0.2)) == "regressed"
    # Higher-is-better: a faster B is never a regression.
    assert word(steady, scaled(steady, 1.5)) == "ok"


def test_worsening_follows_the_metric_direction():
    assert report.worsening("latency_p50_us", 100, 120) == pytest.approx(0.2)
    assert report.worsening("msgs_per_s", 100, 80) == pytest.approx(0.2)
    assert report.worsening("msgs_per_s", 100, 120) < 0


def test_rel_spread_is_the_drivers_rule():
    import statistics

    values = [10.0, 11.0, 12.0, 13.0, 20.0, 9.0, 10.5, 11.5, 12.5, 10.2]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert report.rel_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )


def test_command_refuses_a_checkout_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(
        ROOT / "ncsbench", tmp_path / "ncsbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "ncsbench", "one", "--workload",
         "pingpong_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
