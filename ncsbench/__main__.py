"""Command line: ``python3 -m ncsbench {one,run,repeat,compare}``.

``one`` is the driver-facing form (``BENCHMARK.json`` names it): one
workload in this process, one JSON object on the last line of stdout.
``run`` executes all four workloads, each in a freshly spawned process,
and writes one record stamped with the git SHA; ``repeat`` runs several
sets and checks the spread against the bounds; ``compare`` reads two
records and gives a verdict per workload and metric.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from ncsbench import ROOT
from ncsbench import report
from ncsbench.spec import (
    BOUNDS,
    DRIVER_END_TO_END,
    DRIVER_PER_LAYER,
    END_TO_END_NAMES,
    INTERACTIONS,
    RUN_SECONDS,
    WORKLOAD_NAMES,
)

SPREAD_FILE = Path(__file__).resolve().parent / "observed_spread.json"
OUT_DIR = ROOT / "ncsbench_out"


def _require_program() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(
            f"ncsbench: the program under test is not in this checkout "
            f"({ROOT / 'src' / 'repro'} is missing)"
        )


def _print_metrics(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(
        f"== {result['workload']}  {kind}  seed={result['seed']} "
        f"measured {result['seconds']:g}s  messages={result['messages']}"
    )
    for name, entry in result["metrics"].items():
        print(
            f"  {name:<40} {entry['value']:>16.4f} {entry['unit']:<6} "
            f"n={entry['samples']}"
        )
    print(
        f"  {'failed_ratio':<40} {result['failed_ratio']:>16.6f} {'ratio':<6} "
        f"n={result['attempted']}"
    )
    if result["failed"]:
        print(f"  FAILURES: {result['failures']}")


def _run_fresh(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """``report.run_one`` in a spawned process that does nothing else."""
    with ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        return pool.submit(report.run_one, name, seed, seconds, trace).result()


def _run_set(seed: int, seconds: float, traced: bool) -> dict:
    one_set = {"seed": seed, "workloads": {}}
    for name in WORKLOAD_NAMES:
        result = _run_fresh(name, seed, seconds, False)
        _print_metrics(result)
        if traced:
            layers = _run_fresh(name, seed, seconds, True)
            _print_metrics(layers)
            result["layers"] = layers
        one_set["workloads"][name] = result
    return one_set


def _set_failed(one_set: dict) -> bool:
    return any(
        w["failed"] or w.get("layers", {}).get("failed")
        for w in one_set["workloads"].values()
    )


def _write_record(record: dict, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {out}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_one(args) -> int:
    result = report.run_one(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    _print_metrics(result)
    # The contract line carries exactly the metrics BENCHMARK.json lists.
    listed = DRIVER_PER_LAYER if args.trace else DRIVER_END_TO_END
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m.name: {
                        "value": result["metrics"][m.name]["value"],
                        "unit": m.unit,
                    }
                    for m in listed
                },
            }
        )
    )
    # The result line carries the failures ("correct": false); the exit
    # code says only that a result was produced.
    return 0


def _new_record(args) -> dict:
    record = {
        "benchmark": "ncsbench",
        "provenance": report.provenance(args.seed, args.measure_s),
        "interactions": [row._asdict() for row in INTERACTIONS],
        "sets": [],
    }
    if record["provenance"]["started_loaded"]:
        print("WARNING: 1-min load average at start exceeds nproc")
    return record


def cmd_run(args) -> int:
    record = _new_record(args)
    record["sets"].append(_run_set(args.seed, args.measure_s, args.traced))
    sha = record["provenance"]["git_sha"][:12]
    _write_record(record, args.out or OUT_DIR / f"run-{sha}-seed{args.seed}.json")
    return 1 if _set_failed(record["sets"][0]) else 0


def cmd_repeat(args) -> int:
    record = _new_record(args)
    for i in range(args.sets):
        # Another seed each set, as the driver's acceptance runs do.
        seed = args.seed + i
        print(f"---- set {i + 1}/{args.sets} (seed {seed})")
        record["sets"].append(_run_set(seed, args.measure_s, False))
    sha = record["provenance"]["git_sha"][:12]
    _write_record(
        record, args.out or OUT_DIR / f"repeat-{sha}-seed{args.seed}.json"
    )

    observed = {}
    too_wide = []
    print(
        f"{'workload':<16}{'metric':<18}{'min':>14}{'median':>14}{'max':>14}"
        f"{'spread':>9}{'bound':>7}"
    )
    for name in WORKLOAD_NAMES:
        observed[name] = {}
        for metric in END_TO_END_NAMES:
            values = report.metric_values(record, name, metric)
            spread = report.rel_spread(values)
            observed[name][metric] = round(spread, 4)
            flag = ""
            if spread > BOUNDS[metric]:
                too_wide.append(f"{name}/{metric}")
                flag = "  > bound"
            print(
                f"{name:<16}{metric:<18}{min(values):>14.4f}"
                f"{statistics.median(values):>14.4f}{max(values):>14.4f}"
                f"{spread:>9.3f}{BOUNDS[metric]:>7.2f}{flag}"
            )
    _write_spread_file(record["provenance"], args.sets, observed)
    failed = any(_set_failed(s) for s in record["sets"])
    if too_wide:
        print("spread exceeds bound: " + ", ".join(too_wide))
    return 1 if (too_wide or failed) else 0


def _write_spread_file(provenance: dict, sets: int, observed: dict) -> None:
    SPREAD_FILE.write_text(
        json.dumps(
            {
                "what": "relative spread (q3-q1)/median of each end-to-end "
                "metric over the sets of the last `ncsbench repeat`; a "
                "bound in ncsbench/spec.py must not be tighter than this",
                "provenance": provenance,
                "sets": sets,
                "spread": observed,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"observed spread written to {SPREAD_FILE}")


def cmd_compare(args) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    print(
        f"base A = {args.a} ({a['provenance']['git_sha'][:12]}, "
        f"{len(a['sets'])} set(s));  B = {args.b} "
        f"({b['provenance']['git_sha'][:12]}, {len(b['sets'])} set(s))"
    )
    print(
        f"{'workload':<16}{'metric':<18}{'A median':>14}{'B median':>14}"
        f"{'B/A':>8}{'spread':>8}{'bound':>7}  verdict"
    )
    bad = False
    for name in WORKLOAD_NAMES:
        for metric in END_TO_END_NAMES:
            row = report.verdict(
                metric,
                report.metric_values(a, name, metric),
                report.metric_values(b, name, metric),
            )
            if row is None:
                continue
            bad = bad or row["verdict"] == "regressed"
            print(
                f"{name:<16}{metric:<18}{row['base']:>14.4f}{row['new']:>14.4f}"
                f"{row['ratio']:>8.3f}{row['spread']:>8.3f}{row['bound']:>7.2f}"
                f"  {row['verdict']}"
            )
        fa, fb = report.failed_ratio_of(a, name), report.failed_ratio_of(b, name)
        word = "regressed" if fb > fa else "ok"
        bad = bad or fb > fa
        print(
            f"{name:<16}{'failed_ratio':<18}{fa:>14.6f}{fb:>14.6f}"
            f"{'':>16}{'+0':>7}  {word}"
        )
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ncsbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("one", help="one workload, driver contract output")
    one.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    one.add_argument("--seed", type=int, default=1)
    one.add_argument("--seconds", type=float, default=RUN_SECONDS)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.set_defaults(fn=cmd_one)

    run = sub.add_parser("run", help="all workloads, one record")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--measure-s", type=float, default=RUN_SECONDS)
    run.add_argument(
        "--traced", action="store_true",
        help="repeat each workload with the layer tracer installed",
    )
    run.add_argument("--out", type=Path)
    run.set_defaults(fn=cmd_run)

    repeat = sub.add_parser("repeat", help="N sets, spread vs bounds")
    repeat.add_argument("--sets", type=int, default=2)
    repeat.add_argument(
        "--seed", type=int, default=1, help="set i uses seed+i"
    )
    repeat.add_argument("--measure-s", type=float, default=RUN_SECONDS)
    repeat.add_argument("--out", type=Path)
    repeat.set_defaults(fn=cmd_repeat)

    compare = sub.add_parser("compare", help="verdict per workload x metric")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    if args.command != "compare":
        _require_program()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
