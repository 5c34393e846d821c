"""tledger benchmark: seeded journals, oracle-checked timings, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload wide_chart --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

For one workload it generates the journal from the seed, runs the
workload's operations in a child interpreter (perfbench/session.py) and
prints every metric by name with its unit. The last line is one JSON object: correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones. "--workload all" runs every workload both ways.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "check_s": "s",
    "balance_s": "s",
    "equation_s": "s",
    "flows_s": "s",
    "schedule_s": "s",
    "close_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "parser.parse_s": "s",
    "parser.lines_per_s": "lines/s",
    "parser.parse_calls": "count",
    "parser.validate_self_s": "s",
    "matching.emit_s": "s",
    "matching.emissions": "count",
    "ledger.expand_calls": "count",
    "ledger.expand_s": "s",
    "ledger.post_calls": "count",
    "ledger.post_s": "s",
    "ledger.total_calls": "count",
    "ledger.total_s": "s",
    "ledger.stock_at_calls": "count",
    "ledger.stock_at_s": "s",
    "ledger.flow_between_s": "s",
    "ledger.reconcile_s": "s",
    "ledger.aggregate_calls": "count",
    "ledger.aggregate_s": "s",
    "chart.declare_calls": "count",
    "chart.declare_s": "s",
    "chart.leaves_s": "s",
    "chart.children_calls": "count",
    "chart.children_s": "s",
    "chart.leaves_under_calls": "count",
    "chart.leaves_under_s": "s",
    "chart.path_constructions": "count",
    "algebra.tadd_calls": "count",
    "algebra.tadd_ns": "ns",
    "algebra.max_den_digits": "digits",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_ratio": "1",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    journal, record = gen.write(workload, seed, WORK)
    cmd = [
        sys.executable,
        str(HERE / "session.py"),
        "--journal", str(journal),
        "--record", str(record),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--seed", str(seed),
    ]
    try:
        child = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: session did not finish in time")
    if child.returncode != 0:
        raise BenchError(f"{workload}: session exited {child.returncode}: {child.stderr.strip()[-2000:]}")
    data = json.loads(child.stdout.strip().splitlines()[-1])
    metrics = data["metrics"]
    units = PER_LAYER if trace else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"{workload}: metrics missing: {sorted(missing)}")

    failed = len(data["failures"])
    caught = data["self_check"]
    rounds = len(next(iter(data["samples"].values())))
    print(f"workload {workload}  seed {seed}  trace {trace}  rounds {rounds}")
    for name, unit in units.items():
        line = f"  {name:28} {metrics[name]:.6g} {unit}"
        wall = data["wall"].get(name[: -len("_s")])
        if wall:
            line += (
                f"  (normalized median of {rounds};"
                f" wall min {min(wall):.6g}, median {statistics.median(wall):.6g})"
            )
        print(line)
    print(f"  {'failed_ratio':28} {failed / data['attempted']:.6g} 1  ({failed}/{data['attempted']})")
    for failure in data["failures"][:10]:
        print(f"    failed: {failure}")
    print("  oracle self-check: " + ", ".join(
        f"{op} {'caught' if ok else 'MISSED'}" for op, ok in caught.items()))
    return {
        "correct": failed == 0 and all(caught.values()),
        "attempted": data["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.SHAPES) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path("src") / "tledger" / "cli.py").is_file():
        print("error: run from a checkout of the repository: src/tledger is missing", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        if args.workload != "all":
            result = run_workload(
                args.workload, args.seed, args.seconds, args.trace, start + DEADLINE_S
            )
            print(json.dumps(result))
            return 0
        for workload in gen.SHAPES:
            for trace in (0, 1):
                deadline = time.monotonic() + DEADLINE_S
                result = run_workload(workload, args.seed, args.seconds, trace, deadline)
                print(json.dumps({"workload": workload, "trace": trace, **result}))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
