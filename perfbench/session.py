"""One workload run inside a fresh interpreter: the timed operations.

Drives the program in-process from the checkout's src directory: the
five CLI commands through tledger.cli.main with stdout and stderr
captured in memory, and a library month-end close. Every operation's
result is checked against the oracle after its timer stops. Prints one
JSON object as its last line for perfbench/run.py.

Untraced (--trace 0): rounds of a cold start plus all six operations
until --seconds have passed. Every one of them is bracketed by runs of
the reference kernel (perfbench/reference.py) and normalized by them, so
that drift in the shared host's speed cancels out; each metric is the
median of its normalized times over the run's rounds.

Traced (--trace 1): an untraced round and a traced round alternate until
--seconds have passed; per-layer figures come from the best traced round
for each, and the trace overhead compares the best round of each kind.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle as oracle_mod
import reference
from tracing import Tracer

OPERATIONS = ("check", "balance", "equation", "flows", "schedule", "close")
MIN_ROUNDS = 3


def run_command(cli, command: str, journal: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, journal])
    return code, out.getvalue()


def run_close(tledger, journal: str, lap=None):
    """A month-end close through the library: one parse, then per month
    a stock, a flow and a reconciliation. Returns the engine's values.

    lap, if given, is called between the steps: after the parse and
    after each month but the last.
    """
    text = Path(journal).read_text(encoding="utf-8")
    parsed, _ = tledger.parse_journal(text, file=journal)
    views = []
    for first, last in oracle_mod.month_ends(2020):
        if lap is not None:
            lap()
        t0, t1 = dt.date.fromisoformat(first), dt.date.fromisoformat(last)
        views.append(("stock", first, last, parsed.stock_at(t1)))
        views.append(("flow", first, last, parsed.flow_between(t0, t1)))
        views.append(("reconcile", first, last, parsed.reconcile(t0, t1)))
    return views


def plain_views(views):
    """The close session's engine values as plain data for the oracle."""
    out = []
    for kind, start, end, value in views:
        if kind == "reconcile":
            out.append((kind, start, end, (value.ok, len(value.rows))))
        else:
            pairs = {
                str(a): (t.debit.as_fraction, t.credit.as_fraction)
                for a, t in value.balances.items()
            }
            out.append((kind, start, end, pairs))
    return out


class Session:
    def __init__(self, journal: str, record: dict):
        sys.path.insert(0, str(Path("src").resolve()))
        import tledger
        import tledger.cli

        self.tledger = tledger
        self.cli = tledger.cli
        self.journal = journal
        self.oracle = oracle_mod.Oracle(record)
        self.attempted = 0
        self.failures: list[str] = []
        self.last_output: dict[str, str] = {}

    def attempt(self, op: str, tracer: Tracer | None = None, label: str = "", lap=None):
        """Run one operation and return its result.

        A crash is kept as the result, to be counted as a failure.
        """
        if op == "close":
            fn = lambda: run_close(self.tledger, self.journal, lap)  # noqa: E731
        else:
            fn = lambda: run_command(self.cli, op, self.journal)  # noqa: E731
        try:
            return fn() if tracer is None else tracer.region(f"{label}.{op}", fn)
        except Exception as exc:
            return exc

    def timed_round(self, tracer: Tracer | None = None, label: str = ""):
        """Each operation once: (seconds by operation, results by operation)."""
        seconds, results = {}, {}
        for op in OPERATIONS:
            start = time.perf_counter()
            results[op] = self.attempt(op, tracer, label)
            seconds[op] = time.perf_counter() - start
        return seconds, results

    def check(self, results) -> None:
        for op, result in results.items():
            self.attempted += 1
            if isinstance(result, Exception):
                self.failures.append(f"{op}: {type(result).__name__}: {str(result)[:200]}")
                continue
            if op == "close":
                result = plain_views(result)
            else:
                self.last_output[op] = result[1]
            reason = self.oracle.check(op, result)
            if reason is not None:
                self.failures.append(f"{op}: {reason}")

    def run_round(self) -> dict[str, float]:
        """Seconds by operation of one checked round."""
        seconds, results = self.timed_round()
        self.check(results)
        return seconds

    def self_check(self, seed: int) -> dict[str, bool]:
        """Corrupt one digit of a captured report; the oracle must object."""
        rng = random.Random(seed)
        caught = {}
        for op in ("balance", "equation", "flows"):
            if op not in self.last_output:
                caught[op] = False
                continue
            bad = oracle_mod.corrupt(op, self.last_output[op], rng)
            caught[op] = self.oracle.check(op, (0, bad)) is not None
        return caught

    def output_bytes(self) -> int:
        return sum(len(out.encode("utf-8")) for out in self.last_output.values())

    def algebra_probe(self) -> dict[str, float]:
        """ns per TAccount addition over the workload's own postings, folded
        per account; and the digit count of the largest final denominator."""
        text = Path(self.journal).read_text(encoding="utf-8")
        journal, _ = self.tledger.parse_journal(text)
        chart, txs = journal.expand()
        entries = [(p.account, p.entry) for tx in txs for p in tx.postings]
        zero = self.tledger.TAccount.zero()
        samples = []
        for _ in range(5):
            balances = dict.fromkeys(chart.leaves(), zero)
            start = time.perf_counter_ns()
            for account, entry in entries:
                balances[account] = balances[account] + entry
            samples.append((time.perf_counter_ns() - start) / len(entries))
        final = journal.stock_at(txs[-1].date)
        digits = max(
            oracle_mod.decimal_digits(side.denominator)
            for t in final.balances.values()
            for side in (t.debit, t.credit)
        )
        return {"algebra.tadd_ns": min(samples), "algebra.max_den_digits": digits}


def layer_metrics(tracer: Tracer, session: Session) -> dict[str, float]:
    calls, incl, own = tracer.totals()
    c = tracer.counters
    parse_s = incl["parser.parse_journal"]
    return {
        "parser.parse_s": parse_s,
        "parser.lines_per_s": c["parser.lines"] / parse_s if parse_s else 0.0,
        "parser.parse_calls": calls["parser.parse_journal"],
        "parser.validate_self_s": own["parser.validate_file"],
        "matching.emit_s": incl["matching.emit"],
        "matching.emissions": c["matching.emissions"],
        "ledger.expand_calls": calls["ledger.expand"],
        "ledger.expand_s": incl["ledger.expand"],
        "ledger.post_calls": calls["ledger.post"],
        "ledger.post_s": incl["ledger.post"],
        "ledger.total_calls": calls["ledger.total"],
        "ledger.total_s": incl["ledger.total"],
        "ledger.stock_at_calls": calls["ledger.stock_at"],
        "ledger.stock_at_s": incl["ledger.stock_at"],
        "ledger.flow_between_s": incl["ledger.flow_between"],
        "ledger.reconcile_s": incl["ledger.reconcile"],
        "ledger.aggregate_calls": calls["ledger.aggregate"],
        "ledger.aggregate_s": incl["ledger.aggregate"],
        "chart.declare_calls": calls["chart.declare"],
        "chart.declare_s": incl["chart.declare"],
        "chart.leaves_s": incl["chart.leaves"],
        "chart.children_calls": calls["chart.children"],
        "chart.children_s": incl["chart.children"],
        "chart.leaves_under_calls": calls["chart.leaves_under"],
        "chart.leaves_under_s": incl["chart.leaves_under"],
        "chart.path_constructions": c["chart.path_constructions"],
        "algebra.tadd_calls": c["algebra.tadd_calls"],
        "cli.self_s": own["cli.main"],
        "cli.output_bytes": session.output_bytes(),
    }


def cold_start_seconds() -> float:
    """Wall time of a fresh interpreter importing tledger.cli from src."""
    paths = [str(Path("src").resolve()), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import tledger.cli"], env=env, capture_output=True, timeout=60
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"cold start failed: {done.stderr.decode()[-500:]}")
    return elapsed


def measure(session: Session, seconds: float):
    """End-to-end metrics: the median normalized time of each operation and
    of the cold start, over rounds of all of them.

    Each time is normalized by the reference kernel's runs just before
    and just after it; the close, many times longer than the kernel, is
    normalized step by step. Returns the metrics, the normalized samples
    and the raw wall times.
    """
    steps = ("setup",) + OPERATIONS
    scaled: dict[str, list[float]] = {op: [] for op in steps}
    wall: dict[str, list[float]] = {op: [] for op in steps}
    cold_start_seconds()  # the first start also writes bytecode caches
    session.run_round()  # warm-up: imports, regex and bytecode caches
    watch = reference.Stopwatch()
    start = time.perf_counter()
    while len(wall["setup"]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        results = {}
        for op in steps:
            watch.start()
            if op == "setup":
                cold_start_seconds()
            else:
                results[op] = session.attempt(op, lap=watch.lap)
            watch.lap()
            wall[op].append(watch.wall)
            scaled[op].append(watch.scaled)
        session.check(results)
    metrics = {f"{op}_s": statistics.median(scaled[op]) for op in steps}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, scaled, wall


def measure_traced(session: Session, seconds: float, spans_out: Path):
    """Per-layer metrics: the best traced round's figure for each, beside
    untraced rounds run in turn with the traced ones for the overhead."""
    probe = session.algebra_probe()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        plain.append(sum(session.run_round().values()))
        tracer = Tracer()
        tracer.install()
        try:
            times, results = session.timed_round(tracer, f"r{len(traced)}")
        finally:
            tracer.uninstall()
        session.check(results)
        traced.append(sum(times.values()))
        layers.append(layer_metrics(tracer, session))
    tracer.write(spans_out)
    metrics = {name: min(m[name] for m in layers) for name in layers[0]}
    metrics["parser.lines_per_s"] = max(m["parser.lines_per_s"] for m in layers)
    metrics.update(probe)
    metrics["trace.overhead_ratio"] = min(traced) / min(plain)
    return metrics, {"plain_round": plain, "traced_round": traced}, {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--journal", required=True)
    parser.add_argument("--record", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    session = Session(args.journal, json.loads(args.record.read_text(encoding="utf-8")))
    if args.trace:
        spans = Path(args.journal).with_suffix(".spans.json")
        metrics, samples, wall = measure_traced(session, args.seconds, spans)
    else:
        metrics, samples, wall = measure(session, args.seconds)
    print(
        json.dumps(
            {
                "metrics": metrics,
                "samples": samples,
                "wall": wall,
                "attempted": session.attempted,
                "failures": session.failures,
                "self_check": session.self_check(args.seed),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
