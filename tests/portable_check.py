"""Checks that need no pytest, for interpreters that have none installed.

It replays every case in golden/cli.json and requires the same exit code,
stdout and stderr, byte for byte. Then it builds each kind of record from
the fixtures, copies, deep-copies and pickles it, and requires each
clone to be an equal record with the same repr; assigning or deleting
any field must raise AttributeError. Run it from the repository root
with any supported Python:

    PYTHONPATH=src python tests/portable_check.py

It prints a count per check and exits 1 if any check fails.
"""

import copy
import io
import json
import os
import pickle
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tledger import Posting, Transaction, parse_journal, validate_file
from tledger.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"


def golden_failures() -> tuple[int, list[str]]:
    cases = json.loads((HERE / "golden" / "cli.json").read_text(encoding="utf-8"))
    failures, cwd = [], os.getcwd()
    os.chdir(FIXTURES)
    try:
        for case in cases:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(case["argv"])
            got = code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")
            want = case["exit"], case["stdout"].encode("utf-8"), case["stderr"].encode("utf-8")
            if got != want:
                failures.append(" ".join(case["argv"]))
    finally:
        os.chdir(cwd)
    return len(cases), failures


def records() -> list:
    """At least one record of each kind, from the fixtures."""
    text = (FIXTURES / "machine_purchase.journal").read_text(encoding="utf-8")
    journal, _ = parse_journal(text, file="machine_purchase.journal")
    broken = validate_file(text.replace("dr 1234567.89", "dr 1", 1), file="broken.journal")
    chart, txs = journal.expand()
    first, last = txs[0].date, txs[-1].date
    roots = tuple(path for path in chart.nodes if path.parent is None)
    tx, posting = txs[0], txs[0].postings[0]
    reconciled = journal.reconcile(first, last)
    return [
        journal, chart, journal._replay, *chart.nodes, *journal.schedules,
        tx, tx.span, Transaction(tx.date, tx.description, tx.postings),
        *tx.postings, *(p.entry for p in tx.postings), Posting(posting.account, posting.entry),
        journal.stock_at(last), journal.flow_between(first, last), reconciled, *reconciled.rows,
        journal.income_report(first, last, roots), validate_file(text), broken, *broken.diagnostics,
    ]


def record_failures(values: list) -> list[str]:
    failures = []
    for value in values:
        name = type(value).__name__
        for how, clone in (
            ("copy", copy.copy(value)),
            ("deepcopy", copy.deepcopy(value)),
            ("pickle", pickle.loads(pickle.dumps(value))),
        ):
            if type(clone) is not type(value) or repr(clone) != repr(value) or clone != value:
                failures.append(f"{name} {how}")
        target = copy.copy(value)  # a change that gets through harms no later check
        for field in (*type(value)._fields, "not_a_field"):
            for act in (lambda: setattr(target, field, None), lambda: delattr(target, field)):
                try:
                    act()
                except AttributeError:
                    continue
                failures.append(f"{name}.{field} accepted a change")
    return failures


def main_check() -> int:
    cases, golden = golden_failures()
    values = records()
    kinds = len({type(value) for value in values})
    failed = record_failures(values)
    version = sys.version.split()[0]
    print(f"{version}: {cases - len(golden)}/{cases} golden cases byte-identical")
    print(f"{version}: {len(values)} records of {kinds} kinds, {len(failed)} failures")
    for failure in golden + failed:
        print(f"FAILED: {failure}")
    return 1 if golden or failed else 0


if __name__ == "__main__":
    sys.exit(main_check())
