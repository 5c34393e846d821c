"""The balance report's one-pass tree against the recursive walk.

reference_report is the walk the report used before: per node, the
aggregate over its subtree and a recursive visit of its children, shown
if --show-zero is set, the aggregate is nonzero, or a child shows, and
a total line from the TAccount sum of the view. The report through
cli.main must match it byte for byte.
"""

import datetime as dt
import itertools
import random

import pytest

from journalgen import random_journal
from test_report_views import reference_total_line
from tledger import Journal, parse_journal, serialize_journal
from tledger.cli import RenderOptions, _fmt_value, main

NET_ZERO = """\
account a:x
account a:y
account a:z:w
account b
account c:d

2020-01-01 "in"
    a:x dr 3
    a:y cr 3
    b dr 1
    c:d cr 1

2020-02-01 "out"
    a:z:w dr 2/7
    a:x cr 2/7
    c:d dr 1
    b cr 1
"""


def reference_report(journal: Journal, at, opts: RenderOptions) -> tuple[int, str]:
    _, txs = journal.expand()
    cutoff = at if at is not None else (txs[-1].date if txs else dt.date.min)
    ledger = journal.stock_at(cutoff)
    if opts.percent:
        if journal.basis is None:
            return 1, ""
        ledger = ledger.scaled(journal.basis.reciprocal())
    chart = ledger.chart

    def visit(path, depth):
        agg = ledger.aggregate(path).reduce()
        child_lines = []
        for child in chart.children(path):
            child_lines.extend(visit(child, depth + 1))
        if not (opts.show_zero or not agg.is_zero or child_lines):
            return []
        value = _fmt_value(agg.balance(), opts)
        return [f"{'  ' * (depth + 1)}{path.leaf}  {value}"] + child_lines

    lines = [f"balance as of {cutoff.isoformat()}"]
    for root in sorted(p for p in chart.nodes if len(p.segments) == 1):
        lines.extend(visit(root, 0))
    lines.append(reference_total_line(ledger.total(), opts.places))
    return 0, "\n".join(lines) + "\n"


def generated_journals():
    """Seeded journals: three with a direct schedule, three with a contra one."""
    rng = random.Random(808)
    found = {"direct": [], "contra": []}
    while min(len(v) for v in found.values()) < 3:
        journal = random_journal(rng, max_transactions=60)
        if journal.schedules:
            mode = journal.schedules[0].mode.value
            if len(found[mode]) < 3:
                found[mode].append(journal)
    return [(f"{mode}{i}", j) for mode, js in found.items() for i, j in enumerate(js)]


def flag_sets(journal: Journal):
    _, txs = journal.expand()
    first, last = txs[0].date, txs[-1].date
    middle = first + (last - first) // 2
    ats = [None, first - dt.timedelta(days=1), middle]
    for show_zero, places, percent, at in itertools.product(
        (False, True), (None, 0, 2), (False, True), ats
    ):
        argv = ["--show-zero"] * show_zero + ["--percent"] * percent
        if places is not None:
            argv += ["--decimal", str(places)]
        if at is not None:
            argv += ["--at", at.isoformat()]
        yield argv, at, RenderOptions(places, percent, show_zero)


def check_against_reference(capsys, path, journal):
    for argv, at, opts in flag_sets(journal):
        code = main(["balance", str(path), *argv])
        out = capsys.readouterr().out
        assert (code, out) == reference_report(journal, at, opts), argv


@pytest.mark.parametrize("name, journal", generated_journals())
def test_generated_journals_match_the_walk(capsys, tmp_path, name, journal):
    path = tmp_path / f"{name}.journal"
    path.write_text(serialize_journal(journal), encoding="utf-8")
    journal, _ = parse_journal(path.read_text(encoding="utf-8"))
    check_against_reference(capsys, path, journal)


def test_a_subtree_that_nets_to_zero_still_shows(capsys, tmp_path):
    path = tmp_path / "netzero.journal"
    path.write_text(NET_ZERO, encoding="utf-8")
    journal, _ = parse_journal(NET_ZERO)
    check_against_reference(capsys, path, journal)
    assert main(["balance", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "balance as of 2020-02-01",
        "  a  0",
        "    x  19/7",
        "    y  -3",
        "    z  2/7",
        "      w  2/7",
        "total  (3, 3)  = 0  ok",
    ]
