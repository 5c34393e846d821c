"""Journal.reconcile on the replay's integers against the TAccount path.

reconcile takes its opening, flow and closing pairs from three separate
integer lookups and checks od + fd + cc == oc + fc + cd on them. The
reference here is the path it replaced: stock_at(start),
flow_between(start, end), stock_at(end), and TAccount.equivalent on
every leaf. The two must give the same rows, or the same error, on
every window probed.
"""

import datetime as dt
import random
from collections import Counter
from fractions import Fraction

import pytest

from journalgen import prime_journal, random_journal, restyled
from tledger import (
    AccountPath,
    Amount,
    IntervalError,
    Journal,
    LedgerError,
    Posting,
    SourceSpan,
    TAccount,
    Transaction,
    parse_journal,
    serialize_journal,
)

DAY = dt.timedelta(days=1)
MONTH_ENDS = [dt.date(2020, m + 1, 1) - DAY for m in range(1, 12)] + [dt.date(2020, 12, 31)]


def reference_rows(journal, start, end):
    opening = journal.stock_at(start)
    flow = journal.flow_between(start, end)
    closing = journal.stock_at(end)
    rows = []
    for account in sorted(closing.balances, key=lambda a: a.segments):
        before, moved = opening.balances[account], flow.balances[account]
        after = closing.balances[account]
        rows.append((account, before, moved, after, (before + moved).equivalent(after)))
    return rows


def rows(journal, start, end):
    report = journal.reconcile(start, end)
    assert (report.start, report.end) == (start, end)
    return [(r.account, r.opening, r.flow, r.closing, r.ok) for r in report.rows]


def outcome(view):
    """A view's value, or the type, message and span of its error."""
    try:
        return view()
    except LedgerError as err:
        return type(err), str(err), err.span


def probe_dates(journal) -> list[dt.date]:
    """Every transaction date, the days either side of each, the 2020 month-ends."""
    _, txs = journal.expand()
    dates = {tx.date + k * DAY for tx in txs for k in (-1, 0, 1)}
    return sorted(dates | set(MONTH_ENDS))


def windows(journal):
    """Each probe date against every later one, itself and the one before it."""
    dates = probe_dates(journal)
    for i, start in enumerate(dates):
        for end in dates[max(i - 1, 0) :]:
            yield start, end


def journals():
    rng = random.Random(8812)
    out = [random_journal(rng, max_accounts=10, max_transactions=12) for _ in range(6)]
    while not any(j.schedules for j in out):
        out.append(random_journal(rng, max_accounts=10, max_transactions=12))
    out += [
        parse_journal(restyled(serialize_journal(j), rng))[0] for j in out[:3]
    ]
    out.append(parse_journal(prime_journal(rng, n_tx=15))[0])
    return out


JOURNALS = journals()


def failing(journal, seed) -> Journal:
    """journal with up to three steps that fail, each its own way and with
    its own span, in the later half of its dates."""
    rng = random.Random(seed)
    chart, txs = journal.expand()
    leaves = chart.leaves()
    interiors = [p for p in chart.nodes if p not in leaves]
    dates = sorted({tx.date for tx in txs})
    a, b = leaves[0], leaves[-1]
    one = Amount(1)

    def bad(line, second):
        span = SourceSpan("<injected>", line, 1, 10)
        postings = (
            Posting(a, TAccount.dr(one), SourceSpan("<injected>", line + 1, 5, 3)),
            Posting(second, TAccount.cr(Amount(2, 5) if second is b else one)),
        )
        return Transaction(rng.choice(dates[len(dates) // 2 :]), f"bad {line}", postings, span=span)

    broken = [bad(10, b), bad(20, AccountPath(("nowhere",)))]
    if interiors:
        broken.append(bad(30, interiors[0]))
    return Journal(chart, txs + tuple(broken), (), journal.basis)


@pytest.mark.parametrize("index", range(len(JOURNALS)))
def test_rows_match_the_taccount_reference(index):
    journal = JOURNALS[index]
    for start, end in windows(journal):
        want = outcome(lambda: reference_rows(journal, start, end))
        assert outcome(lambda: rows(journal, start, end)) == want, (start, end)
        if start <= end:
            assert all(row[-1] for row in want)


@pytest.mark.parametrize("index", range(0, len(JOURNALS), 3))
def test_errors_match_the_taccount_reference(index):
    broken = failing(JOURNALS[index], index)
    seen = set()
    for start, end in windows(broken):
        want = outcome(lambda: reference_rows(broken, start, end))
        assert outcome(lambda: rows(broken, start, end)) == want, (start, end)
        if not isinstance(want, tuple):
            seen.add("rows")
        elif want[0] is IntervalError:
            seen.add("inverted")
        else:
            opening_fails = isinstance(outcome(lambda: broken.stock_at(start)), tuple)
            seen.add("opening" if opening_fails else "flow")
    assert seen == {"rows", "inverted", "opening", "flow"}


def moved_on(journal, day) -> set[AccountPath]:
    """The leaves whose signed balance changes on day."""
    _, txs = journal.expand()
    net = Counter()
    for tx in txs:
        if tx.date == day:
            for p in tx.postings:
                net[p.account] += p.entry.balance()
    return {account for account, value in net.items() if value != Fraction(0)}


def test_a_closed_lower_bound_is_caught(monkeypatch):
    """With the flow lookup's window made [start, end], every leaf that
    moved on start is counted twice, and reconcile must name exactly those.

    Dates are days, so bisect_right at start - 1 day is bisect_left at
    start: the patch closes the lookup's lower bound.
    """
    real = Journal._flow_pairs
    monkeypatch.setattr(
        Journal, "_flow_pairs", lambda self, start, end: real(self, start - DAY, end)
    )
    caught = 0
    for journal in JOURNALS:
        for start, end in windows(journal):
            if start > end:
                continue
            report = journal.reconcile(start, end)
            named = {row.account for row in report.violations}
            assert named == moved_on(journal, start), (start, end)
            assert report.ok == (not named)
            caught += bool(named)
    assert caught > 100
