"""Month views built on the last lookup, against the full scan they replace.

Once a replay has answered one lookup, a stock builds on the nearest
kept stock and a flow on all-zero pairs: unless the window is busy, only
the leaves with a posting between the two dates are looked up again, and
a kept lookup keeps its TAccounts, which reconcile reads. The reference here is the path before
that: a full scan of every leaf's history per lookup, and one TAccount
built per leaf per view. Every stock_at, flow_between, reconcile and
income_report of one long-lived journal must be == to the reference's,
with the same repr, or raise the same error, message and span, in
whatever order the calls come.
"""

import copy
import datetime as dt
import random
from bisect import bisect_right

import pytest

import tledger.ledger
from journalgen import prime_journal, random_chart, random_journal, random_transaction
from tledger import (
    AccountPath,
    Amount,
    IncomeReport,
    IntervalError,
    Journal,
    Ledger,
    LedgerError,
    Posting,
    ReconcileRow,
    ReconciliationReport,
    TAccount,
    Transaction,
    UnknownAccountError,
    parse_journal,
)

DAY = dt.timedelta(days=1)
MONTH_ENDS = [dt.date(2020, month, 1) - DAY for month in range(1, 13)] + [dt.date(2020, 12, 31)]
CLOSE = list(zip(MONTH_ENDS, MONTH_ENDS[1:]))


# -- the reference: a full scan per lookup, a TAccount per leaf ----------


def reference_pairs(replay, after, through) -> dict:
    """Every leaf's pair over (after, through] from its history, after the
    window's first error, as the lookup read them before it kept any."""
    for tx, err in replay.faults:
        if tx.date > through:
            break
        if err is not None and (after is None or tx.date > after):
            raise copy.copy(err)
    pairs = {}
    for leaf, (dates, sums) in replay.history.items():
        j = bisect_right(dates, through)
        debit, credit = sums[j - 1] if j else (0, 0)
        if after is None:
            common = min(debit, credit)
            debit, credit = debit - common, credit - common
        elif i := bisect_right(dates, after):
            debit, credit = debit - sums[i - 1][0], credit - sums[i - 1][1]
        pairs[leaf] = (debit, credit)
    return pairs


def reference_taccount(replay, debit: int, credit: int) -> TAccount:
    return TAccount(Amount(debit, replay.scale), Amount(credit, replay.scale))


def reference_view(replay, pairs, as_of=None, interval=None) -> Ledger:
    balances = {leaf: reference_taccount(replay, d, c) for leaf, (d, c) in pairs.items()}
    return Ledger(replay.chart, balances, as_of, interval)


def reference_flow_pairs(replay, start, end) -> dict:
    if start > end:
        raise IntervalError(f"inverted interval: {start} > {end}")
    return reference_pairs(replay, start, end)


def reference(replay, kind: str, args: tuple):
    if kind == "stock_at":
        (cutoff,) = args
        return reference_view(replay, reference_pairs(replay, None, cutoff), as_of=cutoff)
    start, end = args[:2]
    if kind == "flow_between":
        return reference_view(replay, reference_flow_pairs(replay, start, end), interval=args)
    if kind == "reconcile":
        opening = reference_pairs(replay, None, start)
        flow = reference_flow_pairs(replay, start, end)
        closing = reference_pairs(replay, None, end)
        rows = []
        for account in closing:
            (od, oc), (fd, fc), (cd, cc) = opening[account], flow[account], closing[account]
            views = [reference_taccount(replay, *pair) for pair in ((od, oc), (fd, fc), (cd, cc))]
            rows.append(ReconcileRow(account, *views, od + fd + cc == oc + fc + cd))
        return ReconciliationReport(start, end, tuple(rows))
    flow = reference_flow_pairs(replay, start, end)
    rows = []
    for root in args[2]:
        if root not in replay.chart:
            raise UnknownAccountError(f"unknown account {root}")
        debit = sum(d for leaf, (d, _) in flow.items() if root.covers(leaf))
        credit = sum(c for leaf, (_, c) in flow.items() if root.covers(leaf))
        rows.append((root, reference_taccount(replay, debit, credit)))
    total = sum((agg for _, agg in rows), TAccount.zero())
    return IncomeReport(start, end, tuple(rows), total, -total.balance())


# -- the calls ----------------------------------------------------------


def fresh(journal: Journal) -> Journal:
    return Journal(journal.chart, journal.transactions, journal.schedules, journal.basis)


def roots(journal: Journal) -> tuple[AccountPath, ...]:
    return tuple(path for path in journal.expand()[0].nodes if path.parent is None)


def close_calls(journal: Journal) -> list[tuple[str, tuple]]:
    calls, top = [], roots(journal)
    for first, last in CLOSE:
        calls += [("stock_at", (last,)), ("flow_between", (first, last))]
        calls += [("reconcile", (first, last)), ("income_report", (first, last, top))]
    return calls


def probe_dates(journal: Journal) -> list[dt.date]:
    """Transaction dates and the days either side, month-ends, and dates
    well before the first and after the last transaction."""
    dates = {tx.date + k * DAY for tx in journal.expand()[1] for k in (-1, 0, 1)}
    dates |= set(MONTH_ENDS)
    return sorted(dates | {min(dates) - 40 * DAY, max(dates) + 40 * DAY})


def shuffled_calls(journal: Journal, rng: random.Random, count: int) -> list[tuple[str, tuple]]:
    """Calls in no order, with repeats, same-day and inverted windows,
    windows in which nothing moved, and an unknown income root."""
    dates = probe_dates(journal)
    top = roots(journal)
    calls = []
    for _ in range(count):
        start = rng.choice(dates)
        end = rng.choice([start, start + DAY, rng.choice(dates)])
        kind = rng.choice(["stock_at", "flow_between", "reconcile", "income_report"])
        if kind == "stock_at":
            calls.append((kind, (end,)))
        elif kind == "income_report":
            calls.append((kind, (start, end, rng.choice([top, (*top, AccountPath(("x",)))]))))
        else:
            calls.append((kind, (start, end)))
        if rng.random() < 0.3:
            calls.append(calls[rng.randrange(len(calls))])
    return calls


def outcome(call):
    """A call's value and repr, or its error's type, message and span."""
    try:
        value = call()
    except LedgerError as err:
        return type(err), str(err), err.span
    return value, repr(value)


def failing(journal: Journal, rng: random.Random) -> Journal:
    """The journal with an unbalanced and an unknown-account transaction
    in the later half of its dates."""
    chart, txs = journal.expand()
    a, b = chart.leaves()[:2]
    dates = sorted({tx.date for tx in txs})
    one = Amount(1)
    bad = [
        Transaction(rng.choice(dates[len(dates) // 2 :]), "unbalanced",
                    (Posting(a, TAccount.dr(one)), Posting(b, TAccount.cr(Amount(2))))),
        Transaction(rng.choice(dates[len(dates) // 2 :]), "unknown",
                    (Posting(a, TAccount.dr(one)), Posting(AccountPath(("nowhere",)),
                                                           TAccount.cr(one)))),
    ]
    return Journal(journal.chart, (*journal.transactions, *bad), journal.schedules, journal.basis)


def wide_journal(rng: random.Random, accounts: int, transactions: int, busy=None) -> Journal:
    """Transactions over 2020 on the first busy leaves of a random chart (all if None)."""
    chart, leaves = random_chart(rng, accounts)
    days = sorted(rng.randint(0, 365) for _ in range(transactions))
    txs = [random_transaction(rng, leaves[:busy], dt.date(2020, 1, 1) + d * DAY, i)
           for i, d in enumerate(days)]
    return Journal(chart, tuple(txs))


def journals() -> list[tuple[str, Journal]]:
    """Wide journals, whose month windows move few of their leaves; long
    ones, whose windows move more postings than they have leaves; seeded
    generated ones, with a schedule; prime amounts; and failing twins."""
    rng = random.Random(2424)
    out = [("wide", wide_journal(rng, accounts=160, transactions=70)),
           ("long", wide_journal(rng, accounts=12, transactions=150, busy=3))]
    while len(out) < 5:
        journal = random_journal(rng, max_accounts=60, max_transactions=60)
        if journal.schedules or len(out) < 4:
            out.append((f"generated-{len(out)}", journal))
    out.append(("prime", parse_journal(prime_journal(rng, n_tx=30))[0]))
    out += [(f"failing-{name}", failing(journal, rng)) for name, journal in out[::2]]
    return out


JOURNALS = journals()


@pytest.mark.parametrize("name, journal", JOURNALS, ids=[name for name, _ in JOURNALS])
@pytest.mark.parametrize("order", ["close", "reverse", "shuffled"])
def test_views_match_the_full_scan(monkeypatch, name, journal, order):
    window = tledger.ledger._Replay._window
    counted = []
    monkeypatch.setattr(tledger.ledger._Replay, "_window",
                        lambda self, *dates: counted.append(dates) or window(self, *dates))
    journal = fresh(journal)
    replay = fresh(journal)._replay  # read only through the reference
    calls = close_calls(journal)
    if order == "reverse":
        calls.reverse()
    elif order == "shuffled":
        calls = shuffled_calls(journal, random.Random(name), 150)
    for kind, args in calls:
        got = outcome(lambda: getattr(journal, kind)(*args))
        assert got == outcome(lambda: reference(replay, kind, args)), (kind, args)
    # short windows, which the shuffled calls all have, are counted to build on
    assert counted or order != "shuffled"


# -- what a lookup recomputes ---------------------------------------------


def recomputed(monkeypatch, journal: Journal, calls):
    """Each call with the set of leaves it looked up again."""
    replay = journal._replay
    leaf_of = {id(dates): leaf for leaf, (dates, _) in replay.history.items()}
    seen = []

    def counted(a, x, *rest, **key):
        if id(a) in leaf_of:
            seen.append(leaf_of[id(a)])
        return bisect_right(a, x, *rest, **key)

    monkeypatch.setattr(tledger.ledger, "bisect_right", counted)
    for kind, args in calls:
        seen.clear()
        getattr(journal, kind)(*args)
        yield kind, args, set(seen)


def month_calls() -> list[tuple[str, tuple]]:
    """A close's stock, flow and reconcile per month."""
    return [(kind, window[-size:]) for window in CLOSE
            for kind, size in [("stock_at", 1), ("flow_between", 2), ("reconcile", 2)]]


def posted_in(journal: Journal, after: dt.date, through: dt.date) -> set:
    return {p.account for tx in journal.expand()[1] if after < tx.date <= through
            for p in tx.postings}


def test_a_wide_close_recomputes_only_what_moved(monkeypatch):
    journal = wide_journal(random.Random(7), accounts=240, transactions=60)
    leaves = set(journal._replay.history)
    assert len(leaves) > 100
    recomputes = list(recomputed(monkeypatch, journal, month_calls()))
    assert recomputes[0][2] == leaves  # the first lookup reads every leaf
    for month, (first, last) in enumerate(CLOSE):
        for kind, _, leaves_read in recomputes[3 * month + (month == 0) : 3 * month + 3]:
            if kind == "reconcile":  # its opening stock is last month's, or built from it
                want = posted_in(journal, first, last) if month == 0 else set()
            else:
                want = posted_in(journal, first, last)
            assert leaves_read == want, (first, kind)
            assert len(leaves_read) < len(leaves) // 4


def test_a_long_close_reads_every_leaf(monkeypatch):
    """Each month holds more than half as many transactions as there are
    leaves, though on three leaves only: every lookup reads every leaf."""
    journal = wide_journal(random.Random(8), accounts=12, transactions=200, busy=3)
    leaves = set(journal._replay.history)
    assert len(leaves) > 5
    recomputes = list(recomputed(monkeypatch, journal, month_calls()))
    for kind, args, leaves_read in recomputes:
        if kind != "reconcile" or args[0] == MONTH_ENDS[0]:
            assert leaves_read == leaves, (args, kind)


def test_a_burst_is_counted_and_read_whole(monkeypatch):
    """A week holding most of the transactions looks quiet to the guess
    from an even spread; the count finds it busy, and it is read whole."""
    rng = random.Random(9)
    chart, leaves = random_chart(rng, 12)
    days = [0, 365] + [152 + rng.randint(0, 6) for _ in range(60)]
    txs = [random_transaction(rng, leaves[:3], dt.date(2020, 1, 1) + d * DAY, i)
           for i, d in enumerate(days)]
    journal = Journal(chart, tuple(txs))
    week = dt.date(2020, 5, 31), dt.date(2020, 6, 7)
    assert (week[1] - week[0]).days < journal._replay._reach
    calls = [("stock_at", (week[0],)), ("stock_at", (week[1],)), ("flow_between", week)]
    looked_up = [leaves_read for *_, leaves_read in recomputed(monkeypatch, journal, calls)]
    assert looked_up == [set(journal._replay.history)] * 3
