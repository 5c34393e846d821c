"""A journal's recent lookups and their TAccounts against fresh journals.

A journal's replay keeps its last few stock and flow lookups, keyed by
their dates, with the TAccounts built for them, and every zero pair is
the one shared zero TAccount. The reference is a fresh Journal per call,
which starts with no replay, no lookup and no TAccount made: every
stock_at, flow_between, reconcile and income_report of one long-lived
journal must be == to the fresh journal's, with the same repr, or raise
the same error, whatever order the calls come in.
"""

import datetime as dt
import operator
import random
import sys
import threading

import pytest

import tledger.ledger
from journalgen import prime_journal, random_journal
from tledger import (
    AccountPath,
    Amount,
    Journal,
    LedgerError,
    Posting,
    TAccount,
    Transaction,
    parse_journal,
)

DAY = dt.timedelta(days=1)
MONTH_ENDS = [dt.date(2020, month, 1) - DAY for month in range(1, 13)] + [dt.date(2020, 12, 31)]
CLOSE = list(zip(MONTH_ENDS, MONTH_ENDS[1:]))


def fresh(journal: Journal) -> Journal:
    """The same journal with nothing derived or cached yet."""
    return Journal(journal.chart, journal.transactions, journal.schedules, journal.basis)


def roots(journal: Journal) -> tuple[AccountPath, ...]:
    return tuple(path for path in journal.expand()[0].nodes if path.parent is None)


def outcome(journal: Journal, kind: str, args: tuple):
    """A call's value and repr, or its error's type, message and span."""
    try:
        value = getattr(journal, kind)(*args)
    except LedgerError as err:
        return type(err), str(err), err.span
    return value, repr(value)


def close_calls(journal: Journal) -> list[tuple[str, tuple]]:
    """A month-end close in the order a close makes its calls."""
    calls, top = [], roots(journal)
    for first, last in CLOSE:
        calls += [("stock_at", (last,)), ("flow_between", (first, last))]
        calls += [("reconcile", (first, last)), ("income_report", (first, last, top))]
    return calls


def shuffled_calls(journal: Journal, rng: random.Random, count: int) -> list[tuple[str, tuple]]:
    """Calls on transaction dates and month-ends in no order, with repeats,
    inverted windows and an income_report over an unknown root."""
    dates = sorted({tx.date for tx in journal.expand()[1]} | set(MONTH_ENDS))
    top = roots(journal)
    unknown = (*top, AccountPath(("nowhere",)))
    calls = []
    for _ in range(count):
        start, end = rng.choice(dates), rng.choice(dates)
        kind = rng.choice(["stock_at", "flow_between", "reconcile", "income_report"])
        if kind == "stock_at":
            calls.append((kind, (end,)))
        elif kind == "income_report":
            calls.append((kind, (start, end, rng.choice([top, unknown]))))
        else:
            calls.append((kind, (start, end)))
        if rng.random() < 0.3:
            calls.append(calls[rng.randrange(len(calls))])
    return calls


def seeded_journals() -> list[Journal]:
    rng = random.Random(2207)
    out = [random_journal(rng, max_accounts=30, max_transactions=80) for _ in range(5)]
    out.append(parse_journal(prime_journal(rng))[0])
    return out


JOURNALS = seeded_journals()


def failing(journal: Journal) -> Journal:
    """The journal with one unbalanced transaction on its middle date."""
    chart, txs = journal.expand()
    a, b = chart.leaves()[:2]
    date = sorted({tx.date for tx in txs})[len(txs) // 2]
    postings = (Posting(a, TAccount.dr(Amount(1))), Posting(b, TAccount.cr(Amount(2))))
    bad = Transaction(date, "unbalanced", postings)
    return Journal(journal.chart, (*journal.transactions, bad), journal.schedules, journal.basis)


def bounded(journal: Journal) -> None:
    assert len(journal._replay._recent) <= tledger.ledger._RECENT


@pytest.mark.parametrize("index", range(len(JOURNALS)))
@pytest.mark.parametrize("order", ["close", "close twice", "shuffled"])
def test_views_match_a_fresh_journal_per_call(index, order):
    journal = fresh(JOURNALS[index])
    calls = close_calls(journal)
    if order == "close twice":
        calls += calls
    elif order == "shuffled":
        calls = shuffled_calls(journal, random.Random(index), 120)
    for kind, args in calls:
        assert outcome(journal, kind, args) == outcome(fresh(journal), kind, args), (kind, args)
        bounded(journal)


@pytest.mark.parametrize("index", [0, len(JOURNALS) - 1])
def test_a_failing_window_raises_on_every_repeat(index):
    journal = failing(fresh(JOURNALS[index]))
    calls = close_calls(journal) + shuffled_calls(journal, random.Random(index), 60)
    raised = 0
    for kind, args in calls + calls:
        got = outcome(journal, kind, args)
        assert got == outcome(fresh(journal), kind, args), (kind, args)
        if isinstance(got[0], type):
            raised += 1
            # a failed lookup keeps nothing: every window kept looks up cleanly
            for window, pairs, _ in journal._replay._recent:
                assert fresh(journal)._replay.pairs(*window) == pairs
    assert raised > 20


def test_the_caches_stay_bounded_over_200_views():
    journal = fresh(JOURNALS[-1])
    calls = close_calls(journal) + shuffled_calls(journal, random.Random(5), 200)
    for kind, args in calls[:200]:
        outcome(journal, kind, args)
        bounded(journal)


def test_a_close_makes_two_lookups_a_month_and_builds_a_pair_once(monkeypatch):
    journal = fresh(JOURNALS[0])
    replay = journal._replay
    lookups = []
    real = tledger.ledger._Replay.raise_first

    def counted(self, after, through):  # called once by every lookup the cache misses
        lookups.append((after, through))
        return real(self, after, through)

    monkeypatch.setattr(tledger.ledger._Replay, "raise_first", counted)
    for first, last in CLOSE:
        stock = journal.stock_at(last)
        journal.flow_between(first, last)
        report = journal.reconcile(first, last)
        closing = [row.closing for row in report.rows]
        assert closing == list(stock.balances.values())
        assert all(map(operator.is_, closing, stock.balances.values()))
    # The first month looks up its stock, its flow and its opening stock.
    # Every later month looks up only its stock: the stock keeps the flow
    # it summed since the month before's, which is the opening stock.
    assert len(lookups) == len(CLOSE) + 2
    assert len(replay._recent) == tledger.ledger._RECENT


def test_four_threads_get_the_serial_results():
    journal = JOURNALS[-1]
    calls = close_calls(journal) + shuffled_calls(journal, random.Random(11), 80)
    serial = [outcome(fresh(journal), kind, args) for kind, args in calls]
    shared = fresh(journal)
    results, errors = {}, []

    def derive(name, order):
        try:
            results[name] = {i: outcome(shared, *calls[i]) for i in order}
        except Exception as err:  # reported below, not lost in the thread
            errors.append(err)

    threads = []
    for k in range(4):
        order = list(range(len(calls)))
        random.Random(k).shuffle(order)
        threads.append(threading.Thread(target=derive, args=(k, order)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for got in results.values():
        assert [got[i] for i in range(len(calls))] == serial


@pytest.mark.parametrize("index", [0, len(JOURNALS) - 1])
def test_a_handed_out_view_is_the_callers_own(index):
    """Assigning, deleting and clearing a view's balances changes nothing
    that a later call on the journal returns."""
    journal = fresh(JOURNALS[index])
    calls = close_calls(journal)
    want = [outcome(fresh(journal), kind, args) for kind, args in calls]
    other = TAccount.dr(Amount(1, 7))
    edits = [
        lambda balances: balances.__setitem__(next(iter(balances)), other),
        lambda balances: balances.__delitem__(next(reversed(balances))),
        lambda balances: balances.clear(),
    ]
    for month, (first, last) in enumerate(CLOSE):
        edit = edits[month % len(edits)]
        edit(journal.stock_at(last).balances)
        edit(journal.flow_between(first, last).balances)
        got = [outcome(journal, kind, args) for kind, args in calls]
        assert got == want, (first, last)
