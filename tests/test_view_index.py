"""The views read one cached replay per journal; a direct fold is the reference.

Journal.stock_at, flow_between and reconcile look their answers up in
the record the journal's single replay keeps. Each test here replays
the same transactions one Ledger.post at a time instead, and requires
the same values, or the same error, for every window it probes.
"""

import datetime as dt
import random
from collections import Counter
from fractions import Fraction

import pytest

import tledger.ledger
from journalgen import random_journal
from oracles import SignedLedgerOracle, brute_flow
from tledger import (
    AccountPath,
    Amount,
    Journal,
    Ledger,
    LedgerError,
    Posting,
    SourceSpan,
    TAccount,
    Transaction,
    parse_journal,
    validate_file,
)

DAY = dt.timedelta(days=1)


def scheduled_journals(seed: int, count: int) -> list[Journal]:
    """Seeded generated journals that carry a schedule, kept small enough
    that every window between their dates can be folded directly."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        journal = random_journal(rng, max_accounts=10, max_transactions=20)
        if journal.schedules:
            out.append(journal)
    return out


JOURNALS = scheduled_journals(4040, 6)


def probe_dates(txs) -> list[dt.date]:
    """Every distinct date, the day before the first and the day after the last."""
    dates = sorted({tx.date for tx in txs})
    return [dates[0] - DAY, *dates, dates[-1] + DAY]


def direct_fold(chart, txs, after: dt.date | None, through: dt.date) -> Ledger:
    """The transactions dated in (after, through], one Ledger.post each."""
    ledger = Ledger.empty(chart)
    for tx in txs:
        if (after is None or tx.date > after) and tx.date <= through:
            ledger = ledger.post(tx)
    return ledger


def reduced(ledger: Ledger) -> dict:
    return {account: entry.reduce() for account, entry in ledger.balances.items()}


def outcome(view):
    """A view's value, or the type, message and span of its error."""
    try:
        return view()
    except LedgerError as err:
        return type(err), str(err), err.span


@pytest.mark.parametrize("journal", JOURNALS, ids=lambda j: f"{len(j.transactions)}tx")
def test_views_match_a_direct_replay(journal):
    chart, txs = journal.expand()
    dates = probe_dates(txs)
    oracle = SignedLedgerOracle(chart.leaves())
    pending = list(txs)
    for cutoff in dates:
        stock = journal.stock_at(cutoff)
        assert stock.as_of == cutoff
        assert stock.balances == reduced(direct_fold(chart, txs, None, cutoff))
        while pending and pending[0].date <= cutoff:
            oracle.apply(pending.pop(0))
        assert {a: t.balance() for a, t in stock.balances.items()} == oracle.balances
    for i, start in enumerate(dates):
        for end in dates[i:]:
            flow = journal.flow_between(start, end)
            assert flow.interval == (start, end)
            assert flow.balances == direct_fold(chart, txs, start, end).balances
            signed = brute_flow(txs, start, end)
            for account, entry in flow.balances.items():
                assert entry.balance() == signed.get(account, Fraction(0))
    for start, end in zip(dates, dates[1:]):
        report = journal.reconcile(start, end)
        assert report.ok
        opening = reduced(direct_fold(chart, txs, None, start))
        moved = direct_fold(chart, txs, start, end).balances
        closing = reduced(direct_fold(chart, txs, None, end))
        assert [(r.account, r.opening, r.flow, r.closing) for r in report.rows] == [
            (a, opening[a], moved[a], closing[a]) for a in sorted(closing)
        ]


def failing_transactions(chart, leaves, date):
    """One transaction per way a replay step fails, each with its own span."""
    interior = next(p for p in chart.nodes if p not in leaves)
    a, b = leaves[0], leaves[-1]

    def bad(line, description, *postings):
        span = SourceSpan("<injected>", line, 1, 10)
        return Transaction(date, description, tuple(postings), span=span)

    def posting(account, entry, line):
        return Posting(account, entry, span=SourceSpan("<injected>", line, 5, 3))

    one = Amount(1)
    return {
        "unbalanced": bad(
            10,
            "lopsided",
            posting(a, TAccount.dr(one), 11),
            posting(b, TAccount.cr(Amount(2, 5)), 12),
        ),
        "interior": bad(
            20,
            "interior",
            posting(a, TAccount.dr(one), 21),
            posting(interior, TAccount.cr(one), 22),
        ),
        "missing": bad(
            30,
            "missing",
            posting(AccountPath(("nowhere",)), TAccount.dr(one), 31),
            posting(b, TAccount.cr(one), 32),
        ),
    }


def injected(journal, *bad) -> Journal:
    return Journal(
        journal.chart, journal.transactions + bad, journal.schedules, journal.basis
    )


def assert_same_outcomes(journal):
    chart, txs = journal.expand()
    dates = probe_dates(txs)
    for cutoff in dates:
        want = outcome(lambda: reduced(direct_fold(chart, txs, None, cutoff)))
        assert outcome(lambda: journal.stock_at(cutoff).balances) == want
    for i, start in enumerate(dates):
        for end in dates[i:]:
            want = outcome(lambda: direct_fold(chart, txs, start, end).balances)
            assert outcome(lambda: journal.flow_between(start, end).balances) == want


@pytest.mark.parametrize("kind", ["unbalanced", "interior", "missing"])
def test_a_failed_step_raises_like_a_direct_replay(kind):
    journal = JOURNALS[0]
    chart, txs = journal.expand()
    dates = sorted({tx.date for tx in txs})
    middle = dates[len(dates) // 2]
    bad = failing_transactions(chart, chart.leaves(), middle)[kind]
    broken = injected(journal, bad)
    assert_same_outcomes(broken)
    # windows that end before it, contain it and start after it all occur
    assert isinstance(outcome(lambda: broken.stock_at(middle)), tuple)
    assert isinstance(outcome(lambda: broken.stock_at(middle - DAY)), Ledger)
    assert isinstance(outcome(lambda: broken.flow_between(middle, dates[-1])), Ledger)


def test_the_earliest_failure_in_a_window_is_raised():
    journal = JOURNALS[1]
    chart, txs = journal.expand()
    dates = sorted({tx.date for tx in txs})
    early, late = dates[len(dates) // 3], dates[2 * len(dates) // 3]
    same_day = failing_transactions(chart, chart.leaves(), early)
    later = failing_transactions(chart, chart.leaves(), late)["missing"]
    broken = injected(journal, later, same_day["interior"], same_day["unbalanced"])
    assert_same_outcomes(broken)
    # on one date, stream order is journal order
    _, message, span = outcome(lambda: broken.stock_at(late))
    assert message.endswith(" is not postable") and span.line == 22
    _, _, span = outcome(lambda: broken.flow_between(early, late))
    assert span.line == 31


def test_validate_file_reports_failures_in_stream_order():
    text = (
        "account a\naccount b\naccount b:c\naccount b:d\n\n"
        '2020-03-01 "late"\n    a dr 2\n    b:c cr 1\n\n'
        '2020-01-01 "early"\n    b dr 1\n    a cr 1\n\n'
        '2020-02-01 "fine"\n    a dr 1\n    b:d cr 1\n'
    )
    report = validate_file(text)
    assert report.status == "invalid"
    assert report.transactions == 1
    assert [(d.message, d.span.line) for d in report.diagnostics] == [
        ("account b is not postable", 11),
        ("unbalanced transaction: residual +1", 6),
    ]


def test_views_are_independent_values(fixture_text):
    journal, _ = parse_journal(fixture_text)
    cutoff, start = dt.date(2021, 6, 30), dt.date(2020, 1, 1)
    stock, flow = journal.stock_at(cutoff), journal.flow_between(start, cutoff)
    want_stock, want_flow = dict(stock.balances), dict(flow.balances)
    cash = AccountPath.parse("assets:cash1")

    stock.balances[cash] = TAccount.dr(Amount(7))
    flow.balances[cash] += TAccount.dr(Amount(3))
    flow.balances[AccountPath.parse("equity:capital")] += TAccount.cr(Amount(3))
    share = journal.stock_at(cutoff).balances[cash]
    journal.stock_at(cutoff).refine(cash, [(cash.child("petty"), share)])

    again = journal.stock_at(cutoff)
    assert again.balances == want_stock
    assert journal.flow_between(start, cutoff).balances == want_flow
    assert again.balances is not journal.stock_at(cutoff).balances
    assert journal.flow_between(start, cutoff).balances is not flow.balances


def test_a_month_end_close_replays_once(monkeypatch):
    [journal] = scheduled_journals(4041, 1)
    _, txs = journal.expand()
    real_step = tledger.ledger._replay_step
    calls = []

    def counted(chart, pairs, tx, values):
        calls.append(tx)
        return real_step(chart, pairs, tx, values)

    monkeypatch.setattr(tledger.ledger, "_replay_step", counted)
    for month in range(1, 13):
        first = dt.date(2020, month, 1) - DAY
        last = dt.date(2020 + month // 12, month % 12 + 1, 1) - DAY
        journal.stock_at(last)
        journal.flow_between(first, last)
        assert journal.reconcile(first, last).ok
    assert calls == list(txs)


def test_the_replay_adds_no_taccounts_or_amounts(monkeypatch):
    j = JOURNALS[2]
    journal = Journal(j.chart, j.transactions, j.schedules, j.basis)  # no replay cached yet
    calls = Counter()
    for owner in (TAccount, Amount):
        real = owner.__add__

        def counted(self, other, real=real, name=owner.__name__):
            calls[name] += 1
            return real(self, other)

        monkeypatch.setattr(owner, "__add__", counted)
    assert journal._replay.posted == len(journal.expand()[1])
    assert calls == Counter()
    report = journal.reconcile(dt.date(2020, 1, 1), dt.date(2020, 6, 30))
    assert report.ok and report.rows
    assert calls == Counter()  # the check runs on the replay's integers
    first, second = list(journal.stock_at(dt.date(2020, 6, 30)).balances.values())[:2]
    first + second  # the counters count
    assert calls["TAccount"] > 0 and calls["Amount"] > 0
