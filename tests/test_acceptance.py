"""Acceptance gate: the end-to-end scenario plus the bulk property suites.

Each test covers one numbered criterion and prints a PASS line with the
observed numbers (visible with pytest -s or -rA). All comparisons are
exact rational equality unless the criterion itself states a bound.
"""

import datetime as dt
import random
import time
from fractions import Fraction

import pytest

from journalgen import random_taccount
from oracles import SignedLedgerOracle
from tledger import (
    AccountPath,
    Amount,
    Chart,
    Journal,
    Ledger,
    Posting,
    ScheduleMode,
    Severity,
    TAccount,
    Transaction,
    build_schedule,
    emit_schedule_transactions,
    net_book_value,
    parse_journal,
    serialize_journal,
)

D = dt.date


def p(text):
    return AccountPath.parse(text)


def frac(text):
    return Amount.parse(text).as_fraction


def scaled_decomposition(journal, cutoff):
    """Reduced nonzero stock terms at cutoff, in fractions of the basis."""
    stock = journal.stock_at(cutoff).scaled(journal.basis.reciprocal())
    return dict(stock.nonzero_items())


def pair(debit="0", credit="0"):
    return TAccount(Amount.parse(debit), Amount.parse(credit))


def test_c1_scenario_reproduction(fixture_text):
    started = time.perf_counter()
    journal, diagnostics = parse_journal(fixture_text)
    assert journal is not None and diagnostics == []

    opening = scaled_decomposition(journal, D(2020, 1, 1))
    assert opening == {
        p("assets:cash"): pair("1"),
        p("liabilities:suppliers"): pair("0", "2/5"),
        p("liabilities:banks"): pair("0", "2/5"),
        p("equity:capital"): pair("0", "1/5"),
    }

    budgeted = scaled_decomposition(journal, D(2020, 1, 2))
    assert budgeted == {
        p("assets:cash1"): pair("1/5"),
        p("assets:cash2"): pair("2/5"),
        p("assets:cash3"): pair("2/5"),
        p("liabilities:suppliers"): pair("0", "2/5"),
        p("liabilities:banks"): pair("0", "2/5"),
        p("equity:capital"): pair("0", "1/5"),
    }

    after_payment = scaled_decomposition(journal, D(2020, 1, 3))
    assert after_payment == {
        p("assets:cash1"): pair("1/5"),
        p("assets:cash3"): pair("2/5"),
        p("liabilities:banks"): pair("0", "2/5"),
        p("equity:capital"): pair("0", "1/5"),
    }

    post_step = scaled_decomposition(journal, D(2020, 1, 4))
    assert post_step == {
        p("assets:cash1"): pair("1/5"),
        p("equity:capital"): pair("0", "1/5"),
        p("assets:machine"): pair("2/5"),
        p("liabilities:banks"): pair("0", "2/5"),
    }

    [schedule] = journal.schedules
    emitted = emit_schedule_transactions(schedule)
    assert len(emitted) == 5
    inverse_basis = journal.basis.reciprocal()
    for tx in emitted:
        moved = tx.postings[0].entry.debit * inverse_basis
        assert moved.as_fraction == Fraction(2, 25)

    final = scaled_decomposition(journal, D(2025, 1, 4))
    assert p("assets:machine") not in final  # fully matched away
    for k in range(1, 6):
        assert final[p(f"expenses:interest:y{k}")] == pair("2/25")

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS — scenario decompositions exact, {elapsed:.3f}s")


def test_c2_dollar_to_fraction_normalization():
    basis = frac("1234567.89")
    bound = Fraction(1, 10**8)
    suppliers_gap = abs(frac("493827.16") / basis - Fraction(2, 5))
    capital_gap = abs(frac("246913.58") / basis - Fraction(1, 5))
    assert suppliers_gap < bound
    assert capital_gap < bound
    print(
        "criterion 2: PASS — cent-rounded fifths within 1e-8"
        f" (gaps {suppliers_gap} and {capital_gap})"
    )


def test_c3_group_law_bulk_suite():
    rng = random.Random(31337)
    started = time.perf_counter()
    accounts = [random_taccount(rng) for _ in range(10_000)]
    zero = TAccount.zero()
    checked = 0
    for i, a in enumerate(accounts):
        b = accounts[(i + 1) % len(accounts)]
        c = accounts[(i + 2) % len(accounts)]
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert (a + a.inverse()).is_zero
        assert a.equivalent(a)
        assert a.equivalent(b) == b.equivalent(a)
        if a.equivalent(b) and b.equivalent(c):
            assert a.equivalent(c)
        reduced = a.reduce()
        assert reduced.reduce() == reduced and reduced.equivalent(a)
        if a.equivalent(b):
            assert (a + c).equivalent(b + c)
        assert (a + b).balance() == a.balance() + b.balance()
        assert a.equivalent(b) == (a.balance() == b.balance())
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 10_000
    assert elapsed < 5.0
    print(f"criterion 3: PASS — 10,000 T-accounts, all laws exact, {elapsed:.2f}s")


def test_c4_double_entry_invariant_fuzz(journal_corpus):
    rng = random.Random(4444)
    flows_checked = 0
    posts_checked = 0
    for journal in journal_corpus:
        chart, txs = journal.expand()
        ledger = Ledger.empty(chart)
        for tx in txs:
            ledger = ledger.post(tx)
            assert ledger.total().is_zero
            posts_checked += 1
        if txs:
            low = min(t.date for t in txs) - dt.timedelta(days=1)
            high = max(t.date for t in txs)
            assert journal.flow_between(low, high).total().is_zero
            mid_a = low + dt.timedelta(days=rng.randint(0, 30))
            mid_b = mid_a + dt.timedelta(days=rng.randint(0, 200))
            assert journal.flow_between(mid_a, mid_b).total().is_zero
            flows_checked += 2
    print(
        "criterion 4: PASS — root zero after each of"
        f" {posts_checked} postings, {flows_checked} flow totals zero"
    )


def test_c5_stock_flow_reconciliation(journal_corpus):
    rng = random.Random(5555)
    pairs = 0
    triples = 0
    for journal in journal_corpus:
        days = sorted(rng.randint(-2, 370) for _ in range(3))
        t0, t1, t2 = (D(2020, 1, 1) + dt.timedelta(days=d) for d in days)

        report = journal.reconcile(t0, t1)
        assert report.ok, report.violations
        pairs += 1

        first = journal.flow_between(t0, t1)
        second = journal.flow_between(t1, t2)
        combined = journal.flow_between(t0, t2)
        for account, total in combined.balances.items():
            assert first.balances[account] + second.balances[account] == total
        triples += 1
    print(
        f"criterion 5: PASS — {pairs} reconciliations and"
        f" {triples} interval-additivity triples, exact"
    )


def test_c6_signed_ledger_oracle_equivalence(journal_corpus):
    boundaries = 0
    for journal in journal_corpus:
        chart, txs = journal.expand()
        ledger = Ledger.empty(chart)
        oracle = SignedLedgerOracle(chart.leaves())
        for tx in txs:
            ledger = ledger.post(tx)
            oracle.apply(tx)
            for account, want in oracle.balances.items():
                assert ledger.balances[account].reduce().balance() == want
            boundaries += 1
    print(
        "criterion 6: PASS — signed oracle agrees at"
        f" {boundaries} transaction boundaries"
    )


def test_c7_parser_round_trip_and_fuzz(
    journal_corpus, fixture_text, contra_fixture_text
):
    for text in (fixture_text, contra_fixture_text, ""):
        journal, diags = parse_journal(text)
        assert journal is not None
        rendered = serialize_journal(journal)
        reparsed, rediags = parse_journal(rendered)
        assert reparsed == journal
        assert [d for d in rediags if d.severity is Severity.ERROR] == []
        assert serialize_journal(reparsed) == rendered

    for journal in journal_corpus[:500]:
        rendered = serialize_journal(journal)
        reparsed, diags = parse_journal(rendered)
        assert reparsed is not None
        assert reparsed == journal
        assert serialize_journal(reparsed) == rendered

    rng = random.Random(7777)
    pool = (
        "abz:_-; \t\"'/.0123456789\n\r"
        "account basis schedule dr cr over yearly from mode "
        "é€世界\U0001f4b0\x00\x07\x7f"
    )
    for _ in range(10_000):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 200)))
        journal, diags = parse_journal(text)
        for d in diags:
            assert d.span.line >= 1 and d.span.column >= 1 and d.span.length >= 1
        if journal is None:
            assert any(d.severity is Severity.ERROR for d in diags)
    print(
        "criterion 7: PASS — 503 round-trips, idempotent serialization,"
        " 10,000 fuzz inputs without crash"
    )


def test_c8_depreciation_mode_equivalence():
    rng = random.Random(8888)
    chart_base = (
        p("assets:machine"),
        p("liabilities:banks"),
        p("expenses:interest"),
    )
    for case in range(100):
        total = Amount(rng.randint(1, 10**6), rng.randint(1, 10**3))
        n = rng.randint(1, 30)
        start = D(2020, 1, 1) + dt.timedelta(days=rng.randint(0, 365))
        chart = Chart.empty().declare_all(list(chart_base))
        opening = Transaction(
            start,
            "acquire",
            (
                Posting(p("assets:machine"), TAccount.dr(total)),
                Posting(p("liabilities:banks"), TAccount.cr(total)),
            ),
        )
        journals = {}
        schedules = {}
        for mode in (ScheduleMode.DIRECT, ScheduleMode.CONTRA):
            schedule = build_schedule(
                p("assets:machine"), p("expenses:interest"), total, n, start, mode
            )
            journals[mode] = Journal(chart, (opening,), (schedule,))
            schedules[mode] = schedule
        boundaries = [start] + [date for date, _ in schedules[ScheduleMode.DIRECT].periods]
        for cutoff in boundaries:
            direct_nbv = net_book_value(
                journals[ScheduleMode.DIRECT].stock_at(cutoff),
                schedules[ScheduleMode.DIRECT],
            )
            contra_nbv = net_book_value(
                journals[ScheduleMode.CONTRA].stock_at(cutoff),
                schedules[ScheduleMode.CONTRA],
            )
            assert direct_nbv == contra_nbv
        assert direct_nbv == TAccount.zero()
    print(
        "criterion 8: PASS — 100 schedules, direct and contra net book"
        " values identical at every boundary, final value zero"
    )
