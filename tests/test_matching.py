"""Matching schedules, and the scenario's settlement and reclassification."""

import datetime as dt
import sys
from fractions import Fraction

import pytest

from journalgen import first_primes

from tledger import (
    AccountPath,
    Amount,
    Chart,
    Journal,
    Ledger,
    MatchingSchedule,
    Posting,
    ScheduleMode,
    TAccount,
    Transaction,
    UnknownAccountError,
    build_schedule,
    contra_account,
    emit_schedule_transactions,
    net_book_value,
    validate_transaction,
)
from tledger.matching import add_years

D = dt.date


def p(text):
    return AccountPath.parse(text)


def amt(text):
    return Amount.parse(str(text))


def dr(account, value):
    return Posting(p(account), TAccount.dr(amt(value)))


def cr(account, value):
    return Posting(p(account), TAccount.cr(amt(value)))


class TestBuildSchedule:
    def test_straight_line_fifths(self):
        schedule = build_schedule(
            p("assets:machine"), p("expenses:interest"), amt("2/5"), 5, D(2020, 1, 4)
        )
        assert [f for _, f in schedule.periods] == [Amount(1, 5)] * 5
        assert [d for d, _ in schedule.periods] == [D(y, 1, 4) for y in range(2021, 2026)]
        emitted = emit_schedule_transactions(schedule)
        assert [t.postings[0].entry.debit for t in emitted] == [amt("2/25")] * 5

    def test_single_period(self):
        schedule = build_schedule(p("a"), p("b"), amt(10), 1, D(2020, 6, 1))
        emitted = emit_schedule_transactions(schedule)
        assert len(emitted) == 1
        assert emitted[0].postings[0].entry.debit == amt(10)

    def test_exact_thirds(self):
        schedule = build_schedule(p("a"), p("b"), amt("1/3"), 3, D(2020, 1, 1))
        for t in emit_schedule_transactions(schedule):
            assert t.postings[0].entry.debit == amt("1/9")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_schedule(p("a"), p("b"), amt(1), 0, D(2020, 1, 1))
        with pytest.raises(ValueError):
            build_schedule(p("a"), p("b"), Amount(0), 3, D(2020, 1, 1))

    def test_custom_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MatchingSchedule(
                p("a"), p("b"), amt(1),
                ((D(2021, 1, 1), Amount(1, 2)), (D(2022, 1, 1), Amount(1, 3))),
            )

    def test_sum_message_is_exact_past_the_limit(self):
        primes = first_primes(1300)
        periods = tuple(
            (D(2021, 1, 1) + dt.timedelta(days=k), Amount(1, q))
            for k, q in enumerate(primes)
        )
        with pytest.raises(ValueError) as raised:
            MatchingSchedule(p("a"), p("b"), amt(1), periods)
        running = sum((Fraction(1, q) for q in primes), Fraction(0))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(running.denominator)) > limit
            assert str(raised.value) == f"schedule fractions must sum to 1, got {running}"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_period_dates_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MatchingSchedule(
                p("a"), p("b"), amt(1),
                ((D(2021, 1, 1), Amount(1, 2)), (D(2021, 1, 1), Amount(1, 2))),
            )

    def test_leap_day_steps_to_feb_28(self):
        assert add_years(D(2020, 2, 29), 1) == D(2021, 2, 28)
        assert add_years(D(2020, 2, 29), 4) == D(2024, 2, 29)


class TestEmission:
    @pytest.fixture
    def machine_journal_parts(self):
        chart = Chart.empty().declare_all(
            [p("assets:machine"), p("liabilities:banks"), p("expenses:interest")]
        )
        opening = Transaction(
            D(2020, 1, 4),
            "machine on credit",
            (dr("assets:machine", "2/5"), cr("liabilities:banks", "2/5")),
        )
        return chart, opening

    def _journal(self, parts, mode):
        chart, opening = parts
        schedule = build_schedule(
            p("assets:machine"), p("expenses:interest"), amt("2/5"), 5, D(2020, 1, 4), mode
        )
        return Journal(chart, (opening,), (schedule,)), schedule

    def test_every_emission_is_balanced(self, machine_journal_parts):
        _, schedule = self._journal(machine_journal_parts, ScheduleMode.DIRECT)
        for t in emit_schedule_transactions(schedule):
            assert validate_transaction(t) is None

    def test_conservation(self, machine_journal_parts):
        _, schedule = self._journal(machine_journal_parts, ScheduleMode.DIRECT)
        moved = Amount(0)
        for t in emit_schedule_transactions(schedule):
            moved = moved + t.postings[0].entry.debit
        assert moved == schedule.total

    def test_direct_mode_derecognizes_source(self, machine_journal_parts):
        journal, _ = self._journal(machine_journal_parts, ScheduleMode.DIRECT)
        assert journal.stock_at(D(2021, 1, 4)).balance(p("assets:machine")) == TAccount.dr(amt("8/25"))
        assert journal.stock_at(D(2025, 1, 4)).balance(p("assets:machine")).is_zero

    def test_contra_mode_keeps_source_and_nets(self, machine_journal_parts):
        journal, schedule = self._journal(machine_journal_parts, ScheduleMode.CONTRA)
        stock = journal.stock_at(D(2025, 1, 4))
        contra = contra_account(p("assets:machine"))
        assert stock.balance(p("assets:machine")) == TAccount.dr(amt("2/5"))
        assert stock.balance(contra) == TAccount.cr(amt("2/5"))
        assert net_book_value(stock, schedule) == TAccount.zero()

    def test_modes_agree_on_net_book_value(self, machine_journal_parts):
        direct_journal, direct = self._journal(machine_journal_parts, ScheduleMode.DIRECT)
        contra_journal, contra = self._journal(machine_journal_parts, ScheduleMode.CONTRA)
        for year in range(2020, 2026):
            cutoff = D(year, 1, 4)
            assert net_book_value(direct_journal.stock_at(cutoff), direct) == net_book_value(
                contra_journal.stock_at(cutoff), contra
            )

    def test_counterpart_children_per_period(self, machine_journal_parts):
        journal, _ = self._journal(machine_journal_parts, ScheduleMode.CONTRA)
        chart, _ = journal.expand()
        assert chart.is_declared(p("expenses:interest:y1"))
        assert chart.is_declared(p("expenses:interest:y5"))
        assert contra_account(p("assets:machine")) == p("assets:accumulated-depreciation")
        assert chart.is_declared(p("assets:accumulated-depreciation"))

    def test_an_undeclared_source_is_not_declared_for_it(self, machine_journal_parts):
        """A direct schedule credits its source, but expand() declares
        only the accounts the schedule makes up: a source the chart
        lacks stays unknown, and the replay fails on it."""
        chart, _ = machine_journal_parts
        chart = Chart.empty().declare_all(
            [path for path in chart.leaves() if path != p("assets:machine")]
        )
        schedule = build_schedule(
            p("assets:machine"), p("expenses:interest"), amt("2/5"), 5, D(2020, 1, 4)
        )
        journal = Journal(chart, (), (schedule,))
        expanded, _ = journal.expand()
        assert p("assets:machine") not in expanded
        assert expanded.is_declared(p("expenses:interest:y1"))
        with pytest.raises(UnknownAccountError):
            journal.stock_at(D(2021, 1, 4))

    def test_shared_and_declared_schedule_accounts_are_declared_once(
        self, machine_journal_parts
    ):
        chart, opening = machine_journal_parts
        chart = chart.declare(p("expenses:interest:y2"))
        schedules = tuple(
            build_schedule(
                p("assets:machine"),
                p("expenses:interest"),
                amt("1/5"),
                n,
                D(2020, 1, 4),
                ScheduleMode.CONTRA,
            )
            for n in (3, 5)
        )
        expanded, txs = Journal(chart, (opening,), schedules).expand()
        want = chart.declare_all(
            [p(f"expenses:interest:y{k}") for k in (1, 3, 4, 5)]
            + [contra_account(p("assets:machine"))]
        )
        assert expanded.nodes == want.nodes
        assert len(txs) == 1 + 3 + 5

    def test_root_zero_through_all_periods(self, machine_journal_parts):
        journal, _ = self._journal(machine_journal_parts, ScheduleMode.DIRECT)
        chart, txs = journal.expand()
        ledger = Ledger.empty(chart)
        for t in txs:
            ledger = ledger.post(t)
            assert ledger.total().is_zero


class TestScenarioWalkthrough:
    def test_refine_complete_reclassify_reaches_final_state(self):
        chart = Chart.empty().declare_all(
            [
                p("assets:cash"),
                p("assets:machine"),
                p("liabilities:suppliers"),
                p("liabilities:banks"),
                p("equity:capital"),
            ]
        )
        ledger = Ledger.empty(chart).post(
            Transaction(
                D(2020, 1, 1),
                "opening",
                (
                    dr("assets:cash", 1),
                    cr("liabilities:suppliers", "2/5"),
                    cr("liabilities:banks", "2/5"),
                    cr("equity:capital", "1/5"),
                ),
            )
        )
        ledger = ledger.refine(
            p("assets:cash"),
            [
                (p("assets:cash:c1"), TAccount.dr(amt("1/5"))),
                (p("assets:cash:c2"), TAccount.dr(amt("2/5"))),
                (p("assets:cash:c3"), TAccount.dr(amt("2/5"))),
            ],
        )
        # Pay the supplier from the cash set aside for it, then spend the
        # cash set aside for the machine on the machine.
        ledger = ledger.post(
            Transaction(
                D(2020, 1, 3),
                "pay supplier",
                (dr("liabilities:suppliers", "2/5"), cr("assets:cash:c2", "2/5")),
            )
        )
        ledger = ledger.post(
            Transaction(
                D(2020, 1, 4),
                "buy machine",
                (dr("assets:machine", "2/5"), cr("assets:cash:c3", "2/5")),
            )
        )
        assert dict(ledger.nonzero_items()) == {
            p("assets:cash:c1"): TAccount.dr(amt("1/5")),
            p("equity:capital"): TAccount.cr(amt("1/5")),
            p("assets:machine"): TAccount.dr(amt("2/5")),
            p("liabilities:banks"): TAccount.cr(amt("2/5")),
        }
        assert ledger.total().is_zero
