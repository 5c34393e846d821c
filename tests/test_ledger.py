"""Transactions, posting, refinement, and the stock/flow derivations.

Expected values for the worked scenario (opening split into fifths,
budget allocation, supplier payment, machine purchase) are stated in
basis units so every assertion is an exact rational comparison.
"""

import datetime as dt
import random
import sys
from fractions import Fraction

import pytest

from journalgen import first_primes, random_journal
from oracles import SignedLedgerOracle, brute_flow
from tledger import (
    AccountPath,
    Amount,
    Chart,
    ChildCollisionError,
    ImbalanceError,
    IntervalError,
    Journal,
    Ledger,
    LedgerError,
    NonLeafPostingError,
    PartitionMismatchError,
    Posting,
    TAccount,
    Transaction,
    UnknownAccountError,
    validate_transaction,
)
from tledger.ledger import _Replay

D = dt.date


def p(text):
    return AccountPath.parse(text)


def amt(text):
    return Amount.parse(str(text))


def dr(account, value):
    return Posting(p(account), TAccount.dr(amt(value)))


def cr(account, value):
    return Posting(p(account), TAccount.cr(amt(value)))


def tx(date, description, *postings):
    return Transaction(date, description, tuple(postings))


SCENARIO_ACCOUNTS = [
    "assets:cash",
    "assets:cash1",
    "assets:cash2",
    "assets:cash3",
    "assets:machine",
    "liabilities:suppliers",
    "liabilities:banks",
    "equity:capital",
]


@pytest.fixture
def scenario_chart():
    return Chart.empty().declare_all([p(a) for a in SCENARIO_ACCOUNTS])


@pytest.fixture
def scenario_journal(scenario_chart):
    """The worked scenario in basis units: opening cash is exactly 1."""
    return Journal(
        scenario_chart,
        (
            tx(
                D(2020, 1, 1),
                "opening",
                dr("assets:cash", 1),
                cr("liabilities:suppliers", "2/5"),
                cr("liabilities:banks", "2/5"),
                cr("equity:capital", "1/5"),
            ),
            tx(
                D(2020, 1, 2),
                "budget allocation",
                dr("assets:cash1", "1/5"),
                dr("assets:cash2", "2/5"),
                dr("assets:cash3", "2/5"),
                cr("assets:cash", 1),
            ),
            tx(
                D(2020, 1, 3),
                "pay suppliers",
                dr("liabilities:suppliers", "2/5"),
                cr("assets:cash2", "2/5"),
            ),
            tx(
                D(2020, 1, 4),
                "buy machine",
                dr("assets:machine", "2/5"),
                cr("assets:cash3", "2/5"),
            ),
        ),
    )


class TestValidateTransaction:
    def test_balanced_pair(self):
        assert validate_transaction(
            tx(D(2020, 1, 3), "pay", dr("liabilities:suppliers", "2/5"), cr("assets:cash2", "2/5"))
        ) is None

    def test_wash_entry(self):
        assert validate_transaction(
            tx(D(2020, 1, 1), "wash", dr("assets:cash", 5), cr("assets:cash", 5))
        ) is None

    def test_imbalance_reports_signed_residual(self):
        with pytest.raises(ImbalanceError) as err:
            validate_transaction(
                tx(D(2020, 1, 1), "bad", dr("assets:machine", "2/5"), cr("liabilities:banks", "1/5"))
            )
        assert err.value.residual == Fraction(1, 5)
        assert str(err.value) == "unbalanced transaction: residual +1/5"

    def test_too_few_postings(self):
        with pytest.raises(LedgerError, match="at least two postings"):
            validate_transaction(Transaction(D(2020, 1, 1), "empty", ()))
        single = Transaction(D(2020, 1, 1), "single", (dr("assets:cash", 0),))
        with pytest.raises(LedgerError, match="at least two postings"):
            validate_transaction(single)

    def test_posting_requires_single_sided_entry(self):
        with pytest.raises(ValueError):
            Posting(p("assets:cash"), TAccount(Amount(2), Amount(1)))


class TestPost:
    def test_supplier_payment_cancels_pair(self, scenario_journal):
        stock = scenario_journal.stock_at(D(2020, 1, 3))
        assert stock.balance(p("assets:cash2")).is_zero
        assert stock.balance(p("liabilities:suppliers")).is_zero
        visible = dict(stock.nonzero_items())
        assert p("assets:cash2") not in visible
        assert p("liabilities:suppliers") not in visible

    def test_zero_entries_do_not_change_state(self, scenario_chart):
        ledger = Ledger.empty(scenario_chart)
        out = ledger.post(tx(D(2020, 1, 1), "noop", dr("assets:cash", 0), cr("assets:cash", 0)))
        assert out.balances == ledger.balances

    def test_reclassification(self, scenario_journal):
        stock = scenario_journal.stock_at(D(2020, 1, 4))
        assert stock.balance(p("assets:cash3")).is_zero
        assert stock.balance(p("assets:machine")) == TAccount.dr(amt("2/5"))

    def test_unknown_account(self, scenario_chart):
        ledger = Ledger.empty(scenario_chart)
        with pytest.raises(UnknownAccountError):
            ledger.post(tx(D(2020, 1, 1), "bad", dr("assets:gold", 1), cr("assets:cash", 1)))

    def test_non_leaf_posting(self, scenario_chart):
        ledger = Ledger.empty(scenario_chart)
        with pytest.raises(NonLeafPostingError):
            ledger.post(tx(D(2020, 1, 1), "bad", dr("assets", 1), cr("assets:cash", 1)))

    def test_imbalanced_rejected(self, scenario_chart):
        ledger = Ledger.empty(scenario_chart)
        with pytest.raises(ImbalanceError):
            ledger.post(tx(D(2020, 1, 1), "bad", dr("assets:cash", 2), cr("equity:capital", 1)))

    def test_failed_post_leaves_no_partial_state(self, scenario_chart):
        ledger = Ledger.empty(scenario_chart).post(
            tx(D(2020, 1, 1), "open", dr("assets:cash", 1), cr("equity:capital", 1))
        )
        before = dict(ledger.balances)
        bad = tx(D(2020, 1, 2), "bad", dr("assets:cash1", 1), cr("assets", 1))
        with pytest.raises(NonLeafPostingError):
            ledger.post(bad)
        assert ledger.balances == before

    def test_root_zero_after_every_post(self, scenario_journal):
        chart, txs = scenario_journal.expand()
        ledger = Ledger.empty(chart)
        for t in txs:
            ledger = ledger.post(t)
            assert ledger.total().is_zero


class TestAggregate:
    def test_root_side_aggregation(self, scenario_journal):
        stock = scenario_journal.stock_at(D(2020, 1, 1))
        claims = stock.aggregate(p("liabilities")) + stock.aggregate(p("equity"))
        assert claims == TAccount.cr(amt(1))

    def test_leaf_aggregates_to_itself(self, scenario_journal):
        stock = scenario_journal.stock_at(D(2020, 1, 1))
        assert stock.aggregate(p("assets:cash")) == stock.balance(p("assets:cash"))

    def test_total_is_zero_representative(self, scenario_journal):
        for day in range(1, 5):
            assert scenario_journal.stock_at(D(2020, 1, day)).total().is_zero

    def test_aggregation_is_compositional(self, scenario_journal):
        stock = scenario_journal.stock_at(D(2020, 1, 2))
        whole = stock.aggregate(p("assets"))
        by_children = TAccount.zero()
        for child in stock.chart.children(p("assets")):
            by_children = by_children + stock.aggregate(child)
        assert whole == by_children

    def test_unknown_account(self, scenario_journal):
        with pytest.raises(UnknownAccountError):
            scenario_journal.stock_at(D(2020, 1, 1)).aggregate(p("nope"))


class TestRefine:
    def test_split_claims_side(self):
        chart = Chart.empty().declare_all([p("assets:cash"), p("claims")])
        ledger = Ledger.empty(chart).post(
            tx(D(2020, 1, 1), "opening", dr("assets:cash", 1), cr("claims", 1))
        )
        before = ledger.aggregate(p("claims"))
        refined = ledger.refine(
            p("claims"),
            [
                (p("claims:suppliers"), TAccount.cr(amt("2/5"))),
                (p("claims:banks"), TAccount.cr(amt("2/5"))),
                (p("claims:capital"), TAccount.cr(amt("1/5"))),
            ],
        )
        assert refined.aggregate(p("claims")) == before
        assert refined.total().is_zero
        assert refined.balance(p("claims:capital")) == TAccount.cr(amt("1/5"))
        with pytest.raises(NonLeafPostingError):
            refined.balance(p("claims"))

    def test_budget_allocation_by_use(self):
        chart = Chart.empty().declare_all([p("cash"), p("claims")])
        ledger = Ledger.empty(chart).post(
            tx(D(2020, 1, 1), "opening", dr("cash", 1), cr("claims", 1))
        )
        refined = ledger.refine(
            p("cash"),
            [
                (p("cash:c1"), TAccount.dr(amt("1/5"))),
                (p("cash:c2"), TAccount.dr(amt("2/5"))),
                (p("cash:c3"), TAccount.dr(amt("2/5"))),
            ],
        )
        assert refined.aggregate(p("cash")) == TAccount.dr(amt(1))
        assert refined.total().is_zero

    def test_single_child_is_a_rename(self):
        chart = Chart.empty().declare_all([p("cash"), p("claims")])
        ledger = Ledger.empty(chart).post(
            tx(D(2020, 1, 1), "opening", dr("cash", 3), cr("claims", 3))
        )
        refined = ledger.refine(p("cash"), [(p("cash:till"), TAccount.dr(amt(3)))])
        assert refined.balance(p("cash:till")) == TAccount.dr(amt(3))
        assert refined.aggregate(p("cash")) == TAccount.dr(amt(3))

    def test_partition_mismatch_reports_residual(self):
        chart = Chart.empty().declare_all([p("cash"), p("claims")])
        ledger = Ledger.empty(chart).post(
            tx(D(2020, 1, 1), "opening", dr("cash", 1), cr("claims", 1))
        )
        with pytest.raises(PartitionMismatchError) as err:
            ledger.refine(
                p("cash"),
                [
                    (p("cash:c1"), TAccount.dr(amt("1/5"))),
                    (p("cash:c2"), TAccount.dr(amt("2/5"))),
                ],
            )
        assert err.value.residual == Fraction(-2, 5)
        assert str(err.value).endswith("(signed residual -2/5)")

    def test_child_collision(self):
        chart = Chart.empty().declare_all([p("cash"), p("cash2"), p("claims")])
        ledger = Ledger.empty(chart).post(
            tx(D(2020, 1, 1), "opening", dr("cash", 1), cr("claims", 1))
        )
        with pytest.raises(ChildCollisionError):
            ledger.refine(
                p("cash"),
                [
                    (p("cash:a"), TAccount.dr(amt("1/2"))),
                    (p("cash:a"), TAccount.dr(amt("1/2"))),
                ],
            )

    def test_child_must_sit_under_parent(self):
        chart = Chart.empty().declare_all([p("cash"), p("claims")])
        ledger = Ledger.empty(chart).post(
            tx(D(2020, 1, 1), "opening", dr("cash", 1), cr("claims", 1))
        )
        with pytest.raises(ValueError):
            ledger.refine(p("cash"), [(p("elsewhere:c1"), TAccount.dr(amt(1)))])

    def test_ancestor_aggregates_unchanged(self):
        chart = Chart.empty().declare_all([p("assets:current:cash"), p("claims")])
        ledger = Ledger.empty(chart).post(
            tx(D(2020, 1, 1), "opening", dr("assets:current:cash", 7), cr("claims", 7))
        )
        before = {
            path: ledger.aggregate(path)
            for path in (p("assets"), p("assets:current"))
        }
        refined = ledger.refine(
            p("assets:current:cash"),
            [
                (p("assets:current:cash:till"), TAccount.dr(amt(2))),
                (p("assets:current:cash:vault"), TAccount.dr(amt(5))),
            ],
        )
        for path, value in before.items():
            assert refined.aggregate(path) == value


class TestPastTheIntStringLimit:
    """Text for a stock whose terms run past the int-string limit."""

    def test_refine_mismatch_and_pair_text_are_exact(self):
        primes = first_primes(1300)
        chart = Chart.empty().declare_all([p("a"), p("b")])
        txs = tuple(
            Transaction(
                D(2020, 1, 1),
                f"t{i}",
                (
                    Posting(p("a"), TAccount.dr(Amount(1, q))),
                    Posting(p("b"), TAccount.cr(Amount(1, q))),
                ),
            )
            for i, q in enumerate(primes)
        )
        stock = Journal(chart, txs).stock_at(D(2020, 1, 1))
        want = sum((Fraction(1, q) for q in primes), Fraction(0))
        limit = sys.get_int_max_str_digits()
        entry = stock.balances[p("a")]
        text, rep = str(entry), repr(entry.debit)
        with pytest.raises(PartitionMismatchError) as raised:
            stock.refine(p("a"), [(p("a:x"), TAccount.dr(amt(1)))])
        assert raised.value.residual == 1 - want < 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(want.denominator)) > limit
            assert text == f"({want}, 0)"
            assert rep == f"Amount({want.numerator}, {want.denominator})"
            assert str(raised.value) == (
                f"shares sum to (1, 0), parent holds ({want}, 0)"
                f" (signed residual {1 - want})"
            )
        finally:
            sys.set_int_max_str_digits(limit)


class TestReplayTAccount:
    """_Replay.taccount against the checked constructor it stands in for."""

    @staticmethod
    def taccount(debit, credit, scale):
        replay = _Replay(Chart.empty(), scale, 0, (), {})
        return replay.taccount(debit, credit)

    def test_random_pairs_equal_checked_amounts(self):
        rng = random.Random(31337)
        big = int("7" * 4000)
        for _ in range(300):
            scale = rng.choice([1, rng.randint(1, 10**6), big])
            debit, credit = (
                rng.choice([0, rng.randint(1, 10**9), rng.randint(1, big)])
                for _ in range(2)
            )
            want = TAccount(Amount(debit, scale), Amount(credit, scale))
            got = self.taccount(debit, credit, scale)
            assert got == want
            for side, checked in ((got.debit, want.debit), (got.credit, want.credit)):
                assert (side.numerator, side.denominator) == (
                    checked.numerator,
                    checked.denominator,
                )

    @pytest.mark.parametrize("debit, credit", [(-3, 0), (0, -3), (5, -6)])
    def test_negative_side_raises_the_checked_text(self, debit, credit):
        scale = int("9" * 4000)
        with pytest.raises(ValueError) as checked:
            TAccount(Amount(debit, scale), Amount(credit, scale))
        with pytest.raises(ValueError) as raised:
            self.taccount(debit, credit, scale)
        assert str(raised.value) == str(checked.value)


class TestStockAt:
    def test_opening_decomposition(self, scenario_journal):
        stock = scenario_journal.stock_at(D(2020, 1, 1))
        assert dict(stock.nonzero_items()) == {
            p("assets:cash"): TAccount.dr(amt(1)),
            p("liabilities:suppliers"): TAccount.cr(amt("2/5")),
            p("liabilities:banks"): TAccount.cr(amt("2/5")),
            p("equity:capital"): TAccount.cr(amt("1/5")),
        }

    def test_final_decomposition(self, scenario_journal):
        stock = scenario_journal.stock_at(D(2020, 1, 4))
        assert dict(stock.nonzero_items()) == {
            p("assets:cash1"): TAccount.dr(amt("1/5")),
            p("equity:capital"): TAccount.cr(amt("1/5")),
            p("assets:machine"): TAccount.dr(amt("2/5")),
            p("liabilities:banks"): TAccount.cr(amt("2/5")),
        }

    def test_empty_journal_all_zero(self, scenario_chart):
        stock = Journal(scenario_chart).stock_at(D(2020, 1, 1))
        assert all(v == TAccount.zero() for v in stock.balances.values())
        assert len(stock.balances) == len(scenario_chart.leaves())

    def test_cutoff_is_inclusive(self, scenario_journal):
        assert scenario_journal.stock_at(D(2020, 1, 2)).balance(
            p("assets:cash1")
        ) == TAccount.dr(amt("1/5"))

    def test_balances_come_back_reduced(self, scenario_journal):
        stock = scenario_journal.stock_at(D(2020, 1, 4))
        assert all(v.is_canonical for v in stock.balances.values())


class TestFlowBetween:
    def test_supplier_payment_interval(self, scenario_journal):
        flow = scenario_journal.flow_between(D(2020, 1, 2), D(2020, 1, 3))
        assert flow.balance(p("assets:cash2")) == TAccount.cr(amt("2/5"))
        assert flow.balance(p("liabilities:suppliers")) == TAccount.dr(amt("2/5"))
        assert flow.total() == TAccount(amt("2/5"), amt("2/5"))
        assert flow.total().is_zero

    def test_empty_interval(self, scenario_journal):
        flow = scenario_journal.flow_between(D(2020, 1, 2), D(2020, 1, 2))
        assert all(v == TAccount.zero() for v in flow.balances.values())

    def test_whole_span_totals_to_zero(self, scenario_journal):
        flow = scenario_journal.flow_between(D(2019, 12, 31), D(2020, 1, 4))
        assert flow.total().is_zero
        oracle = brute_flow(list(scenario_journal.transactions), D(2019, 12, 31), D(2020, 1, 4))
        for account, net in oracle.items():
            assert flow.balance(account).balance() == net

    def test_inverted_interval(self, scenario_journal):
        with pytest.raises(IntervalError):
            scenario_journal.flow_between(D(2020, 1, 4), D(2020, 1, 1))

    def test_unbalanced_transaction_rejected_like_stock_at(self):
        from tledger import parse_journal

        journal, _ = parse_journal(
            "account a\naccount b\n\n"
            '2020-01-01 "open"\n    a dr 1\n    b cr 1\n\n'
            '2020-01-02 "lopsided"\n    a dr 2\n    b cr 1\n'
        )
        with pytest.raises(ImbalanceError) as flow_err:
            journal.flow_between(D(2020, 1, 1), D(2020, 1, 2))
        with pytest.raises(ImbalanceError) as stock_err:
            journal.stock_at(D(2020, 1, 2))
        assert flow_err.value.span == stock_err.value.span
        assert flow_err.value.span.line == 8  # the header of "lopsided"
        # outside the interval the transaction is not replayed
        assert journal.flow_between(D(2019, 12, 31), D(2020, 1, 1)).total().is_zero

    def test_interval_additivity(self, scenario_journal):
        t0, t1, t2 = D(2019, 12, 31), D(2020, 1, 2), D(2020, 1, 4)
        first = scenario_journal.flow_between(t0, t1)
        second = scenario_journal.flow_between(t1, t2)
        combined = scenario_journal.flow_between(t0, t2)
        for account in combined.balances:
            assert first.balance(account) + second.balance(account) == combined.balance(account)


class TestReconcile:
    def test_scenario_reconciles_exactly(self, scenario_journal):
        report = scenario_journal.reconcile(D(2020, 1, 1), D(2020, 1, 4))
        assert report.ok
        assert not report.violations

    def test_empty_interval_stock_equality(self, scenario_journal):
        report = scenario_journal.reconcile(D(2020, 1, 2), D(2020, 1, 2))
        assert report.ok
        for row in report.rows:
            assert row.opening == row.closing


class TestIncomeReport:
    @pytest.fixture
    def trading_journal(self):
        chart = Chart.empty().declare_all(
            [p("assets:cash"), p("sales"), p("cogs"), p("expenses:rent")]
        )
        return Journal(
            chart,
            (
                tx(D(2020, 2, 1), "sell", dr("assets:cash", 10), cr("sales", 10)),
                tx(D(2020, 2, 2), "cost of goods", dr("cogs", 6), cr("assets:cash", 6)),
                tx(D(2020, 2, 3), "rent", dr("expenses:rent", 2), cr("assets:cash", 2)),
            ),
        )

    def test_net_income_credit_positive(self, trading_journal):
        report = trading_journal.income_report(
            D(2020, 1, 31), D(2020, 2, 28), [p("sales"), p("cogs"), p("expenses")]
        )
        assert report.total == TAccount(amt(8), amt(10))
        assert report.net_income == Fraction(2)

    def test_no_activity_means_zero(self, trading_journal):
        report = trading_journal.income_report(
            D(2020, 3, 1), D(2020, 3, 31), [p("sales")]
        )
        assert report.net_income == 0

    def test_unknown_root(self, trading_journal):
        with pytest.raises(UnknownAccountError):
            trading_journal.income_report(D(2020, 1, 31), D(2020, 2, 28), [p("revenue")])


class TestOrderingAndOracle:
    def test_same_day_posting_order_is_irrelevant(self, scenario_chart):
        day = D(2020, 3, 1)
        txs = [
            tx(day, "one", dr("assets:cash", 5), cr("equity:capital", 5)),
            tx(day, "two", dr("assets:machine", 2), cr("assets:cash", 2)),
            tx(day, "three", dr("assets:cash1", 1), cr("assets:cash", 1)),
        ]
        forward = Journal(scenario_chart, tuple(txs)).stock_at(day)
        backward = Journal(scenario_chart, tuple(reversed(txs))).stock_at(day)
        assert forward.balances == backward.balances

    def test_signed_oracle_agrees_on_random_journals(self):
        rng = random.Random(77)
        for _ in range(25):
            journal = random_journal(rng, max_accounts=12, max_transactions=30)
            chart, txs = journal.expand()
            ledger = Ledger.empty(chart)
            oracle = SignedLedgerOracle(chart.leaves())
            for t in txs:
                ledger = ledger.post(t)
                oracle.apply(t)
                for account, want in oracle.balances.items():
                    got = ledger.balance(account).reduce().balance()
                    assert got == want


class TestFixtureIncome:
    def test_first_matching_period_is_a_net_cost(self, fixture_text):
        from tledger import parse_journal

        journal, _ = parse_journal(fixture_text)
        report = journal.income_report(
            D(2020, 1, 4), D(2021, 1, 4), [p("expenses")]
        )
        scaled = report.net_income / journal.basis.as_fraction
        assert scaled == Fraction(-2, 25)

    def test_no_nominal_activity_before_first_period(self, fixture_text):
        from tledger import parse_journal

        journal, _ = parse_journal(fixture_text)
        report = journal.income_report(
            D(2020, 1, 4), D(2020, 12, 31), [p("expenses")]
        )
        assert report.net_income == 0


class TestJournalOrdering:
    def test_transactions_sorted_stably_by_date(self, scenario_chart):
        a = tx(D(2020, 1, 2), "second", dr("assets:cash", 1), cr("equity:capital", 1))
        b = tx(D(2020, 1, 1), "first", dr("assets:cash", 1), cr("equity:capital", 1))
        c = tx(D(2020, 1, 2), "third", dr("assets:cash", 1), cr("equity:capital", 1))
        journal = Journal(scenario_chart, (a, b, c))
        assert [t.description for t in journal.transactions] == ["first", "second", "third"]

    def test_empty_transaction_rejected_on_post(self, scenario_chart):
        ledger = Ledger.empty(scenario_chart)
        with pytest.raises(LedgerError):
            ledger.post(Transaction(D(2020, 1, 1), "nothing", ()))
