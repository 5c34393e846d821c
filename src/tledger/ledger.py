"""Dated transactions and the views derived from them.

A transaction is a set of postings whose entries sum to a zero pair:
that is the double-entry principle, and it is what keeps the whole tree
balanced after every posting. The same postings can be read two ways:
summed up to a cutoff date they give a stock view (a balance sheet),
summed over an interval they give a flow view. Because each transaction
is itself a zero pair, a stock at one date plus the flow since then
reconciles exactly with the stock at any later date.

A journal replays its transactions once, on its first view, and keeps
each leaf's cumulative pair at every date it moved on. Every view then
reads that record: a stock is a lookup at the cutoff, a flow the
difference of two lookups, as the identity above allows.

Journals and ledgers are immutable; every operation returns a new value,
so derivations may run concurrently over the same journal.
"""

from __future__ import annotations

import copy
import datetime as dt
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .algebra import Amount, TAccount, _signed
from .chart import AccountPath, Chart
from .errors import (
    ChildCollisionError,
    ImbalanceError,
    IntervalError,
    LedgerError,
    NonLeafPostingError,
    PartitionMismatchError,
    UnknownAccountError,
)

if TYPE_CHECKING:
    from .diagnostics import SourceSpan
    from .matching import MatchingSchedule

__all__ = [
    "Posting",
    "Transaction",
    "Journal",
    "Ledger",
    "ReconcileRow",
    "ReconciliationReport",
    "IncomeReport",
    "validate_transaction",
]


@dataclass(frozen=True, slots=True)
class Posting:
    """One account's share of a transaction: a single-sided entry.

    The entry must be canonical — a pure debit, a pure credit, or the
    zero pair. General two-sided pairs appear only in computed states.
    """

    account: AccountPath
    entry: TAccount
    span: "SourceSpan | None" = field(default=None, compare=False)

    def __post_init__(self):
        if not self.entry.is_canonical:
            raise ValueError(
                f"posting entry must be a pure debit or credit, got {self.entry}"
            )


@dataclass(frozen=True, slots=True)
class Transaction:
    """A dated, described list of postings.

    Validity (at least two postings summing to a zero pair) is checked
    by validate_transaction, not at construction, so that parsed but
    broken transactions can still be reported with their location.
    """

    date: dt.date
    description: str
    postings: tuple[Posting, ...]
    span: "SourceSpan | None" = field(default=None, compare=False)

    def total(self) -> TAccount:
        out = TAccount.zero()
        for p in self.postings:
            out = out + p.entry
        return out


def validate_transaction(tx: Transaction) -> None:
    """Check the double-entry rule: postings must sum to a zero pair.

    Raises ImbalanceError, carrying the signed residual (debit minus
    credit of the sum), when the transaction does not balance, and
    LedgerError when it has fewer than two postings. Both errors carry
    the transaction's span.
    """
    if len(tx.postings) < 2:
        raise LedgerError("transaction requires at least two postings", span=tx.span)
    total = tx.total()
    if not total.is_zero:
        residual = total.balance()
        raise ImbalanceError(
            f"unbalanced transaction: residual {_signed(residual)}",
            residual,
            span=tx.span,
        )


@dataclass(frozen=True)
class Ledger:
    """Per-account T-account state over a fixed chart.

    balances maps every postable leaf to its T-account. Posting
    accumulates raw pairs; stock views hand back reduced copies. A
    ledger remembers which view produced it (a cutoff date or an
    interval), if any.
    """

    chart: Chart
    balances: dict[AccountPath, TAccount]
    as_of: dt.date | None = None
    interval: tuple[dt.date, dt.date] | None = None

    @classmethod
    def empty(cls, chart: Chart) -> Ledger:
        return cls(chart, {leaf: TAccount.zero() for leaf in chart.leaves()})

    def balance(self, account: AccountPath) -> TAccount:
        return self.balances[self._resolve(account)]

    def _resolve(self, account: AccountPath, span=None) -> AccountPath:
        """account itself if it is a postable leaf here, else the error."""
        if account in self.balances:
            return account
        if account in self.chart:
            raise NonLeafPostingError(f"account {account} is not postable", span=span)
        raise UnknownAccountError(f"unknown account {account}", span=span)

    def post(self, tx: Transaction) -> Ledger:
        """A new ledger with one balanced transaction folded in."""
        ledger = replace(self, balances=dict(self.balances))
        ledger._apply(tx)
        return ledger

    def _apply(self, tx: Transaction) -> None:
        """The replay step: validate tx, resolve every posting, then add
        each entry componentwise to its account, in place.

        Nothing is added until the whole transaction has passed, so a
        failed transaction leaves the balances untouched. Because the
        entries sum to a zero pair, the whole tree stays a zero
        representative.
        """
        validate_transaction(tx)
        for p in tx.postings:
            self._resolve(p.account, p.span or tx.span)
        for p in tx.postings:
            self.balances[p.account] += p.entry

    def aggregate(self, path: AccountPath) -> TAccount:
        """Componentwise sum of every leaf in the subtree at path."""
        out = TAccount.zero()
        for leaf in self.chart.leaves_under(path):
            out = out + self.balances[leaf]
        return out

    def total(self) -> TAccount:
        """Sum over the whole tree; a zero representative for any valid state."""
        out = TAccount.zero()
        for entry in self.balances.values():
            out = out + entry
        return out

    def refine(
        self, parent: AccountPath, parts: Sequence[tuple[AccountPath, TAccount]]
    ) -> Ledger:
        """Split a leaf's balance into named children, exactly.

        The shares must sum componentwise to the parent's stored
        T-account — no silent residual. The parent becomes an interior
        node and every aggregate above it is unchanged, so refinement
        only adds information, never wealth.
        """
        if parent not in self.chart:
            raise UnknownAccountError(f"unknown account {parent}")
        if parent not in self.balances:
            raise LedgerError(f"refine parent {parent} must be a postable leaf")
        if not parts:
            raise ValueError("refine requires at least one child")
        seen: set[AccountPath] = set()
        for child, _ in parts:
            if child.parent != parent:
                raise ValueError(f"{child} is not a direct child of {parent}")
            if child in self.chart or child in seen:
                raise ChildCollisionError(f"child {child} already exists")
            seen.add(child)
        share_sum = TAccount.zero()
        for _, share in parts:
            share_sum = share_sum + share
        target = self.balances[parent]
        if share_sum != target:
            residual = share_sum.balance() - target.balance()
            raise PartitionMismatchError(
                f"shares sum to {share_sum}, parent holds {target}"
                f" (signed residual {_signed(residual)})",
                residual,
            )
        chart = self.chart
        for child, _ in parts:
            chart = chart.declare(child)
        balances = dict(self.balances)
        del balances[parent]
        for child, share in parts:
            balances[child] = share
        return replace(self, chart=chart, balances=balances)

    def scaled(self, k: Amount) -> Ledger:
        """Every balance scaled by k (basis normalization)."""
        return replace(self, balances={a: t.scale(k) for a, t in self.balances.items()})

    def items(self) -> list[tuple[AccountPath, TAccount]]:
        return sorted(self.balances.items())

    def nonzero_items(self) -> list[tuple[AccountPath, TAccount]]:
        """Reduced (account, pair) terms that survive reduction, sorted.

        This is the decomposition of the zero account: accounts whose
        pair reduces to zero drop out of the picture without being
        deleted from the ledger.
        """
        out = []
        for account, entry in sorted(self.balances.items()):
            reduced = entry.reduce()
            if not reduced.is_zero:
                out.append((account, reduced))
        return out


_ZERO = TAccount.zero()


def _side_sums(entries) -> tuple[Fraction, Fraction]:
    """The summed debits and the summed credits of some pairs."""
    debit = credit = Fraction(0)
    for entry in entries:
        debit += entry.debit.as_fraction
        credit += entry.credit.as_fraction
    return debit, credit


@dataclass(frozen=True)
class _Replay:
    """One pass of the replay step over a journal's expanded stream.

    ledger is the final raw state and last the last posted transaction.
    history maps each leaf to the dates of the posted steps that moved
    it, in stream order, and to its cumulative raw pair after each of
    them. faults lists, in stream order, every step that raised (with
    its error) and every posted step that failed the zero-change check
    (with None).
    """

    ledger: Ledger
    posted: int
    last: Transaction | None
    faults: tuple[tuple[Transaction, LedgerError | None], ...]
    history: dict[AccountPath, tuple[list[dt.date], list[TAccount]]]

    def raise_first(self, after: dt.date | None, through: dt.date) -> None:
        """Raise the first error of a step dated in (after, through].

        after None means from the first transaction. A step's checks
        depend only on its transaction and a failed step adds nothing,
        so this is the error a replay of that window alone would raise.
        The error is a fresh copy, so the stored one gathers no
        traceback.
        """
        for tx, err in self.faults:
            if tx.date > through:
                return
            if err is not None and (after is None or tx.date > after):
                raise copy.copy(err)


@dataclass(frozen=True)
class Journal:
    """Chart directives, dated transactions, and matching schedules.

    Transactions are kept sorted by date (stable, so file order breaks
    ties). Schedules stay directives here; expand() turns them into
    ordinary transactions for the derived views.
    """

    chart: Chart
    transactions: tuple[Transaction, ...] = ()
    schedules: "tuple[MatchingSchedule, ...]" = ()
    basis: Amount | None = None

    def __post_init__(self):
        ordered = tuple(sorted(self.transactions, key=lambda t: t.date))
        object.__setattr__(self, "transactions", ordered)
        object.__setattr__(self, "schedules", tuple(self.schedules))

    def expand(self) -> tuple[Chart, tuple[Transaction, ...]]:
        """Chart and transaction stream with schedules expanded.

        Schedule-generated accounts are declared on the fly; emitted
        transactions merge into date order after authored ones. The
        expansion is computed once per journal.
        """
        return self._expansion

    @cached_property
    def _expansion(self) -> tuple[Chart, tuple[Transaction, ...]]:
        from .matching import emit_schedule_transactions, schedule_accounts

        chart = self.chart
        txs = list(self.transactions)
        for schedule in self.schedules:
            for account in schedule_accounts(schedule):
                if not chart.is_declared(account):
                    chart = chart.declare(account)
            txs.extend(emit_schedule_transactions(schedule))
        return chart, tuple(sorted(txs, key=lambda t: t.date))

    @cached_property
    def _replay(self) -> _Replay:
        """The replay step run once over expand(): what every view reads.

        Each step is checked as it goes: the summed debits and credits
        of the accounts a posted transaction touched must equal their
        sums before plus the transaction's entries, which must form a
        zero pair, so the step leaves the tree total unchanged. The sums
        are taken side by side on plain Fractions, which is the same
        componentwise check as on pairs and cheaper.
        """
        chart, txs = self.expand()
        ledger = Ledger.empty(chart)
        balances = ledger.balances
        history = {leaf: ([], []) for leaf in balances}
        faults: list[tuple[Transaction, LedgerError | None]] = []
        posted, last = 0, None
        for tx in txs:
            touched = {p.account for p in tx.postings}
            before = _side_sums(balances.get(a, _ZERO) for a in touched)
            try:
                ledger._apply(tx)
            except LedgerError as err:
                faults.append((tx, err.with_traceback(None)))
                continue
            posted += 1
            last = tx
            for a in touched:
                dates, sums = history[a]
                dates.append(tx.date)
                sums.append(balances[a])
            debit, credit = _side_sums(p.entry for p in tx.postings)
            moved = (before[0] + debit, before[1] + credit)
            if debit != credit or _side_sums(balances[a] for a in touched) != moved:
                faults.append((tx, None))
        return _Replay(ledger, posted, last, tuple(faults), history)

    def stock_at(self, cutoff: dt.date) -> Ledger:
        """Balance-sheet view: everything dated on or before cutoff, reduced."""
        replay = self._replay
        replay.raise_first(None, cutoff)
        balances = {}
        for leaf, (dates, sums) in replay.history.items():
            i = bisect_right(dates, cutoff)
            balances[leaf] = sums[i - 1].reduce() if i else _ZERO
        return Ledger(replay.ledger.chart, balances, as_of=cutoff)

    def flow_between(self, start: dt.date, end: dt.date) -> Ledger:
        """Flow view: raw componentwise posting sums over (start, end].

        The half-open interval means a stock at start plus this flow
        reconciles with the stock at end, with nothing double counted.
        Every transaction in the interval is validated as stock_at
        validates it, so the grand total of a flow view is itself a
        zero representative.
        """
        if start > end:
            raise IntervalError(f"inverted interval: {start} > {end}")
        replay = self._replay
        replay.raise_first(start, end)
        balances = {}
        for leaf, (dates, sums) in replay.history.items():
            i, j = bisect_right(dates, start), bisect_right(dates, end)
            if i == j:
                balances[leaf] = _ZERO
            elif i == 0:
                balances[leaf] = sums[j - 1]
            else:
                hi, lo = sums[j - 1], sums[i - 1]
                balances[leaf] = TAccount(hi.debit - lo.debit, hi.credit - lo.credit)
        return Ledger(replay.ledger.chart, balances, interval=(start, end))

    def reconcile(self, start: dt.date, end: dt.date) -> ReconciliationReport:
        """Check stock(start) + flow(start, end] against stock(end) per account.

        Any violation signals an engine bug, not a journal problem: the
        identity is forced by the algebra for every valid journal.
        """
        opening = self.stock_at(start)
        flow = self.flow_between(start, end)
        closing = self.stock_at(end)
        rows = []
        for account in sorted(closing.balances):
            combined = opening.balances[account] + flow.balances[account]
            rows.append(
                ReconcileRow(
                    account=account,
                    opening=opening.balances[account],
                    flow=flow.balances[account],
                    closing=closing.balances[account],
                    ok=combined.equivalent(closing.balances[account]),
                )
            )
        return ReconciliationReport(start, end, tuple(rows))

    def income_report(
        self, start: dt.date, end: dt.date, nominal_roots: Sequence[AccountPath]
    ) -> IncomeReport:
        """Aggregate flows under the nominal roots into a net income pair.

        Net income is the balance of that aggregate with credit counted
        positive, so revenue above cost comes out positive.
        """
        flow = self.flow_between(start, end)
        rows = []
        total = TAccount.zero()
        for root in nominal_roots:
            agg = flow.aggregate(root)
            rows.append((root, agg))
            total = total + agg
        return IncomeReport(start, end, tuple(rows), total, -total.balance())


@dataclass(frozen=True, slots=True)
class ReconcileRow:
    account: AccountPath
    opening: TAccount
    flow: TAccount
    closing: TAccount
    ok: bool


@dataclass(frozen=True)
class ReconciliationReport:
    start: dt.date
    end: dt.date
    rows: tuple[ReconcileRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def violations(self) -> tuple[ReconcileRow, ...]:
        return tuple(row for row in self.rows if not row.ok)


@dataclass(frozen=True)
class IncomeReport:
    start: dt.date
    end: dt.date
    rows: tuple[tuple[AccountPath, TAccount], ...]
    total: TAccount
    net_income: Fraction

