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

The replay runs on exact integers. The group laws hold for any common
scaling of both sides, so with D the least common multiple of every
posting amount's denominator, each amount n/d is the integer n·(D/d)
and a cumulative pair is two integers over D. A posting keeps its
literal's reduced n and d, which the replay scales, and builds its entry
only when something reads it. The replay proves itself on those
integers: every step leaves the tree total unchanged, and the whole
tree ends a zero representative. A view turns into TAccounts only the
pairs it returns. reconcile checks stock + flow ≡ stock on the
integers of its three lookups (scaling by 1/D is injective, so the
check agrees with one on TAccounts) and builds TAccounts only for its
rows.

Journals and ledgers are immutable; every operation returns a new value,
so derivations may run concurrently over the same journal.
"""

from __future__ import annotations

import copy
import datetime as dt
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm

from .algebra import _ZERO_AMOUNT, Amount, TAccount, _Record, _signed, _sum
from .chart import AccountPath, Chart
from .diagnostics import SourceSpan
from .errors import (
    ChildCollisionError,
    ImbalanceError,
    IntervalError,
    LedgerError,
    NonLeafPostingError,
    PartitionMismatchError,
    UnknownAccountError,
)

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


class Posting(_Record):
    """One account's share of a transaction: a single-sided entry.

    The entry must be canonical — a pure debit, a pure credit, or the
    zero pair. General two-sided pairs appear only in computed states.
    It keeps its sides' reduced integers; a parsed one builds entry on first read.
    """

    __slots__ = ("account", "span", "_ints", "_entry")
    _fields = ("account", "entry", "span")
    _compared = _fields[:-1]

    def __init__(
        self, account: AccountPath, entry: TAccount, span: SourceSpan | None = None
    ):
        debit, credit = entry.debit, entry.credit
        # the shared zero on one side makes an entry canonical without a test
        if not (debit is _ZERO_AMOUNT or credit is _ZERO_AMOUNT or entry.is_canonical):
            raise ValueError(f"posting entry must be a pure debit or credit, got {entry}")
        ints = debit.numerator, debit.denominator, credit.numerator, credit.denominator
        self._set(account, span, ints, entry)

    @classmethod
    def _parsed(cls, account: AccountPath, credit: bool, num: int, den: int, span) -> Posting:
        """One side's reduced literal as a posting, its entry built on first read."""
        self = object.__new__(cls)
        self._set(account, span, (0, 1, num, den) if credit else (num, den, 0, 1), None)
        return self

    def _set(self, account, span, ints, entry):
        set_field = object.__setattr__
        set_field(self, "account", account)
        set_field(self, "span", span)
        set_field(self, "_ints", ints)
        set_field(self, "_entry", entry)

    @property
    def entry(self) -> TAccount:
        if self._entry is None:
            debit_num, debit_den, credit_num, credit_den = self._ints
            if credit_num:
                entry = TAccount.cr(Amount(credit_num, credit_den))
            else:
                entry = TAccount.dr(Amount(debit_num, debit_den))
            object.__setattr__(self, "_entry", entry)
        return self._entry


class Transaction(_Record):
    """A dated, described list of postings.

    Validity (at least two postings summing to a zero pair) is checked
    by validate_transaction, not at construction, so that parsed but
    broken transactions can still be reported with their location.
    """

    __slots__ = _fields = ("date", "description", "postings", "span")
    _compared = _fields[:-1]
    _defaults = (None,)

    def total(self) -> TAccount:
        return _sum(p.entry for p in self.postings)


def _resolve(chart: Chart, postable, account: AccountPath, span=None) -> AccountPath:
    """account itself if it is in postable, else the error chart explains."""
    if account in postable:
        return account
    if account in chart:
        raise NonLeafPostingError(f"account {account} is not postable", span=span)
    raise UnknownAccountError(f"unknown account {account}", span=span)


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


class Ledger(_Record):
    """Per-account T-account state over a fixed chart.

    balances maps every postable leaf to its T-account. Posting
    accumulates raw pairs; stock views hand back reduced copies. A
    ledger remembers which view produced it (a cutoff date or an
    interval), if any.
    """

    __slots__ = _fields = ("chart", "balances", "as_of", "interval")
    _defaults = (None, None)

    @classmethod
    def empty(cls, chart: Chart) -> Ledger:
        return cls(chart, {leaf: TAccount.zero() for leaf in chart.leaves()})

    def balance(self, account: AccountPath) -> TAccount:
        return self.balances[_resolve(self.chart, self.balances, account)]

    def post(self, tx: Transaction) -> Ledger:
        """A new ledger with one balanced transaction folded in.

        tx is validated and every posting resolved before anything is
        added, so a failed transaction raises and changes nothing.
        Because the entries sum to a zero pair, the whole tree stays a
        zero representative.
        """
        validate_transaction(tx)
        for p in tx.postings:
            _resolve(self.chart, self.balances, p.account, p.span or tx.span)
        balances = dict(self.balances)
        for p in tx.postings:
            balances[p.account] += p.entry
        return Ledger(self.chart, balances, self.as_of, self.interval)

    def aggregate(self, path: AccountPath) -> TAccount:
        """Componentwise sum of every leaf in the subtree at path."""
        if path not in self.chart:
            raise UnknownAccountError(f"unknown account {path}")
        return _sum(entry for leaf, entry in self.balances.items() if path.covers(leaf))

    def total(self) -> TAccount:
        """Sum over the whole tree; a zero representative for any valid state."""
        return _sum(self.balances.values())

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
        share_sum = _sum(share for _, share in parts)
        target = self.balances[parent]
        if share_sum != target:
            residual = share_sum.balance() - target.balance()
            raise PartitionMismatchError(
                f"shares sum to {share_sum}, parent holds {target}"
                f" (signed residual {_signed(residual)})",
                residual,
            )
        chart = self.chart.declare_all(child for child, _ in parts)
        balances = dict(self.balances)
        del balances[parent]
        for child, share in parts:
            balances[child] = share
        return Ledger(chart, balances, self.as_of, self.interval)

    def scaled(self, k: Amount) -> Ledger:
        """Every balance scaled by k (basis normalization)."""
        balances = {a: t.scale(k) for a, t in self.balances.items()}
        return Ledger(self.chart, balances, self.as_of, self.interval)

    def items(self) -> list[tuple[AccountPath, TAccount]]:
        return sorted(self.balances.items(), key=lambda item: item[0].segments)

    def nonzero_items(self) -> list[tuple[AccountPath, TAccount]]:
        """Reduced (account, pair) terms that survive reduction, sorted.

        This is the decomposition of the zero account: accounts whose
        pair reduces to zero drop out of the picture without being
        deleted from the ledger.
        """
        out = []
        for account, entry in self.items():
            reduced = entry.reduce()
            if not reduced.is_zero:
                out.append((account, reduced))
        return out


_ZERO = TAccount.zero()

def _scaled_stream(txs) -> tuple[int, Iterator]:
    """The scale D, and each transaction with its postings' values over D.

    D is the lcm of every posting side's reduced denominator, and a
    value is an (account, debit, credit) triple of integers n·(D/d).
    Values are made one transaction at a time, as the replay reaches it.
    """
    denominators = {den for tx in txs for p in tx.postings for den in p._ints[1::2]}
    scale = lcm(*denominators)
    up = {den: scale // den for den in denominators}

    def values(tx: Transaction) -> list[tuple[AccountPath, int, int]]:
        out = []
        for p in tx.postings:
            debit_num, debit_den, credit_num, credit_den = p._ints
            out.append((p.account, debit_num * up[debit_den], credit_num * up[credit_den]))
        return out

    return scale, ((tx, values(tx)) for tx in txs)


def _replay_step(chart: Chart, pairs: dict, tx: Transaction, values: list) -> tuple[int, int]:
    """The replay step on scaled values: check tx, resolve every posting,
    then add each value to its leaf's (debit, credit) pair in place.

    A transaction with fewer than two postings or unequal sides goes
    through validate_transaction, so it fails with the same error and
    span as on TAccounts. Nothing is added until every posting has
    resolved, so a failed step leaves the pairs untouched. Returns the
    summed debits and credits of the values.
    """
    debit = credit = 0
    for _, d, c in values:
        debit += d
        credit += c
    if len(values) < 2 or debit != credit:
        validate_transaction(tx)
    for p in tx.postings:
        _resolve(chart, pairs, p.account, p.span or tx.span)
    for a, d, c in values:
        old_debit, old_credit = pairs[a]
        pairs[a] = (old_debit + d, old_credit + c)
    return debit, credit


class _Replay(_Record):
    """One pass of the replay step over a journal's expanded stream.

    Sides are integers over scale. history maps each leaf, in path order
    (Chart.leaves()), to the dates of the posted steps that moved it, in
    stream order, and to its cumulative pair after each of them; every
    view's pairs keep that order. faults lists, in stream order,
    every step that raised (with its error) and every posted step that
    failed the zero-change check (with None); then, if the final tree is
    not a zero representative, the last posted step (with None). Views
    build TAccounts only for the pairs they return.
    """

    __slots__ = _fields = ("chart", "scale", "posted", "faults", "history")

    def taccount(self, debit: int, credit: int) -> TAccount:
        """A pair of integers over scale as a TAccount; a side below zero raises."""
        if not (debit or credit):
            return _ZERO
        return TAccount(self._side(debit), self._side(credit))

    def view(self, pairs: dict, as_of=None, interval=None) -> Ledger:
        """A view's integer pairs as the Ledger of TAccounts it returns."""
        balances = {leaf: self.taccount(d, c) for leaf, (d, c) in pairs.items()}
        return Ledger(self.chart, balances, as_of, interval)

    def _side(self, n: int) -> Amount:
        if n > 0:
            return Amount._wrap(Fraction(n, self.scale))
        if n == 0:
            return _ZERO_AMOUNT
        return Amount(n, self.scale)  # raises the checked constructor's error

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


class Journal(_Record):
    """Chart directives, dated transactions, and matching schedules.

    Transactions are kept sorted by date (stable, so file order breaks
    ties). Schedules stay directives here; expand() turns them into
    ordinary transactions for the derived views.
    """

    _fields = ("chart", "transactions", "schedules", "basis")
    _defaults = ((), (), None)

    def __post_init__(self):
        ordered = tuple(sorted(self.transactions, key=lambda t: t.date))
        object.__setattr__(self, "transactions", ordered)
        object.__setattr__(self, "schedules", tuple(self.schedules))

    def expand(self) -> tuple[Chart, tuple[Transaction, ...]]:
        """Chart and transaction stream with schedules expanded.

        The accounts that emitted postings name are declared on the fly,
        except a schedule's source: the chart must declare it, or the
        replay fails on it as on any unknown account. Emitted
        transactions merge into date order after authored ones. The
        expansion is computed once per journal.
        """
        return self._expansion

    @cached_property
    def _expansion(self) -> tuple[Chart, tuple[Transaction, ...]]:
        from .matching import emit_schedule_transactions

        txs = list(self.transactions)
        accounts = {}  # a dict, to keep first-use order without repeats
        for schedule in self.schedules:
            emitted = emit_schedule_transactions(schedule)
            for account in (p.account for tx in emitted for p in tx.postings):
                if account != schedule.source and not self.chart.is_declared(account):
                    accounts[account] = None
            txs.extend(emitted)
        chart = self.chart.declare_all(accounts) if accounts else self.chart
        return chart, tuple(sorted(txs, key=lambda t: t.date))

    @cached_property
    def _replay(self) -> _Replay:
        """_replay_step run once over expand(): what every view reads.

        Each step is checked as it goes: its debits must equal its
        credits, and the summed pairs of the accounts it touched must
        move by exactly its values, so it leaves the tree total
        unchanged. A step sees only the leaves it touches, so after the
        last one, unless a step has already failed that check, the
        summed debits of the whole tree must equal its summed credits.
        Every check compares the scaled values exactly.
        """
        chart, txs = self.expand()
        scale, stream = _scaled_stream(txs)
        pairs = {leaf: (0, 0) for leaf in chart.leaves()}
        history = {leaf: ([], []) for leaf in pairs}
        faults: list[tuple[Transaction, LedgerError | None]] = []
        posted, last, drifted = 0, None, False
        for tx, values in stream:
            touched = {a for a, _, _ in values}
            before = [pairs.get(a, (0, 0)) for a in touched]
            try:
                debit, credit = _replay_step(chart, pairs, tx, values)
            except LedgerError as err:
                faults.append((tx, err.with_traceback(None)))
                continue
            posted += 1
            last = tx
            moved_debit = moved_credit = 0
            for d, c in before:
                moved_debit -= d
                moved_credit -= c
            for a in touched:
                pair = pairs[a]
                dates, sums = history[a]
                dates.append(tx.date)
                sums.append(pair)
                moved_debit += pair[0]
                moved_credit += pair[1]
            if debit != credit or (moved_debit, moved_credit) != (debit, credit):
                faults.append((tx, None))
                drifted = True
        if last is not None and not drifted and sum(d - c for d, c in pairs.values()):
            faults.append((last, None))
        return _Replay(chart, scale, posted, tuple(faults), history)

    def stock_at(self, cutoff: dt.date) -> Ledger:
        """Balance-sheet view: everything dated on or before cutoff, reduced."""
        return self._replay.view(self._stock_pairs(cutoff), as_of=cutoff)

    def _stock_pairs(self, cutoff: dt.date) -> dict[AccountPath, tuple[int, int]]:
        """stock_at's lookup: each leaf's reduced pair, as integers over scale."""
        replay = self._replay
        replay.raise_first(None, cutoff)
        pairs = {}
        for leaf, (dates, sums) in replay.history.items():
            i = bisect_right(dates, cutoff)
            debit, credit = sums[i - 1] if i else (0, 0)
            common = min(debit, credit)
            pairs[leaf] = (debit - common, credit - common)
        return pairs

    def flow_between(self, start: dt.date, end: dt.date) -> Ledger:
        """Flow view: raw componentwise posting sums over (start, end].

        The half-open interval means a stock at start plus this flow
        reconciles with the stock at end, with nothing double counted.
        Every transaction in the interval is validated as stock_at
        validates it, so the grand total of a flow view is itself a
        zero representative.
        """
        return self._replay.view(self._flow_pairs(start, end), interval=(start, end))

    def _flow_pairs(self, start: dt.date, end: dt.date) -> dict[AccountPath, tuple[int, int]]:
        """flow_between's lookup: each leaf's raw pair, as integers over scale."""
        if start > end:
            raise IntervalError(f"inverted interval: {start} > {end}")
        replay = self._replay
        replay.raise_first(start, end)
        pairs = {}
        for leaf, (dates, sums) in replay.history.items():
            i, j = bisect_right(dates, start), bisect_right(dates, end)
            debit, credit = sums[j - 1] if j else (0, 0)
            if i:
                debit, credit = debit - sums[i - 1][0], credit - sums[i - 1][1]
            pairs[leaf] = (debit, credit)
        return pairs

    def reconcile(self, start: dt.date, end: dt.date) -> ReconciliationReport:
        """Check stock(start) + flow(start, end] against stock(end) per account.

        Any violation signals an engine bug, not a journal problem: the
        identity is forced by the algebra for every valid journal. The
        check runs on the three lookups' integers, which stand for the
        same classes as the TAccounts the rows carry.
        """
        opening = self._stock_pairs(start)
        flow = self._flow_pairs(start, end)
        closing = self._stock_pairs(end)
        taccount = self._replay.taccount
        rows = []
        for account in closing:
            (od, oc), (fd, fc), (cd, cc) = opening[account], flow[account], closing[account]
            views = taccount(od, oc), taccount(fd, fc), taccount(cd, cc)
            rows.append(ReconcileRow(account, *views, od + fd + cc == oc + fc + cd))
        return ReconciliationReport(start, end, tuple(rows))

    def income_report(
        self, start: dt.date, end: dt.date, nominal_roots: Sequence[AccountPath]
    ) -> IncomeReport:
        """Aggregate flows under the nominal roots into a net income pair.

        Net income is the balance of that aggregate with credit counted
        positive, so revenue above cost comes out positive.
        """
        flow = self.flow_between(start, end)
        rows = tuple((root, flow.aggregate(root)) for root in nominal_roots)
        total = _sum(agg for _, agg in rows)
        return IncomeReport(start, end, rows, total, -total.balance())


class ReconcileRow(_Record):
    __slots__ = _fields = ("account", "opening", "flow", "closing", "ok")


class ReconciliationReport(_Record):
    __slots__ = _fields = ("start", "end", "rows")

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def violations(self) -> tuple[ReconcileRow, ...]:
        return tuple(row for row in self.rows if not row.ok)


class IncomeReport(_Record):
    __slots__ = _fields = ("start", "end", "rows", "total", "net_income")

