"""Dated transactions and the views derived from them.

A transaction is a set of postings whose entries sum to a zero pair:
that is the double-entry principle, and it is what keeps the whole tree
balanced after every posting. The same postings can be read two ways:
summed up to a cutoff date they give a stock view (a balance sheet),
summed over an interval they give a flow view. Because each transaction
is itself a zero pair, a stock at one date plus the flow since then
reconciles exactly with the stock at any later date.

A journal replays its transactions once, on its first view, and keeps
only each leaf's final pair and the posted steps in date order: the
stream is the only record. By the identity above, a view sums posted
steps forward by one rule: a stock onto the latest kept stock dated at
or before its cutoff (the last few lookups are kept), else onto the
all-zero pairs; a flow onto zero. Only the leaves those steps post to
are recomputed. A window that holds every posted step reads the final
pairs, which are raw, so a stock reduces every leaf of them. A stock
built on a kept one keeps its sum as the flow between the two, so a
month-end close sums each month's steps once after its first.

The replay runs on exact integers. The group laws hold for any common
scaling of both sides, so with D the least common multiple of every
posting amount's denominator, each amount n/d is the integer n·(D/d)
and a pair is two integers over D. A posting keeps its literal's
reduced n and d, which the replay scales, and builds its entry only when
something reads it; a parsed one so builds its span, which only an error
reads. The replay proves itself on those integers: every step leaves the
tree total unchanged, and the whole tree ends a zero representative. A
view turns into TAccounts only the pairs it returns, every zero pair as
the one shared zero. A kept lookup keeps its TAccounts; reconcile reads
them, and checks stock + flow ≡ stock on the lookups' integers (scaling
by 1/D is injective, so it agrees with TAccounts).

Journals and ledgers are immutable; every operation returns a new value,
so derivations may run concurrently over the same journal. A replay's
caches are replaced or filled, never emptied, so a race only repeats work.
"""

from __future__ import annotations

import copy
import datetime as dt
from bisect import bisect_right
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter

from .algebra import _ZERO_AMOUNT, _ZERO_TACCOUNT, Amount, TAccount, _Record, _signed, _sum
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
    It keeps its sides' reduced integers; a parsed one builds entry and span on first read.
    """

    __slots__ = ("account", "_span", "_ints", "_entry")
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
        """One side's reduced literal as a posting; span may be a SourceSpan's four fields."""
        self = object.__new__(cls)
        self._set(account, span, (0, 1, num, den) if credit else (num, den, 0, 1), None)
        return self

    def _set(self, account, span, ints, entry):
        _set_account(self, account)
        _set_span(self, span)
        _set_ints(self, ints)
        _set_entry(self, entry)

    @property
    def span(self) -> SourceSpan | None:
        span = self._span
        if span.__class__ is tuple:  # racing readers may each build an equal span
            span = SourceSpan(*span)
            _set_span(self, span)
        return span

    @property
    def entry(self) -> TAccount:
        if self._entry is None:
            debit_num, debit_den, credit_num, credit_den = self._ints
            if credit_num:
                entry = TAccount.cr(Amount(credit_num, credit_den))
            else:
                entry = TAccount.dr(Amount(debit_num, debit_den))
            _set_entry(self, entry)
        return self._entry


# Posting's slots' member descriptors' writers: no name lookup, no __setattr__
_set_account, _set_span, _set_ints, _set_entry = (
    vars(Posting)[name].__set__ for name in Posting.__slots__)


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
            if p.account not in self.balances:  # read the span only to raise
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


_RECENT = 5  # a month's stock sums onto last month's, keeps the flow; reconcile reads all three
_date = attrgetter("date")

def _scaled_stream(txs) -> tuple[int, Callable]:
    """The scale D, and the function that gives a transaction's values over D.

    D is the lcm of every posting side's reduced denominator, and a value
    is an (account, debit, credit) triple of integers n·(D/d).
    """
    denominators = {den for tx in txs for p in tx.postings for den in p._ints[1::2]}
    scale = lcm(*denominators)
    up = {den: scale // den for den in denominators}

    def values(tx: Transaction) -> list[tuple[AccountPath, int, int]]:
        return [(p.account, debit_num * up[debit_den], credit_num * up[credit_den])
                for p in tx.postings for debit_num, debit_den, credit_num, credit_den in (p._ints,)]

    return scale, values


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
        if p.account not in pairs:  # read the span only to raise
            _resolve(chart, pairs, p.account, p.span or tx.span)
    for a, d, c in values:
        old_debit, old_credit = pairs[a]
        pairs[a] = (old_debit + d, old_credit + c)
    return debit, credit


class _Replay(_Record):
    """One pass of the replay step over a journal's expanded stream.

    Sides are integers over scale. final maps each leaf, in path order
    (Chart.leaves()), to its raw pair after the last step; every view's
    pairs keep that order. faults lists, in stream order, every step
    that raised (with its error) and every posted step that failed the
    zero-change check (with None); then, if the final tree is not a zero
    representative, the last posted step (with None).
    """

    _fields = ("chart", "scale", "posted", "faults", "final")
    # _steps: the posted transactions, in date order; _values: a step's scaled values
    __slots__ = (*_fields, "_recent", "_steps", "_values", "_zeros")

    def __post_init__(self):
        object.__setattr__(self, "_recent", ())  # [window, pairs, TAccounts or None] per lookup
        object.__setattr__(self, "_zeros", (None, None))  # _zero's dicts, once built

    def taccount(self, debit: int, credit: int) -> TAccount:
        """A pair of integers over scale as a TAccount: the shared zero for
        (0, 0), else a new one; a side below zero raises."""
        if debit or credit:
            return TAccount(self._side(debit), self._side(credit))
        return _ZERO_TACCOUNT

    def taccounts(self, pairs: dict) -> dict[AccountPath, TAccount]:
        """The TAccounts of a lookup's pairs, in the same order. Those of a
        kept lookup are kept with it and shared: no caller may change them."""
        for entry in reversed(self._recent):  # most often the latest
            if entry[1] is pairs:
                break
        else:
            entry = [None, pairs, None]  # not a kept lookup: built for this call
        if entry[2] is None:  # filled whole, so a racing reader sees all or none
            entry[2] = {leaf: self.taccount(d, c) for leaf, (d, c) in pairs.items()}
        return entry[2]

    def pairs(self, after: dt.date | None, through: dt.date) -> dict[AccountPath, tuple[int, int]]:
        """Each leaf's pair over (after, through], as integers over scale.

        after None means from the first transaction, and reduced pairs: a
        stock; otherwise raw pairs: a flow. A stock sums forward from the
        latest kept stock dated at or before its cutoff, else from zero, a
        flow from zero; a window of every posted step reads the final pairs.
        The last _RECENT results are kept, shared (no caller may change
        them) and replaced whole, so a race can only repeat a lookup; a
        failed one keeps nothing.
        """
        window = after, through
        recent = self._recent
        for entry in recent:
            if entry[0] == window:
                return entry[1]
        self.raise_first(after, through)
        steps = self._steps
        i = 0 if after is None else bisect_right(steps, after, key=_date)
        j = bisect_right(steps, through, key=_date)
        stocks = [e for e in recent if after is None and e[0][0] is None and e[0][1] <= through]
        if stocks:
            base = max(stocks, key=lambda e: e[0][1])  # the latest
            i = bisect_right(steps, base[0][1], key=_date)
        elif i == 0 and j == len(steps):  # the window holds every posted step
            base, i = (None, self.final, None), j
        else:  # after the first, a lookup keeps TAccounts, which its base gives it
            base = self._zero(bool(recent))
        summed = self._summed(i, j) if i < j else {}
        out = [[window, *self._built(base, summed, after is None)]]
        if base[0] and base[0][1] < through:  # the steps just summed: the flow since base
            out.insert(0, [(base[0][1], through), *self._built(self._zero(True), summed, False)])
        object.__setattr__(self, "_recent", (*recent[len(out) - _RECENT:], *out))
        return out[-1][1]

    def _zero(self, held: bool) -> tuple:
        """The all-zero base, (None, pairs, the shared zero's TAccounts if held).
        Each dict is built once per replay, on first need, and set whole, so a
        race only repeats work."""
        pairs, taccounts = self._zeros
        if pairs is None:
            pairs = dict.fromkeys(self.final, (0, 0))
        if held and taccounts is None:
            taccounts = dict.fromkeys(self.final, _ZERO_TACCOUNT)
        object.__setattr__(self, "_zeros", (pairs, taccounts))
        return None, pairs, taccounts if held else None

    def _summed(self, i: int, j: int) -> dict[AccountPath, list[int]]:
        """Each leaf that the posted steps i to j (not j) post to, with the
        summed debits and credits of their values."""
        sums, values = {}, self._values
        for tx in self._steps[i:j]:
            for leaf, debit, credit in values(tx):
                pair = sums.setdefault(leaf, [0, 0])
                pair[0] += debit
                pair[1] += credit
        return sums

    def _built(self, base, summed: dict, stock: bool) -> list:
        """[pairs, TAccounts or None]: a copy of base's with the summed
        values added, recomputing only the summed leaves; for a stock,
        reduced, and every leaf of the final pairs, for they are raw."""
        pairs, held = dict(base[1]), None if base[2] is None else dict(base[2])
        for leaf in pairs if stock and base[1] is self.final else summed:
            debit, credit = pairs[leaf]
            d, c = summed.get(leaf, (0, 0))
            debit, credit = debit + d, credit + c
            if stock:
                common = min(debit, credit)
                debit, credit = debit - common, credit - common
            pairs[leaf] = debit, credit
            if held is not None:
                held[leaf] = self.taccount(debit, credit)
        return [pairs, held]

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
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached properties
    _defaults = ((), (), None)

    def __post_init__(self):
        ordered = tuple(sorted(self.transactions, key=_date))
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
        return chart, tuple(sorted(txs, key=_date))

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
        scale, values = _scaled_stream(txs)
        pairs = {leaf: (0, 0) for leaf in chart.leaves()}
        faults: list[tuple[Transaction, LedgerError | None]] = []
        drifted = False
        for tx in txs:
            step = values(tx)
            before = {a: pairs.get(a, (0, 0)) for a, _, _ in step}  # each touched leaf's pair
            try:
                debit, credit = _replay_step(chart, pairs, tx, step)
            except LedgerError as err:
                faults.append((tx, err.with_traceback(None)))
                continue
            moved_debit = moved_credit = 0
            for a, (d, c) in before.items():
                after_debit, after_credit = pairs[a]
                moved_debit += after_debit - d
                moved_credit += after_credit - c
            if debit != credit or (moved_debit, moved_credit) != (debit, credit):
                faults.append((tx, None))
                drifted = True
        failed = {id(tx) for tx, err in faults if err is not None}
        steps = tuple(tx for tx in txs if id(tx) not in failed) if failed else txs
        if steps and not drifted and sum(d - c for d, c in pairs.values()):
            faults.append((steps[-1], None))
        replay = _Replay(chart, scale, len(steps), tuple(faults), pairs)
        object.__setattr__(replay, "_steps", steps)
        object.__setattr__(replay, "_values", values)
        return replay

    def stock_at(self, cutoff: dt.date) -> Ledger:
        """Balance-sheet view: everything dated on or before cutoff, reduced."""
        taccounts = self._replay.taccounts(self._stock_pairs(cutoff))
        return Ledger(self._replay.chart, dict(taccounts), cutoff)

    def _stock_pairs(self, cutoff: dt.date) -> dict[AccountPath, tuple[int, int]]:
        """stock_at's lookup: each leaf's reduced pair, as integers over scale."""
        return self._replay.pairs(None, cutoff)

    def flow_between(self, start: dt.date, end: dt.date) -> Ledger:
        """Flow view: raw componentwise posting sums over (start, end].

        The half-open interval means a stock at start plus this flow
        reconciles with the stock at end, with nothing double counted.
        Every transaction in the interval is validated as stock_at
        validates it, so the grand total of a flow view is itself a
        zero representative.
        """
        taccounts = self._replay.taccounts(self._flow_pairs(start, end))
        return Ledger(self._replay.chart, dict(taccounts), None, (start, end))

    def _flow_pairs(self, start: dt.date, end: dt.date) -> dict[AccountPath, tuple[int, int]]:
        """flow_between's lookup: each leaf's raw pair, as integers over scale."""
        if start > end:
            raise IntervalError(f"inverted interval: {start} > {end}")
        return self._replay.pairs(start, end)

    def reconcile(self, start: dt.date, end: dt.date) -> ReconciliationReport:
        """Check stock(start) + flow(start, end] against stock(end) per account.

        Any violation signals an engine bug, not a journal problem: the
        identity is forced by the algebra for every valid journal. The
        check runs on the three lookups' integers, which stand for the
        same classes as the kept TAccounts the rows carry, read side by
        side: every lookup lists the leaves in the one order.
        """
        lookups = self._stock_pairs(start), self._flow_pairs(start, end), self._stock_pairs(end)
        taccounts = [self._replay.taccounts(pairs).values() for pairs in lookups]
        rows = [
            ReconcileRow(account, opening, flow, closing, od + fd + cc == oc + fc + cd)
            for account, (od, oc), (fd, fc), (cd, cc), opening, flow, closing in zip(
                lookups[2], *(pairs.values() for pairs in lookups), *taccounts
            )
        ]
        return ReconciliationReport(start, end, tuple(rows))

    def income_report(
        self, start: dt.date, end: dt.date, nominal_roots: Sequence[AccountPath]
    ) -> IncomeReport:
        """Aggregate flows under the nominal roots into a net income pair.

        Net income is the balance of that aggregate with credit counted
        positive, so revenue above cost comes out positive.
        """
        flow, replay = self._flow_pairs(start, end), self._replay
        rows = []
        for root in nominal_roots:
            _resolve(replay.chart, replay.chart, root)  # any node sums: only an unknown one raises
            moved = (pair for leaf, pair in flow.items() if root.covers(leaf))
            rows.append((root, replay.taccount(*map(sum, zip((0, 0), *moved)))))
        total = _sum(agg for _, agg in rows)
        return IncomeReport(start, end, tuple(rows), total, -total.balance())


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

