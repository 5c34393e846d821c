"""Month views summed from posted steps, against the history scan they replace.

A lookup sums posted steps forward onto a base: a stock onto the latest
kept stock dated at or before its cutoff, else onto the all-zero pairs,
a flow onto zero, and a window that holds every posted step reads the
final pairs. A kept lookup keeps its TAccounts, which reconcile reads. The
reference here is the path before that, kept here: a replay that records
every leaf's cumulative pair after each posted step that moved it, a
full scan of that history per lookup, and one TAccount built per leaf
per view. Every stock_at, flow_between, reconcile and income_report of
one long-lived journal must be == to the reference's, with the same
repr, or raise the same error, message and span, in whatever order the
calls come.
"""

import copy
import datetime as dt
import random
from bisect import bisect_right
from collections import Counter
from types import SimpleNamespace

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
from tledger.ledger import _replay_step, _scaled_stream

DAY = dt.timedelta(days=1)
MONTH_ENDS = [dt.date(2020, month, 1) - DAY for month in range(1, 13)] + [dt.date(2020, 12, 31)]
CLOSE = list(zip(MONTH_ENDS, MONTH_ENDS[1:]))


# -- the reference: a history replay, a full scan per lookup, a TAccount per leaf


def reference_replay(journal: Journal) -> SimpleNamespace:
    """The journal replayed step by step, keeping each leaf's dates and
    cumulative pairs after every posted step that moved it, and every
    step that raised, with its error."""
    chart, txs = journal.expand()
    scale, values_of = _scaled_stream(txs)
    pairs = {leaf: (0, 0) for leaf in chart.leaves()}
    history = {leaf: ([], []) for leaf in pairs}
    faults = []
    for tx in txs:
        values = values_of(tx)
        try:
            _replay_step(chart, pairs, tx, values)
        except LedgerError as err:
            faults.append((tx, err))
            continue
        for a in {a for a, _, _ in values}:
            dates, sums = history[a]
            dates.append(tx.date)
            sums.append(pairs[a])
    return SimpleNamespace(chart=chart, scale=scale, faults=faults, history=history)


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
    """Every view is the reference's. Every lookup sums only steps dated
    after its base's cutoff (a kept stock's, else its own start) and on or
    before its own; only a stock builds on a kept stock, one dated at or
    before its cutoff."""
    replay_type = tledger.ledger._Replay
    real_pairs, real_summed, real_built = replay_type.pairs, replay_type._summed, replay_type._built
    summed, bases = [], []

    def counted_summed(self, i, j):
        summed.extend(self._steps[i:j])
        return real_summed(self, i, j)

    def counted_built(self, base, *rest):
        bases.append(base)
        return real_built(self, base, *rest)

    def checked_pairs(self, after, through):
        summed.clear()
        bases.clear()
        pairs = real_pairs(self, after, through)
        if bases:  # a lookup the cache missed: its own base is the first built on
            kept = bases[0][0]  # a kept stock's window, else None
            assert kept is None or (after is None and kept[1] <= through)
            lower = kept[1] if kept else after
            for tx in summed:
                assert (lower is None or lower < tx.date) and tx.date <= through
        return pairs

    monkeypatch.setattr(replay_type, "_summed", counted_summed)
    monkeypatch.setattr(replay_type, "_built", counted_built)
    monkeypatch.setattr(replay_type, "pairs", checked_pairs)
    journal = fresh(journal)
    replay = reference_replay(fresh(journal))
    calls = close_calls(journal)
    if order == "reverse":
        calls.reverse()
    elif order == "shuffled":
        calls = shuffled_calls(journal, random.Random(name), 150)
    for kind, args in calls:
        got = outcome(lambda: getattr(journal, kind)(*args))
        assert got == outcome(lambda: reference(replay, kind, args)), (kind, args)


# -- which posted steps a lookup sums ---------------------------------------


def summed(monkeypatch, journal: Journal, calls):
    """Each call with the posted steps it summed and the leaves it
    recomputed, both counted with repeats."""
    replay = journal._replay
    steps, leaves = Counter(), Counter()
    real_summed, real_built = type(replay)._summed, type(replay)._built

    def counted_summed(self, i, j):
        steps.update(id(tx) for tx in self._steps[i:j])
        return real_summed(self, i, j)

    def counted_built(self, base, *rest):
        pairs, held = real_built(self, base, *rest)
        leaves.update(leaf for leaf, pair in pairs.items() if pair is not base[1][leaf])
        return [pairs, held]

    monkeypatch.setattr(type(replay), "_summed", counted_summed)
    monkeypatch.setattr(type(replay), "_built", counted_built)
    for kind, args in calls:
        steps.clear()
        leaves.clear()
        getattr(journal, kind)(*args)
        yield kind, args, +steps, +leaves


def month_calls() -> list[tuple[str, tuple]]:
    """A close's stock, flow and reconcile per month."""
    return [(kind, window[-size:]) for window in CLOSE
            for kind, size in [("stock_at", 1), ("flow_between", 2), ("reconcile", 2)]]


def posted_in(journal: Journal, after: dt.date, through: dt.date) -> list:
    return [tx for tx in journal.expand()[1] if after < tx.date <= through]


@pytest.mark.parametrize("shape", ["wide", "long"])
def test_a_close_sums_each_months_posted_steps_once(monkeypatch, shape):
    """After the first month, whose stock and flow are both first reads,
    a month's stock, flow and reconcile together sum exactly that month's
    posted steps, once: a stock built forward on last month's keeps the
    flow it summed. On a wide chart they recompute only the leaves those
    steps post to."""
    if shape == "wide":
        journal = wide_journal(random.Random(7), accounts=240, transactions=60)
    else:  # each month has more transactions than the chart has leaves
        journal = wide_journal(random.Random(8), accounts=12, transactions=200, busy=3)
    calls = list(summed(monkeypatch, journal, month_calls()))
    for month, (first, last) in enumerate(CLOSE):
        steps, leaves = Counter(), Counter()
        for _, _, month_steps, month_leaves in calls[3 * month : 3 * month + 3]:
            steps += month_steps
            leaves += month_leaves
        posted = posted_in(journal, first, last)
        assert posted or shape == "wide"
        want = Counter(id(tx) for tx in posted)
        assert steps == (want + want if month == 0 else want), (first, last)
        if shape == "wide":  # where the final pairs, raw, would cost every leaf
            assert set(leaves) <= {p.account for tx in posted for p in tx.postings}, (first, last)


def test_a_close_builds_the_zero_base_once(monkeypatch):
    """The all-zero base's pairs, and its TAccounts once a lookup is kept,
    are each built once per replay, on first need: every view built on zero,
    and every flow a forward stock keeps, copies the same dicts. After the
    first month, no month hashes as many paths as the chart has leaves."""
    journal = wide_journal(random.Random(27), accounts=1500, transactions=40)
    leaves = len(journal.expand()[0].leaves())
    assert leaves >= 1000
    replay, built, zeros, hashes = journal._replay, tledger.ledger._Replay._built, [], Counter()

    def counted_built(self, base, *rest):
        if base[0] is None and base[1] is not self.final:  # kept, so no id is reused
            zeros.append(base)
        return built(self, base, *rest)

    def counted_hash(path):
        hashes[month] += 1
        return path._hash

    monkeypatch.setattr(tledger.ledger._Replay, "_built", counted_built)
    monkeypatch.setattr(AccountPath, "__hash__", counted_hash)
    for month, (first, last) in enumerate(CLOSE):
        for kind, args in month_calls()[3 * month : 3 * month + 3]:
            getattr(journal, kind)(*args)
    assert len(zeros) > 2
    assert len({id(pairs) for _, pairs, _ in zeros}) == 1
    assert len({id(held) for _, _, held in zeros if held is not None}) == 1
    assert zeros[0][1] is replay._zero(False)[1]
    assert max(hashes[month] for month in range(1, len(CLOSE))) < leaves


@pytest.mark.parametrize("kind", ["stock_at", "flow_between"])
def test_a_first_lookup_over_every_posted_step_reads_the_final_pairs(monkeypatch, kind):
    """A journal's first stock at or after its last posted step, or first
    flow over every posted step, sums no step: it reads the final pairs."""
    journal = wide_journal(random.Random(28), accounts=40, transactions=30)
    txs = journal.expand()[1]
    args = (txs[-1].date,) if kind == "stock_at" else (txs[0].date - DAY, txs[-1].date)
    calls = []
    monkeypatch.setattr(tledger.ledger._Replay, "_summed", lambda *call: calls.append(call))
    getattr(journal, kind)(*args)
    assert calls == []


def test_a_last_stock_after_a_close_builds_forward_on_a_kept_one(monkeypatch):
    """After a close's first eleven months, the stock at the last posted
    step sums December's steps onto November's kept stock, and builds
    TAccounts only for the leaves those steps post to: every other leaf
    keeps November's TAccount."""
    journal = wide_journal(random.Random(29), accounts=240, transactions=60)
    *months, (first, last) = CLOSE
    assert journal.expand()[1][-1].date <= last
    for kind, args in month_calls()[: 3 * len(months)]:
        getattr(journal, kind)(*args)
    november = journal.stock_at(first).balances
    built, bases = tledger.ledger._Replay._built, []

    def counted_built(self, base, *rest):
        bases.append(base[0])
        return built(self, base, *rest)

    monkeypatch.setattr(tledger.ledger._Replay, "_built", counted_built)
    (_, _, steps, _), = summed(monkeypatch, journal, [("stock_at", (last,))])
    posted = posted_in(journal, first, last)
    assert posted and steps == Counter(id(tx) for tx in posted)
    assert bases[0] == (None, first)
    moved = {p.account for tx in posted for p in tx.postings}
    kept = {leaf for leaf, t in november.items() if not t.is_zero and leaf not in moved}
    assert kept  # leaves that the final pairs would rebuild
    december = journal.stock_at(last).balances
    assert {leaf for leaf in december if december[leaf] is not november[leaf]} <= moved
