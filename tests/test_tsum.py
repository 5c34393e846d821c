"""The library's T-account sum, reduce and equivalent, against the code they replace.

Every library sum of many pairs (Transaction.total, Ledger.total,
Ledger.aggregate, Ledger.refine's share sum, Journal.income_report's
total) is one pass over a common denominator, and reduce and equivalent
read balance(). The references kept here are the earlier forms: a fold
of TAccount.__add__ from the zero pair, a reduce that compares the
sides and subtracts the smaller, and equivalent by cross-sums. Each
result must be ==, with the same repr, to the reference's, and a sum
must also hash the same, on seeded ledgers at every step, stocks over
primes, the empty and one-entry inputs, an iterator read once, random
pairs, zero pairs and pairs with sides of thousands of digits.
"""

import datetime as dt
import random
from fractions import Fraction
from math import lcm

import pytest

from journalgen import prime_journal, random_journal, random_taccount
from tledger import (
    AccountPath,
    Amount,
    Chart,
    Ledger,
    PartitionMismatchError,
    Posting,
    TAccount,
    Transaction,
    parse_journal,
)
from tledger.algebra import _ZERO_AMOUNT, _signed, _sum


def reference_sum(entries) -> TAccount:
    out = TAccount.zero()
    for entry in entries:
        out = out + entry
    return out


def reference_reduce(t: TAccount) -> TAccount:
    debit, credit = t.debit, t.credit
    if debit >= credit:
        return TAccount(debit - credit, _ZERO_AMOUNT)
    return TAccount(_ZERO_AMOUNT, credit - debit)


def reference_equivalent(a: TAccount, b: TAccount) -> bool:
    return (
        a.debit.as_fraction + b.credit.as_fraction
        == b.debit.as_fraction + a.credit.as_fraction
    )


def same_pair(got: TAccount, want: TAccount) -> None:
    assert got == want and want == got
    assert repr(got) == repr(want)


def same_sum(got: TAccount, want: TAccount) -> None:
    same_pair(got, want)
    assert hash(got) == hash(want)


def same_class_ops(a: TAccount, b: TAccount) -> None:
    same_pair(a.reduce(), reference_reduce(a))
    assert a.equivalent(b) == reference_equivalent(a, b)
    assert b.equivalent(a) == reference_equivalent(b, a)


def huge(rng: random.Random, digits: int = 5000) -> Amount:
    return Amount(rng.randrange(10 ** (digits - 1), 10**digits), rng.randrange(1, 10**digits))


LEDGER_SEEDS = range(1901, 1913)


@pytest.mark.parametrize("seed", LEDGER_SEEDS)
def test_every_step_of_a_seeded_ledger(seed):
    rng = random.Random(seed)
    journal = random_journal(rng, max_accounts=25, max_transactions=60)
    chart, txs = journal.expand()
    paths = list(chart.nodes)
    ledger = Ledger.empty(chart)
    same_sum(ledger.total(), reference_sum(ledger.balances.values()))
    for tx in txs:
        same_sum(tx.total(), reference_sum(p.entry for p in tx.postings))
        before = ledger
        ledger = ledger.post(tx)
        same_sum(ledger.total(), reference_sum(ledger.balances.values()))
        path = rng.choice(paths)
        same_sum(
            ledger.aggregate(path),
            reference_sum(t for leaf, t in ledger.balances.items() if path.covers(leaf)),
        )
        for p in tx.postings:
            now, then = ledger.balances[p.account], before.balances[p.account]
            same_class_ops(now, then)
            same_class_ops(now, now.reduce())
            same_class_ops(p.entry, p.entry.inverse())
    for path in paths:
        same_sum(
            ledger.aggregate(path),
            reference_sum(t for leaf, t in ledger.balances.items() if path.covers(leaf)),
        )
    for t in ledger.balances.values():
        same_class_ops(t, t + TAccount(t.credit, t.credit))


@pytest.mark.parametrize("seed", LEDGER_SEEDS[:4])
def test_views_and_income_report_of_a_seeded_journal(seed):
    journal = random_journal(random.Random(seed), max_accounts=25, max_transactions=60)
    chart, txs = journal.expand()
    dates = sorted({tx.date for tx in txs})
    roots = [path for path in chart.nodes if path.parent is None]
    for start, end in zip(dates, dates[len(dates) // 2 :]):
        for view in (journal.stock_at(end), journal.flow_between(start, end)):
            same_sum(view.total(), reference_sum(view.balances.values()))
        report = journal.income_report(start, end, roots)
        flow = journal.flow_between(start, end)
        want = reference_sum(flow.aggregate(root) for root in roots)
        same_sum(report.total, want)
        assert report.rows == tuple((root, flow.aggregate(root)) for root in roots)
        assert report.net_income == -want.balance()


def test_stocks_over_primes():
    journal, diags = parse_journal(prime_journal(random.Random(1907), n_tx=900))
    assert journal is not None and not diags
    dates = sorted({tx.date for tx in journal.transactions})
    digits = []
    for cutoff in dates[len(dates) // 4 :: len(dates) // 4]:
        stock = journal.stock_at(cutoff)
        entries = list(stock.balances.values())
        scale = lcm(*(side.denominator for t in entries for side in (t.debit, t.credit)))
        digits.append(len(str(scale)))
        same_sum(stock.total(), reference_sum(entries))
        for path in stock.chart.nodes:
            same_sum(
                stock.aggregate(path),
                reference_sum(t for leaf, t in stock.balances.items() if path.covers(leaf)),
            )
        wash = TAccount(entries[-1].debit, entries[-1].debit)
        for a in entries:
            for b in entries:
                same_class_ops(a, b)
            same_class_ops(a, a + wash)
    assert min(digits) > 500 and max(digits) > 3000


def test_the_empty_sum_one_entry_and_an_iterator_read_once():
    same_sum(_sum([]), TAccount.zero())
    same_sum(_sum(iter(())), reference_sum(()))
    rng = random.Random(1908)
    for entry in (TAccount.zero(), TAccount.dr(Amount(3, 7)), random_taccount(rng)):
        same_sum(_sum([entry]), reference_sum([entry]))
        same_sum(_sum([entry]), entry)
    entries = [random_taccount(rng) for _ in range(9)]
    once = (t for t in entries)
    same_sum(_sum(once), reference_sum(entries))
    assert next(once, None) is None


def test_random_zero_and_huge_pairs():
    rng = random.Random(1909)
    for n in range(2, 40):
        entries = [random_taccount(rng) for _ in range(n)]
        same_sum(_sum(entries), reference_sum(entries))
        for a, b in zip(entries, entries[1:]):
            same_class_ops(a, b)
            same_class_ops(a, a + b + b.inverse())
    for x in (_ZERO_AMOUNT, Amount(0), Amount(5, 3), huge(rng)):
        zero = TAccount(x, x)
        same_class_ops(zero, TAccount.zero())
        same_sum(_sum([zero, zero]), reference_sum([zero, zero]))
    bigs = [TAccount(huge(rng), huge(rng)) for _ in range(4)]
    bigs += [TAccount.dr(huge(rng)), TAccount.cr(huge(rng)), TAccount.zero()]
    same_sum(_sum(bigs), reference_sum(bigs))
    for a in bigs:
        for b in bigs:
            same_class_ops(a, b)
        same_class_ops(a, a + bigs[0] + bigs[0].inverse())


def test_refine_checks_its_shares_with_the_sum():
    chart = Chart.empty().declare(AccountPath(("a",))).declare(AccountPath(("b",)))
    a, b = AccountPath(("a",)), AccountPath(("b",))
    tx = Transaction(
        dt.date(2020, 1, 1),
        "t",
        (Posting(a, TAccount.dr(Amount(5, 6))), Posting(b, TAccount.cr(Amount(5, 6)))),
    )
    ledger = Ledger.empty(chart).post(tx)
    shares = [(a.child("x"), TAccount.dr(Amount(1, 2))), (a.child("y"), TAccount.dr(Amount(1, 3)))]
    refined = ledger.refine(a, shares)
    same_sum(refined.aggregate(a), ledger.balances[a])
    short = [shares[0], (a.child("y"), TAccount.dr(Amount(1, 4)))]
    want = reference_sum(share for _, share in short)
    residual = want.balance() - ledger.balances[a].balance()
    with pytest.raises(PartitionMismatchError) as err:
        ledger.refine(a, short)
    assert str(err.value) == (
        f"shares sum to {want}, parent holds {ledger.balances[a]}"
        f" (signed residual {_signed(residual)})"
    )
    assert err.value.residual == residual == Fraction(-1, 12)


def test_a_leaf_no_step_touches_keeps_the_total_nonzero():
    """An unbalanced leaf must show in every total, or c4 would prove nothing."""
    rng = random.Random(1910)
    journal = random_journal(rng, max_accounts=25, max_transactions=60)
    chart, txs = journal.expand()
    touched = {p.account for tx in txs for p in tx.postings}
    spare = AccountPath(("spare",))
    chart = chart.declare(spare)
    assert spare in chart.leaves() and spare not in touched
    seventh = TAccount.dr(Amount(1, 7))
    ledger = Ledger(chart, {**Ledger.empty(chart).balances, spare: seventh})
    states = [ledger]
    for tx in txs:
        states.append(states[-1].post(tx))
    for ledger in states:
        total = ledger.total()
        assert not total.is_zero
        assert total.balance() == Fraction(1, 7)
        same_sum(total, reference_sum(ledger.balances.values()))
        same_sum(ledger.aggregate(spare), seventh)
