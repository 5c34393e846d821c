"""Deterministic random generators for the fuzz suites.

Everything is driven by an explicit random.Random so corpora are
reproducible across runs. Generated journals are valid by construction:
each transaction's last posting balances the rest, so the sum is a zero
representative with component equality.
"""

from __future__ import annotations

import datetime as dt
import random

from tledger import (
    AccountPath,
    Amount,
    Chart,
    Journal,
    Posting,
    ScheduleMode,
    TAccount,
    Transaction,
    build_schedule,
)

BASE_DATE = dt.date(2020, 1, 1)


def random_amount(rng: random.Random, max_num: int = 10**6, max_den: int = 10**3) -> Amount:
    return Amount(rng.randint(0, max_num), rng.randint(1, max_den))


def random_taccount(rng: random.Random) -> TAccount:
    return TAccount(random_amount(rng), random_amount(rng))


def random_chart(rng: random.Random, n_accounts: int) -> tuple[Chart, list[AccountPath]]:
    """A random tree of n_accounts declared paths; returns its postable leaves."""
    chart = Chart.empty()
    paths: list[AccountPath] = []
    for i in range(n_accounts):
        segment = f"a{i}"
        if paths and rng.random() < 0.4:
            path = rng.choice(paths).child(segment)
        else:
            path = AccountPath((segment,))
        chart = chart.declare(path)
        paths.append(path)
    return chart, list(chart.leaves())


def random_transaction(
    rng: random.Random, leaves: list[AccountPath], date: dt.date, label: int
) -> Transaction:
    k = rng.randint(2, 5)
    postings = []
    running = TAccount.zero()
    for _ in range(k - 1):
        amount = Amount(rng.randint(0, 999), rng.randint(1, 50))
        entry = TAccount.dr(amount) if rng.random() < 0.5 else TAccount.cr(amount)
        postings.append(Posting(rng.choice(leaves), entry))
        running = running + entry
    postings.append(Posting(rng.choice(leaves), running.inverse().reduce()))
    return Transaction(date, f"generated {label}", tuple(postings))


def first_primes(count: int) -> list[int]:
    """The first count primes, for sums whose denominators grow fastest."""
    primes: list[int] = []
    n = 2
    while len(primes) < count:
        if all(n % q for q in primes if q * q <= n):
            primes.append(n)
        n += 1
    return primes


def random_journal(
    rng: random.Random, max_accounts: int = 50, max_transactions: int = 200
) -> Journal:
    chart, leaves = random_chart(rng, rng.randint(2, max_accounts))
    schedules = ()
    if rng.random() < 0.3:
        # The counterpart prefix gets per-period children, so it must be
        # an account no transaction posts to.
        prefix = AccountPath(("periodcosts",))
        chart = chart.declare(prefix)
        schedules = (
            build_schedule(
                source=rng.choice(leaves),
                counterpart_prefix=prefix,
                total=Amount(rng.randint(1, 999), rng.randint(1, 50)),
                n=rng.randint(1, 8),
                start=BASE_DATE + dt.timedelta(days=rng.randint(0, 200)),
                mode=rng.choice([ScheduleMode.DIRECT, ScheduleMode.CONTRA]),
            ),
        )
    n_tx = rng.randint(1, max_transactions)
    transactions = tuple(
        random_transaction(
            rng, leaves, BASE_DATE + dt.timedelta(days=rng.randint(0, 365)), i
        )
        for i in range(n_tx)
    )
    basis = None
    if rng.random() < 0.5:
        basis = Amount(rng.randint(1, 10**6), rng.randint(1, 100))
    return Journal(chart, transactions, schedules, basis)
