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


def prime_journal(rng, n_tx=40):
    """Amounts k/p over distinct primes, so the scale D has hundreds of digits."""
    accounts = ["assets:cash", "assets:bank", "income:sales", "expenses:rent", "equity:capital"]
    lines = [f"account {a}" for a in accounts]
    days = sorted(rng.randint(0, 365) for _ in range(n_tx))
    for i, (day, p) in enumerate(zip(days, first_primes(n_tx + 20)[20:])):
        a, b = rng.sample(accounts, 2)
        k = rng.randint(1, 10**6)
        date = dt.date(2020, 1, 1) + dt.timedelta(days=day)
        lines += ["", f'{date} "t{i}"', f"    {a} dr {k}/{p}", f"    {b} cr {k}/{p}"]
    return "\n".join(lines) + "\n"


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


def restyled(text: str, rng: random.Random) -> str:
    """The same journal in other well-formed spellings.

    Posting and header lines get other indents and separators (tab,
    U+3000, no-break space), the longhand side keywords, integer amounts
    as decimals, trailing whitespace, comments and CRs.
    """
    out = []
    gaps = [" ", "\t", "  ", "\u00a0", " \u3000"]
    for line in text.split("\n"):
        if line.startswith("    "):
            account, side, amount = line.split()
            if rng.random() < 0.5:
                side = {"dr": "debit", "cr": "credit"}[side]
            if amount.isdigit() and rng.random() < 0.5:
                amount += rng.choice([".0", ".00"])
            indent = rng.choice(["    ", "\t", " \t", " \u3000", " "])
            line = indent + account + rng.choice(gaps) + side + rng.choice(gaps) + amount
        elif line[:1].isdigit():
            date, description = line.split(" ", 1)
            line = date + rng.choice(gaps) + description
        else:
            out.append(line)
            continue
        line += rng.choice(["", " ", "\t", " ; a note", ";x", "\x1c", " ;"])
        out.append(line + rng.choice(["", "", "\r"]))
    return "\n".join(out)


_HOSTILE_DECLARATIONS = (
    "account assets:cash\naccount assets:bank\naccount equity:capital\n"
    "account x\naccount x:y\n\n"
)
_HOSTILE_POSTINGS = [
    "\tassets:cash dr 5",
    " \t assets:cash dr 5",
    "\u3000assets:cash dr 5",
    " \u3000assets:cash dr 5",
    "    assets:cash dr 5\x1c",
    "    assets:cash\x1cdr\x1c5",
    "    assets:cash\u00a0dr 5",
    "    assets:cash debit 5",
    "    assets:cash credit 5",
    "    assets:cash DR 5",
    "    assets:cash dr 1/0",
    "    assets:cash dr 5/0000",
    "    assets:cash dr 0/5",
    "    assets:cash dr 007",
    "    assets:cash dr 1.",
    "    assets:cash dr .5",
    "    assets:cash dr 5.",
    "    assets:cash dr -5",
    "    assets:cash dr +5",
    "    assets:cash dr 1e3",
    "    assets:cash dr \uff15",
    "    assets:cash dr " + "9" * 4300,
    "    assets:cash dr " + "9" * 4301,
    "    assets:cash dr 1/" + "7" * 4301,
    "    assets:cash dr " + "1" * 2150 + "." + "1" * 2151,
    "    undeclared:account dr 5",
    "    assets dr 5",
    "    x dr 5",
    "    Assets:Cash dr 5",
    "    assets:cash: dr 5",
    "    assets:cash dr",
    "    assets:cash dr 5 extra",
    "    assets:cash dr 5 ; a comment",
    "    assets:cash dr 5;a comment",
    "    assets:cash dr 5 ;",
    "    assets:cash dr;5",
    "    as;sets:cash dr 5",
    "    assets:cash dr 5\r",
    "    ; a comment-only line",
]
_HOSTILE_HEADERS = [
    '2020-02-30 "t"',
    '2020-13-01 "t"',
    '0000-01-01 "t"',
    '9999-12-31 "t"',
    '2020-01-01 "t"   ',
    '2020-01-01 "t" ; a comment',
    '2020-01-01 "t";c',
    '2020-01-01 "a;b"',
    '2020-01-01 "t" x',
    '2020-01-01"t"',
    '2020-1-01 "t"',
    '2020-01-01 "t',
    '2020-01-01 "t"\r',
    '2020-01-01\t"t"',
    '2020-01-01\u3000"t"',
    '2020-01-01 "t" "u"',
    '\uff12020-01-01 "t"',
    ' 2020-01-01 "t"',
    '\u30002020-01-01 "t"',
]


def hostile_journals() -> list[str]:
    """Small journals whose lines probe the edges of the line grammar.

    Each varies one posting line or one header line of a balanced block,
    or arranges well-formed lines where they do not belong: a posting
    outside a block, a header inside one, lines after an error, loose
    use of an undeclared account, CRLF, a byte order mark.
    """
    block = '2020-01-01 "t"\n{}\n    equity:capital cr 5\n'
    texts = [_HOSTILE_DECLARATIONS + block.format(p) for p in _HOSTILE_POSTINGS]
    texts += [
        _HOSTILE_DECLARATIONS + f"{h}\n    assets:cash dr 5\n    equity:capital cr 5\n"
        for h in _HOSTILE_HEADERS
    ]
    good = block.format("    assets:cash dr 5")
    texts += [
        _HOSTILE_DECLARATIONS + "    assets:cash dr 5\n\n" + good,
        _HOSTILE_DECLARATIONS + good + good,
        _HOSTILE_DECLARATIONS
        + '2020-01-01 "t"\n    assets:cash dr 5 5\n    assets:cash dr 5\n'
        + '2020-01-02 "u"\n    equity:capital cr 5\n  \t\n'
        + good,
        _HOSTILE_DECLARATIONS
        + '2020-01-01 "t"\n    assets:cash DR 5\n    assets:cash dr 5\n'
        + '2020-01-02 "u"\n    equity:capital cr 5\n',
        _HOSTILE_DECLARATIONS
        + '2020-02-30 "t"\n    assets:cash dr 5\n    equity:capital cr 5\n\n'
        + good,
        _HOSTILE_DECLARATIONS
        + '2020-01-01 "t"\n    new:a dr 5\n    new:a cr 5\n    new:b dr 1\n'
        + "    new dr 1\n    new:b cr 2\n    new dr 1\n    assets dr 1\n"
        + "    assets dr 1\n    x dr 1\n    x cr 1\n",
        (_HOSTILE_DECLARATIONS + good + "\n" + good).replace("\n", "\r\n"),
        "\ufeff" + _HOSTILE_DECLARATIONS + good,
        good,
    ]
    return texts
