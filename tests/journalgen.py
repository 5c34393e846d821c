"""Deterministic random generators for the fuzz suites.

Everything is driven by an explicit random.Random so corpora are
reproducible across runs. Generated journals are valid by construction:
each transaction's last posting balances the rest, so the sum is a zero
representative with component equality.
"""

from __future__ import annotations

import datetime as dt
import random
import re
from fractions import Fraction

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
    serialize_journal,
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
    net = Fraction(0)  # debits minus credits, summed here, not by the code under test
    for _ in range(k - 1):
        amount = Amount(rng.randint(0, 999), rng.randint(1, 50))
        debit = rng.random() < 0.5
        entry = TAccount.dr(amount) if debit else TAccount.cr(amount)
        postings.append(Posting(rng.choice(leaves), entry))
        net += amount.as_fraction if debit else -amount.as_fraction
    balancing = TAccount.cr(Amount(net)) if net > 0 else TAccount.dr(Amount(-net))
    postings.append(Posting(rng.choice(leaves), balancing))
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


_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_EDGE_DATES = [
    "0001-01-01", "0000-01-01", "0001-01-00", "9999-12-31", "9999-12-32",
    "10000-01-01", "2020-02-29", "2021-02-29", "2020-1-01",
]
_TOKENS = [
    "dr", "cr", "debit", "credit", "account", "basis", "schedule", "over", "yearly",
    "from", "mode", "direct", "contra", "5", "0", "1/0", "2020-01-01", '"x"', ";", ":",
    "a:b", "\u0663", "\u00a0", "\u3000", "\t",
]
_LONG_LITERALS = [
    "9" * 4299, "9" * 4300, "9" * 4301, "1/" + "7" * 4300, "1/" + "7" * 4301,
    "1" * 2150 + "." + "1" * 2150, "1" * 2150 + "." + "1" * 2151,
]


def _postings(lines):
    return [i for i, line in enumerate(lines) if line[:1] in (" ", "\t") and line.split()]


def _posted(lines, rng):
    return rng.choice([lines[i].split()[0] for i in _postings(lines)] or ["x"])


def _declared(lines):
    return [words[1] for words in map(str.split, lines) if words[:1] == ["account"] and words[1:]]


def _leaf(lines, rng):
    return rng.choice(_declared(lines) or ["x"])


def _swap(lines, i, k, token):
    """Line i with its k-th whitespace-separated token, if it has one, replaced."""
    spots = list(re.finditer(r"\S+", lines[i]))
    if k < len(spots):
        lines[i] = lines[i][: spots[k].start()] + token + lines[i][spots[k].end() :]


def _edge_date(lines, rng):
    dated = [i for i, line in enumerate(lines) if _DATE_RE.search(line)]
    if dated:
        i = rng.choice(dated)
        lines[i] = _DATE_RE.sub(rng.choice(_EDGE_DATES), lines[i], count=1)


def _count_near_cap(lines, rng):
    # A start near the year 9999 keeps a count that fits small, whatever
    # date a later mutation gives it; the other counts are refused from any start.
    year = rng.randint(9988, 9999)
    n = rng.choice([9999 - year - 1, 9999 - year, 9999 - year + 1, 0, 99999, 10**30])
    lines += [
        "account cap",
        f"schedule {_leaf(lines, rng)} cap 12 over {str(n).zfill(rng.choice([1, 6]))}"
        f" yearly from {year}-01-01 mode {rng.choice(['direct', 'contra'])}",
    ]


def _non_ascii(lines, rng):
    i = rng.randrange(len(lines))
    line = lines[i]
    spots = [j for j, ch in enumerate(line) if ch in " 0123456789"] or [len(line)]
    j = rng.choice(spots)
    ch = rng.choice(["\u00a0", "\u3000"] if line[j : j + 1] == " " else ["\u0663", "\uff15"])
    lines[i] = line[:j] + ch + line[j + 1 :]


def _long_literal(lines, rng):
    if postings := _postings(lines):
        _swap(lines, rng.choice(postings), 2, rng.choice(_LONG_LITERALS))


def _interior_posting(lines, rng):
    interior = sorted({path.rsplit(":", 1)[0] for path in _declared(lines) if ":" in path})
    if postings := _postings(lines):
        _swap(lines, rng.choice(postings), 0, rng.choice(interior or ["nowhere"]))


def _prefix_collision(lines, rng):
    lines.append(
        f"schedule {_leaf(lines, rng)} {_posted(lines, rng)} 10 over {rng.randint(1, 3)}"
        f" yearly from 2020-01-01 mode {rng.choice(['direct', 'contra'])}"
    )


def _edit_token(lines, rng):
    i = rng.randrange(len(lines))
    tokens = lines[i].split(" ")
    j = rng.randrange(len(tokens) + 1)
    action = rng.choice(["insert", "replace", "delete"])
    if action == "insert" or not tokens[j:]:
        tokens.insert(j, rng.choice(_TOKENS))
    elif action == "replace":
        tokens[j] = rng.choice(_TOKENS)
    else:
        del tokens[j]
    lines[i] = " ".join(tokens)


_MUTATIONS = [
    _edge_date, _count_near_cap, _non_ascii, _long_literal,
    _interior_posting, _prefix_collision, _edit_token, _edit_token,
]


def mutated_journals(rng: random.Random, count: int) -> list[str]:
    """Small journals, each one to three token mutations away from a valid one.

    The mutations probe the edges of the grammar and of its checks: dates
    at both ends of the range, schedule period counts near the year-9999
    cap, non-ASCII digits and whitespace, literals of 4300 +- 1 digits,
    postings to interior accounts, schedules whose counterpart prefix is
    a posted account, and keywords and tokens inserted, replaced or
    deleted. Some texts are restyled first, and some get CRLF line ends or
    a byte order mark. Every schedule emits at most a dozen periods.
    """
    texts = []
    for _ in range(count):
        text = serialize_journal(random_journal(rng, max_accounts=8, max_transactions=5))
        if rng.random() < 0.3:
            text = restyled(text, rng)
        lines = text.split("\n")
        for _ in range(rng.randint(1, 3)):
            rng.choice(_MUTATIONS)(lines, rng)
        text = "\n".join(lines)
        if rng.random() < 0.15:
            text = text.replace("\n", "\r\n")
        if rng.random() < 0.15:
            text = "\ufeff" + text
        texts.append(text)
    return texts
