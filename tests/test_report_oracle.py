"""The printed reports, and the views' account order, against an oracle.

balance, equation and flows run through cli.main on seeded generated
journals: plain, restyled, with shuffled account lines, with prime
denominators, and under --loose with every account, about half of them
or none declared; and on a small journal of exact rounding ties. Every
stdout line is rebuilt here from one signed Fraction per account, summed
straight off the expanded postings as tests/oracles.py sums them. The
oracle knows nothing of the replay's integers or views: subtree sums add
every leaf under a node, path order is a sort on the colon-split names,
and oracles.fmt prints every number, a percentage of the basis under
--percent, rounding --decimal half to even by integer arithmetic of its
own. stderr is read from the text too: nothing on a strict run, and
under --loose one warning for each account named on a posting or
schedule line and on no account line.

The views must list accounts in that same path order, the replay's own:
the keys of stock_at and flow_between balances, and reconcile's rows.

check and schedule are read against the journal text alone. check
counts its authored headers plus every schedule line's periods; each
period schedule prints is re-derived from its schedule line: the k-th
anniversary of the start (Feb 29 on Feb 28 off leap years) and exactly
total/n, the periods summing to the total.
"""

import calendar
import datetime as dt
import io
import re
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from journalgen import prime_journal, random_journal, restyled
from oracles import fmt, half_even
from tledger import parse_journal, serialize_journal
from tledger.cli import main

DAY = dt.timedelta(days=1)


# -- the journals -----------------------------------------------------


def shuffled_accounts(text: str, rng: random.Random) -> str:
    """The same journal with its account lines in random order."""
    lines = text.split("\n")
    at = [i for i, line in enumerate(lines) if line.startswith("account ")]
    moved = [lines[i] for i in at]
    rng.shuffle(moved)
    for i, line in zip(at, moved):
        lines[i] = line
    return "\n".join(lines)


def undeclared(text: str) -> str:
    """The loose-mode twin: no account lines at all."""
    return "\n".join(line for line in text.split("\n") if not line.startswith("account "))


def half_declared(text: str) -> str:
    """A loose-mode twin that keeps every second account line."""
    lines = text.split("\n")
    dropped = [i for i, line in enumerate(lines) if line.startswith("account ")][::2]
    return "\n".join(line for i, line in enumerate(lines) if i not in dropped)


def generated(seed: int, scheduled: bool) -> str:
    rng = random.Random(seed)
    while True:
        journal = random_journal(rng, max_accounts=24, max_transactions=16)
        if bool(journal.schedules) == scheduled and journal.basis is not None:
            return serialize_journal(journal)


# Exact ties at --decimal 0 and 2 (2.5, 0.125, 3.625), which half-up would round up.
TIES = (
    "basis 8\naccount assets:cash\naccount assets:bank\naccount income:sales\n"
    "account equity:capital\n\n"
    '2020-01-01 "open"\n    assets:cash dr 2.5\n    assets:bank dr 0.125\n'
    "    equity:capital cr 2.625\n\n"
    '2020-01-02 "sale"\n    assets:bank dr 3.5\n    income:sales cr 3.5\n'
)


def corpus() -> list[tuple[str, str, bool]]:
    """(name, text, strict) for every journal the tests read."""
    rng = random.Random(1515)
    plain, scheduled = generated(151, False), generated(152, True)
    prime = prime_journal(random.Random(153), n_tx=12)
    return [
        ("plain", plain, True),
        ("scheduled", scheduled, True),
        ("restyled", restyled(scheduled, rng), True),
        ("shuffled", shuffled_accounts(plain, rng), True),
        ("shuffled-scheduled", shuffled_accounts(scheduled, rng), True),
        ("loose", undeclared(plain), False),
        ("loose-declared", scheduled, False),
        ("loose-half", half_declared(scheduled), False),
        ("prime-basis", "basis 1000003/7\n" + prime, True),
        ("ties", TIES, True),
    ]


CORPUS = corpus()


# -- the oracle -------------------------------------------------------


def path_key(path) -> list[str]:
    return str(path).split(":")


class Oracle:
    """One journal's numbers as signed Fractions, straight off its postings."""

    def __init__(self, text: str, strict: bool):
        journal, _ = parse_journal(text, strict=strict)
        chart, self.txs = journal.expand()
        self.nodes = list(chart.nodes)
        self.leaves = [p for p in self.nodes if not any(q.parent == p for q in self.nodes)]
        self.basis = journal.basis.as_fraction if journal.basis is not None else None

    def signed(self, after, through) -> dict:
        """Each leaf's debit minus credit over (after, through]."""
        out = {leaf: Fraction(0) for leaf in self.leaves}
        for tx in self.txs:
            if (after is None or tx.date > after) and tx.date <= through:
                for p in tx.postings:
                    out[p.account] += p.entry.debit.as_fraction - p.entry.credit.as_fraction
        return out

    def last(self) -> dt.date:
        return self.txs[-1].date if self.txs else dt.date.min

    def scale(self, percent: bool) -> Fraction:
        return 1 / self.basis if percent else Fraction(1)

    @staticmethod
    def pair(debit: Fraction, credit: Fraction, places, percent) -> str:
        return f"({fmt(debit, places, percent)}, {fmt(credit, places, percent)})"

    def total_line(self, debit: Fraction, credit: Fraction, places, percent) -> str:
        assert debit == credit
        return f"total  {self.pair(debit, credit, places, percent)}  = 0  ok"

    def balance(self, at, percent, places, show_zero) -> str:
        cutoff = at or self.last()
        k = self.scale(percent)
        signed = {leaf: s * k for leaf, s in self.signed(None, cutoff).items()}
        lines = [f"balance as of {cutoff.isoformat()}"]
        for node in sorted(self.nodes, key=path_key):
            name = path_key(node)
            under = [leaf for leaf in self.leaves if path_key(leaf)[: len(name)] == name]
            if any(signed[leaf] or show_zero for leaf in under):
                total = sum((signed[leaf] for leaf in under), Fraction(0))
                lines.append(f"{'  ' * len(name)}{name[-1]}  {fmt(total, places, percent)}")
        debit = sum((max(s, 0) for s in signed.values()), Fraction(0))
        credit = sum((max(-s, 0) for s in signed.values()), Fraction(0))
        lines.append(self.total_line(debit, credit, places, percent))
        return "\n".join(lines) + "\n"

    def equation(self, at, percent, places) -> str:
        signed = self.signed(None, at or self.last())
        k = self.scale(percent)
        terms = []
        for leaf in sorted(self.leaves, key=path_key):
            s = signed[leaf] * k
            if s:
                debit, credit = max(s, 0), max(-s, 0)
                terms.append(f"{self.pair(debit, credit, places, percent)}_{leaf}")
        debit = sum((max(s, 0) for s in signed.values()), Fraction(0)) * k
        credit = sum((max(-s, 0) for s in signed.values()), Fraction(0)) * k
        total = self.total_line(debit, credit, places, percent)
        return f"0 = {' + '.join(terms) or '(0, 0)'}\n{total}\n"

    def flows(self, start, end, percent, places, show_zero) -> tuple[int, str, str]:
        if start is None:
            start = self.txs[0].date - DAY if self.txs else dt.date.min
        end = end or self.last()
        if start > end:
            return 1, "", f"error: inverted interval: {start} > {end}\n"
        k = self.scale(percent)
        signed = self.signed(start, end)
        lines = [f"flows from {start.isoformat()} to {end.isoformat()}"]
        for leaf in sorted(self.leaves, key=path_key):
            net = signed[leaf] * k
            if net or show_zero:
                side = "cr" if net < 0 else "dr"
                lines.append(f"  {leaf}  {side} {fmt(abs(net), places, percent)}")
        moved = [p.entry for tx in self.txs if start < tx.date <= end for p in tx.postings]
        debit = sum((e.debit.as_fraction for e in moved), Fraction(0)) * k
        credit = sum((e.credit.as_fraction for e in moved), Fraction(0)) * k
        lines.append(self.total_line(debit, credit, places, percent))
        return 0, "\n".join(lines) + "\n", ""


# -- the runs ---------------------------------------------------------


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def probe_dates(oracle: Oracle) -> list[dt.date]:
    """The first, a middle and the last transaction date, and the days
    just before and after each."""
    dates = sorted({tx.date for tx in oracle.txs})
    picked = [dates[0], dates[len(dates) // 2], dates[-1]]
    return sorted({d + k * DAY for d in picked for k in (-1, 0, 1)})


# (--decimal places, --percent, --show-zero)
RENDERINGS = [
    (None, False, False),
    (2, False, False),
    (None, True, False),
    (None, False, True),
    (0, True, True),
    (12, True, False),
]


def flags(places, percent, show_zero) -> list[str]:
    out = [] if places is None else ["--decimal", str(places)]
    return out + ["--percent"] * percent + ["--show-zero"] * show_zero


def implicit_accounts(text: str) -> list[str]:
    """The accounts a --loose run declares on use: those named on a schedule
    or posting line and on no account line, sorted."""
    declared, used = set(), set()
    for line in text.split("\n"):
        tokens = line.split(";")[0].split()
        if tokens[:1] == ["account"]:
            declared.add(tokens[1])
        elif tokens[:1] == ["schedule"]:
            used.update(tokens[1:3])
        elif tokens and line[0].isspace():
            used.add(tokens[0])
    return sorted(used - declared)


WARNING = re.compile(r".+:\d+:\d+: warning: implicitly declared account (\S+)")


def check_stderr(err: str, text: str, strict: bool):
    """A strict run writes nothing to stderr; a loose one one warning for each
    account it declares on use, and nothing else."""
    warned = [WARNING.fullmatch(line) for line in err.splitlines()]
    assert all(warned), err
    assert sorted(m[1] for m in warned) == ([] if strict else implicit_accounts(text))


@pytest.fixture(params=CORPUS, ids=lambda item: item[0])
def journal(request, tmp_path):
    name, text, strict = request.param
    path = tmp_path / f"{name}.journal"
    path.write_text(text, encoding="utf-8")
    mode = [] if strict else ["--loose"]
    return [str(path), *mode], Oracle(text, strict), text, strict


def test_balance_and_equation_match_the_oracle(journal):
    argv, oracle, text, strict = journal
    for at in [None, *probe_dates(oracle)]:
        at_flags = [] if at is None else ["--at", at.isoformat()]
        for places, percent, show_zero in RENDERINGS:
            if percent and oracle.basis is None:
                continue
            render = flags(places, percent, show_zero)
            code, out, err = run(["balance", *argv, *render, *at_flags])
            assert (code, out) == (0, oracle.balance(at, percent, places, show_zero)), (render, at)
            check_stderr(err, text, strict)
            code, out, err = run(["equation", *argv, *render, *at_flags])
            assert (code, out) == (0, oracle.equation(at, percent, places)), (render, at)
            check_stderr(err, text, strict)


def test_flows_match_the_oracle(journal):
    argv, oracle, text, strict = journal
    dates = probe_dates(oracle)
    intervals = [(None, None), (dates[1], None), (None, dates[-2])]
    intervals += [(start, end) for start in dates[::2] for end in dates[1::3]]
    for start, end in intervals:
        window = [] if start is None else ["--from", start.isoformat()]
        window += [] if end is None else ["--to", end.isoformat()]
        for places, percent, show_zero in RENDERINGS:
            if percent and oracle.basis is None:
                continue
            code, out, err = run(["flows", *argv, *flags(places, percent, show_zero), *window])
            want_code, want_out, want_err = oracle.flows(start, end, percent, places, show_zero)
            assert (code, out) == (want_code, want_out), (start, end, places, percent)
            if want_err:
                assert err.endswith(want_err)
            else:
                check_stderr(err, text, strict)


@pytest.mark.parametrize(
    "value, places, want",
    [
        (Fraction(5, 2), 0, "2"),
        (Fraction(7, 2), 0, "4"),
        (Fraction(-5, 2), 0, "-2"),
        (Fraction(1, 8), 2, "0.12"),
        (Fraction(3, 8), 2, "0.38"),
        (Fraction(-1, 1000), 2, "0.00"),
        (Fraction(-5, 1000), 2, "0.00"),
        (Fraction(-15, 1000), 2, "-0.02"),
        (Fraction(-1, 2), 0, "0"),
        (Fraction(2, 3), 12, "0.666666666667"),
        (Fraction(12345, 1), 2, "12345.00"),
    ],
)
def test_the_oracle_rounds_half_to_even(value, places, want):
    assert half_even(value, places) == want


def test_the_loose_runs_declare_all_about_half_and_none():
    texts = {name: text for name, text, _ in CORPUS}
    assert implicit_accounts(texts["loose-declared"]) == []
    assert implicit_accounts(texts["loose"])
    half = implicit_accounts(half_declared(texts["scheduled"]))
    assert 0 < len(half) < len(implicit_accounts(undeclared(texts["scheduled"])))


# -- the views' order -------------------------------------------------

SCHEDULED = (
    "account assets:machine\naccount equity:capital\naccount bank\n"
    "account costs\naccount aa:fees\n"
    "schedule assets:machine costs 1200 over 12 yearly from 2020-01-01 mode contra\n"
    "schedule bank aa:fees 11 over 11 yearly from 2020-06-30 mode direct\n\n"
    '2019-12-31 "buy"\n    assets:machine dr 1200\n    equity:capital cr 1211\n    bank dr 11\n'
)


def view_journals():
    """The corpus, a hand-written journal whose expansion declares period
    and contra accounts that sort before and among the declared ones,
    and generated journals with a schedule."""
    out = [parse_journal(text, strict=strict)[0] for _, text, strict in CORPUS]
    out.append(parse_journal(SCHEDULED)[0])
    rng = random.Random(1616)
    while len(out) < len(CORPUS) + 5:
        journal = random_journal(rng, max_accounts=30, max_transactions=12)
        if journal.schedules:
            out.append(journal)
    return out


VIEW_JOURNALS = view_journals()


def in_path_order(paths) -> bool:
    keys = [p.segments for p in paths]
    return keys == sorted(keys)


@pytest.mark.parametrize("journal", VIEW_JOURNALS, ids=range(len(VIEW_JOURNALS)))
def test_views_come_out_in_path_order(journal):
    chart, txs = journal.expand()
    leaves = set(chart.leaves())
    dates = sorted({tx.date for tx in txs})
    probes = [dates[0] - DAY, dates[0], dates[len(dates) // 2], dates[-1]]
    for i, start in enumerate(probes):
        stock = journal.stock_at(start).balances
        assert set(stock) == leaves and in_path_order(stock)
        for end in probes[i:]:
            assert in_path_order(journal.flow_between(start, end).balances)
            rows = journal.reconcile(start, end).rows
            assert in_path_order([row.account for row in rows])
            assert len(rows) == len(leaves)


# -- check and schedule, from the journal text ----------------------------

# Feb 29 starts: period k lands on Feb 28 unless its year is a leap year.
LEAP = (
    "account assets:lease\naccount assets:deposit\naccount equity:capital\n"
    "account costs\naccount fees\n"
    "schedule assets:lease costs 1000 over 9 yearly from 2020-02-29 mode contra\n"
    "schedule assets:deposit fees 100/3 over 7 yearly from 2024-02-29 mode direct\n\n"
    '2020-02-29 "lease"\n    assets:lease dr 1000\n    assets:deposit dr 100/3\n'
    "    equity:capital cr 3100/3\n"
)


def schedule_lines(text: str) -> list[tuple]:
    """(source, counterpart, total, n, start, mode) per schedule line, in file order."""
    out = []
    for line in text.split("\n"):
        tokens = line.split(";")[0].split()
        if tokens[:1] == ["schedule"]:
            total, n, start = Fraction(tokens[3]), int(tokens[5]), tokens[8]
            out.append((tokens[1], tokens[2], total, n, dt.date.fromisoformat(start), tokens[10]))
    return out


def anniversary(start: dt.date, years: int) -> dt.date:
    year = start.year + years
    if (start.month, start.day) == (2, 29) and not calendar.isleap(year):
        return dt.date(year, 2, 28)
    return dt.date(year, start.month, start.day)


def contra(source: str) -> str:
    """The source's sibling that a contra schedule credits."""
    return ":".join([*source.split(":")[:-1], "accumulated-depreciation"])


SCHEDULE_CORPUS = [item for item in CORPUS if schedule_lines(item[1])] + [
    ("hand-written", SCHEDULED, True),
    ("leap", LEAP, True),
]


@pytest.mark.parametrize("name, text, strict", CORPUS + SCHEDULE_CORPUS[-2:],
                         ids=[item[0] for item in CORPUS + SCHEDULE_CORPUS[-2:]])
def test_check_counts_authored_and_scheduled_transactions(tmp_path, name, text, strict):
    path = tmp_path / f"{name}.journal"
    path.write_text(text, encoding="utf-8")
    authored = sum(1 for line in text.split("\n") if re.match(r"\d{4}-\d\d-\d\d", line))
    count = authored + sum(n for _, _, _, n, _, _ in schedule_lines(text))
    code, out, err = run(["check", str(path), *([] if strict else ["--loose"])])
    noun = "transaction" if count == 1 else "transactions"
    assert (code, out) == (0, f"ok: {count} {noun}, root \u2261 0\n")
    check_stderr(err, text, strict)


@pytest.mark.parametrize("name, text, strict", SCHEDULE_CORPUS,
                         ids=[item[0] for item in SCHEDULE_CORPUS])
def test_schedule_periods_match_the_schedule_lines(tmp_path, name, text, strict):
    """Period k of n falls on the k-th anniversary of the start and moves
    exactly total/n, and the periods sum to the total."""
    path = tmp_path / f"{name}.journal"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(["schedule", str(path), *([] if strict else ["--loose"])])
    assert code == 0
    blocks = out.rstrip("\n").split("\n\n")
    for source, counterpart, total, n, start, mode in schedule_lines(text):
        assert blocks.pop(0) == f"; schedule {source} over {n} periods ({mode})"
        credited = source if mode == "direct" else contra(source)
        moved = Fraction(0)
        for k in range(1, n + 1):
            header, debit, credit = blocks.pop(0).split("\n")
            date = anniversary(start, k).isoformat()
            assert header == f'{date} "matching: {source} period {k}/{n}"'
            assert debit.startswith("    ") and credit.startswith("    ")
            account, side, amount = debit.split()
            assert (account, side, Fraction(amount)) == (f"{counterpart}:y{k}", "dr", total / n)
            assert credit.split() == [credited, "cr", amount]
            moved += Fraction(amount)
        assert moved == total
    assert not blocks
