"""Parsed postings keep their literal's integers, against the path they replace.

A posting line's literal becomes its reduced numerator and denominator,
a parsed posting builds its entry only when something reads it, and the
replay scales those integers. The reference is the earlier path, kept
here: the literal becomes a Fraction inside an Amount
(reference_literal), then TAccount.dr or TAccount.cr, then a Posting
through the public constructor, in place of the parser's one posting
builder (reference_posting_line), and the replay reads each entry's
Fractions back into integers (reference_scaled_stream). Patched in, it
must give the same journal, spans, diagnostics, FileReport, scale D,
views and CLI output, on seeded journals in both spellings, the hostile
line corpus, a journal over primes and the literal edge cases below.
"""

import datetime as dt
import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from journalgen import hostile_journals, prime_journal, random_journal, restyled
from tledger import (
    Amount,
    Posting,
    TAccount,
    parse_journal,
    serialize_journal,
    validate_file,
)
from tledger import cli, ledger, parser
from tledger.algebra import _AMOUNT_RE

DAY = dt.timedelta(days=1)
SIDES = {"dr": TAccount.dr, "debit": TAccount.dr, "cr": TAccount.cr, "credit": TAccount.cr}


def reference_literal(whole, fraction, denominator) -> Amount:
    if fraction is not None:
        return Amount._wrap(Fraction(int(whole + fraction), 10 ** len(fraction)))
    if denominator is None:
        return Amount._wrap(Fraction(int(whole)))
    num, den = int(whole), int(denominator)
    if den == 0:
        raise ValueError("zero denominator")
    return Amount._wrap(Fraction(num, den))


def reference_parse(text: str) -> Amount:
    if m := _AMOUNT_RE.fullmatch(text):
        return reference_literal(*m.groups())
    raise ValueError(f"malformed amount {text!r}")


def reference_posting_line(self, m):
    path = self.parse_path(m, 2)
    side = SIDES.get(m[3])
    if side is None:
        self.error(f"expected side keyword dr or cr, got {m[3]!r}", self.token_span(m, 3))
    try:
        amount = reference_parse(m[4])
    except ValueError as err:
        self.error(str(err), self.token_span(m, 4))
        amount = None
    if path is None or side is None or amount is None:
        return
    if not self.resolve_account(path, m, 2):
        return
    self.postings.append(Posting(path, side(amount), self.token_span(m, 2)))


def reference_scaled_stream(txs):
    def sides(p):
        return p.entry.debit.as_fraction, p.entry.credit.as_fraction

    denominators = {v.denominator for tx in txs for p in tx.postings for v in sides(p)}
    scale = lcm(*denominators)
    up = {den: scale // den for den in denominators}

    def values(tx):
        out = []
        for p in tx.postings:
            debit, credit = sides(p)
            out.append(
                (
                    p.account,
                    debit.numerator * up[debit.denominator],
                    credit.numerator * up[credit.denominator],
                )
            )
        return out

    return scale, values


def use_reference(patch):
    patch.setattr(parser._FileParser, "posting_line", reference_posting_line)
    patch.setattr(ledger, "_scaled_stream", reference_scaled_stream)


def _outcome(fn):
    try:
        return fn()
    except Exception as err:  # the comparison is the point
        return (type(err).__name__, str(err))


def views(journal):
    """stock_at and flow_between at every stream date and the days around it."""
    _, txs = journal.expand()
    if not txs:
        return []
    days = sorted({day for tx in txs for day in around(tx.date)})
    return [
        (
            _outcome(lambda: journal.stock_at(day)),
            _outcome(lambda: journal.flow_between(days[0], day)),
        )
        for day in days
    ]


def around(day):
    """day and the days either side of it that exist."""
    for step in (-DAY, 0 * DAY, DAY):
        try:
            yield day + step
        except OverflowError:  # past 9999-12-31
            pass


def outcome(text, strict):
    journal, diagnostics = parse_journal(text, strict=strict)
    postings = [] if journal is None else [p for tx in journal.transactions for p in tx.postings]
    return (
        journal,
        journal and [(tx, tx.span, [p.span for p in tx.postings]) for tx in journal.transactions],
        [p._ints for p in postings],
        diagnostics,
        validate_file(text, strict=strict),
        journal and journal._replay.scale,
        journal and views(journal),
    )


COMMANDS = [
    ["check"],
    ["check", "--loose"],
    ["balance"],
    ["balance", "--decimal", "2", "--show-zero"],
    ["equation", "--percent"],
    ["flows"],
    ["schedule"],
]


def cli_outcome(text, tmp_path, capsys):
    path = tmp_path / "t.journal"
    path.write_text(text, encoding="utf-8", newline="")
    out = []
    for command in COMMANDS:
        code = cli.main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def seeded_texts():
    rng = random.Random(7301)
    texts = []
    for _ in range(6):
        text = serialize_journal(random_journal(rng, max_accounts=15, max_transactions=25))
        texts += [text, restyled(text, rng)]
    return texts + [prime_journal(rng, n_tx=25)]


def literal_journal(literal: str, side: str = "dr") -> str:
    other = {"dr": "cr", "debit": "credit", "cr": "dr", "credit": "debit"}[side]
    return (
        "account a\naccount b\n\n"
        f'2020-01-01 "t"\n    a {side} {literal}\n    b {other} {literal}\n'
        f'\n2020-01-02 "u"\n    a {other}\t{literal} ; back\n    b {side} {literal}\n'
    )


LIMIT = 4300  # the default int-string limit
LITERALS = [
    "0", "0.00", "000/5", "10/4", "1/0", "7", "493827.16", "2/5", "1.10", "30/6",
    "9" * (LIMIT - 1), "9" * LIMIT, "9" * (LIMIT + 1),
    "1/" + "7" * LIMIT, "1/" + "7" * (LIMIT + 1), "7" * (LIMIT + 1) + "/0",
    "1" * 2150 + "." + "1" * 2149, "1" * 2150 + "." + "1" * 2150, "1" * 2150 + "." + "1" * 2151,
]


def literal_texts():
    return [
        literal_journal(literal, side)
        for literal in LITERALS
        for side in ("dr", "credit")
    ]


SOURCES = {"seeded": seeded_texts, "hostile": hostile_journals, "literals": literal_texts}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "loose"])
@pytest.mark.parametrize("source", SOURCES)
def test_the_literal_path_matches_the_reference(source, strict, monkeypatch):
    assert sys.get_int_max_str_digits() == LIMIT
    for text in SOURCES[source]():
        new = outcome(text, strict)
        with monkeypatch.context() as patch:
            use_reference(patch)
            old = outcome(text, strict)
        assert new == old, text[:300]


@pytest.mark.parametrize("source", SOURCES)
def test_the_cli_prints_what_the_reference_prints(source, monkeypatch, tmp_path, capsys):
    texts = SOURCES[source]()
    for text in texts[:: max(1, len(texts) // 12)]:
        new = cli_outcome(text, tmp_path, capsys)
        with monkeypatch.context() as patch:
            use_reference(patch)
            old = cli_outcome(text, tmp_path, capsys)
        assert new == old, text[:300]


def posting_ints(literal: str, side: str = "dr"):
    journal, diagnostics = parse_journal(literal_journal(literal, side))
    assert diagnostics == []
    return journal.transactions[0].postings[0]._ints, journal._replay.scale


@pytest.mark.parametrize(
    "literal, side, ints, scale",
    [
        ("0", "dr", (0, 1, 0, 1), 1),
        ("0.00", "cr", (0, 1, 0, 1), 1),
        ("000/5", "debit", (0, 1, 0, 1), 1),
        ("10/4", "dr", (5, 2, 0, 1), 2),
        ("10/4", "credit", (0, 1, 5, 2), 2),
        ("493827.16", "dr", (12345679, 25, 0, 1), 25),
        ("1.10", "cr", (0, 1, 11, 10), 10),
        ("9" * LIMIT, "dr", (10**LIMIT - 1, 1, 0, 1), 1),
    ],
)
def test_a_literal_keeps_its_reduced_integers(literal, side, ints, scale):
    assert posting_ints(literal, side) == (ints, scale)


@pytest.mark.parametrize(
    "literal, message",
    [
        ("1/0", "zero denominator"),
        ("9" * (LIMIT + 1), "Exceeds the limit"),
        ("1" * 2150 + "." + "1" * 2151, "Exceeds the limit"),
    ],
)
def test_a_bad_literal_is_still_a_diagnostic(literal, message):
    journal, diagnostics = parse_journal(literal_journal(literal))
    assert journal is None
    assert message in diagnostics[0].message
    assert (diagnostics[0].span.line, diagnostics[0].span.column) == (5, 10)


def test_parsing_and_checking_build_no_amount_or_entry(monkeypatch):
    text = serialize_journal(random_journal(random.Random(7302), 15, 40))
    text = "\n".join(line for line in text.split("\n") if not line.startswith(("basis", "schedule")))
    built = []
    wrap = Amount._wrap.__func__
    monkeypatch.setattr(Amount, "_wrap", classmethod(lambda cls, v: built.append(v) or wrap(cls, v)))
    for cls in (Amount, TAccount):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init: built.append(a) or init(self, *a))
    report = validate_file(text)
    assert report.ok and report.transactions > 10
    postings = [p for tx in report.journal.transactions for p in tx.postings]
    assert built == [] and all(p._entry is None for p in postings)
    assert all(p.entry is p.entry for p in postings)  # built on first read, once
    assert len(built) == 2 * len(postings)  # one Amount and one TAccount each
