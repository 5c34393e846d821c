"""The one-match line parser against the tokenized handlers it bypasses.

A well-formed posting or header line is parsed with one match of
parser._LINE_RE. Every other line goes to the tokenized handlers, which
are the only source of diagnostics. Replacing the pattern with one that
never matches sends every line down the tokenized path, so the two paths
can be compared on the same input.
"""

import random
import re
from fractions import Fraction

import pytest

from journalgen import hostile_journals, random_journal, restyled
from tledger import Amount, parse_journal, serialize_journal, validate_file
from tledger import parser

NEVER = re.compile(r"(?!)")


def seeded_texts():
    rng = random.Random(6201)
    texts = []
    for _ in range(12):
        text = serialize_journal(random_journal(rng, max_accounts=15, max_transactions=30))
        texts += [text, restyled(text, rng)]
    return texts


def with_spans(transactions):
    """Each transaction with its span and its postings' spans and literal integers."""
    return [(tx, tx.span, [(p.span, p._ints) for p in tx.postings]) for tx in transactions]


def outcome(text, strict):
    journal, diagnostics = parse_journal(text, strict=strict)
    # what the parser built, also where an error discards it
    state = parser._FileParser(text.removeprefix("\ufeff"), "<journal>", strict)
    state.run()
    return (
        journal,
        journal and with_spans(journal.transactions),
        journal and journal._replay.scale,
        diagnostics,
        validate_file(text, strict=strict),
        with_spans(state.transactions),
        state.nodes,
    )


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "loose"])
@pytest.mark.parametrize("source", ["fixtures", "seeded", "hostile"])
def test_both_paths_agree(source, strict, monkeypatch, fixture_text, contra_fixture_text):
    texts = {
        "fixtures": lambda: [fixture_text, contra_fixture_text],
        "seeded": seeded_texts,
        "hostile": hostile_journals,
    }[source]()
    for text in texts:
        fast = outcome(text, strict)
        with monkeypatch.context() as patch:
            patch.setattr(parser, "_LINE_RE", NEVER)
            tokenized = outcome(text, strict)
        # journal (==), every span and posting's integers, the scale D, the
        # diagnostics in order, the report, and the parser's own state
        assert fast == tokenized, text


def test_hostile_corpus_reaches_every_verdict():
    statuses = {
        validate_file(text, strict=strict).status
        for text in hostile_journals()
        for strict in (True, False)
    }
    assert statuses == {"ok", "invalid", "parse-error"}


def test_well_formed_lines_are_never_tokenized(monkeypatch, fixture_text):
    tokenized, headers = [], []
    tokens, handle_header = parser._tokens, parser._FileParser.handle_header

    def counted_tokens(line):
        tokenized.append(line)
        return tokens(line)

    def counted_header(self, line):
        headers.append(line)
        return handle_header(self, line)

    monkeypatch.setattr(parser, "_tokens", counted_tokens)
    monkeypatch.setattr(parser._FileParser, "handle_header", counted_header)
    postings = 0
    for text in [fixture_text] + seeded_texts():
        journal, diagnostics = parse_journal(text)
        assert journal is not None and diagnostics == []
        postings += sum(len(tx.postings) for tx in journal.transactions)
    assert postings > 1000
    # only directive lines (basis, account, schedule) still go through it
    assert [line for line in tokenized if line[:1].isspace()] == []
    assert headers == []


def test_a_recovering_block_never_takes_the_fast_path():
    text = (
        "account a\naccount b\n\n"
        '2020-01-01 "x"\n    a dr 1 1\n    a dr 1\n    b cr 1\n'
        '2020-01-02 "y"\n    a dr 1\n    b cr 1\n\n'
        '2020-01-03 "z"\n    a dr 2\n    b cr 2\n'
    )
    journal, diagnostics = parse_journal(text)
    assert journal is None
    assert [(d.span.line, d.message) for d in diagnostics] == [
        (5, "expected posting: <account-path> <dr|cr> <amount>")
    ]
    # without the error, the same lines make three transactions
    journal, _ = parse_journal(text.replace("a dr 1 1", "a dr 1").replace("2020-01-02", "\n2020-01-02"))
    assert [tx.description for tx in journal.transactions] == ["x", "y", "z"]


def test_a_blank_crlf_line_ends_a_block():
    text = 'account a\naccount b\n\n2020-01-01 "x"\n    a dr 1\n    b cr 1\n\n2020-01-02 "y"\n    a dr 2\n    b cr 2\n'
    for crlf in (text.replace("\n", "\r\n"), text.replace("\n\n", "\n\r\r\n")):
        journal, diagnostics = parse_journal(crlf)
        assert diagnostics == []
        assert [tx.description for tx in journal.transactions] == ["x", "y"]


def test_loose_warnings_keep_their_order():
    text = '2020-01-01 "x"\n    a dr 1\n    b cr 1\n    a dr 1\n    c cr 1\n'
    journal, diagnostics = parse_journal(text, strict=False)
    assert [(d.span.line, d.message) for d in diagnostics] == [
        (2, "implicitly declared account a"),
        (3, "implicitly declared account b"),
        (5, "implicitly declared account c"),
    ]
    assert [p.span.line for p in journal.transactions[0].postings] == [2, 3, 4, 5]


# Amount.parse as it was before it used one pattern: three anchored
# regexes tried in turn.
_DECIMAL_RE = re.compile(r"^([0-9]+)\.([0-9]+)$")
_RATIONAL_RE = re.compile(r"^([0-9]+)/([0-9]+)$")
_INTEGER_RE = re.compile(r"^[0-9]+$")


def reference_parse(text: str) -> Fraction:
    if _INTEGER_RE.match(text):
        return Fraction(int(text))
    if m := _DECIMAL_RE.match(text):
        whole, frac = m.group(1), m.group(2)
        return Fraction(int(whole + frac), 10 ** len(frac))
    if m := _RATIONAL_RE.match(text):
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ValueError("zero denominator")
        return Fraction(num, den)
    raise ValueError(f"malformed amount {text!r}")


def literal_corpus():
    fixed = [
        "", "0", "7", "007", "0/5", "1/0", "5/0000", "1.", ".5", "1.5", "1..5",
        "1/2/3", "1.5/2", "2/5", "493827.16", "-5", "+5", "1e3", " 5", "5 ",
        "５", "٣", "5\n", "1.5\n", "2/5\n", "\n", "5\n\n", "5\r",
        "9" * 4300, "9" * 4301, "1/" + "7" * 4301, "7" * 4301 + "/0",
        "1" * 2150 + "." + "1" * 2150, "1" * 2150 + "." + "1" * 2151,
    ]
    rng = random.Random(6202)
    alphabet = "0123456789./ \n\t-+e٣"
    fuzz = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        for _ in range(3000)
    ]
    digits = [
        str(rng.randint(0, 10**12)) + rng.choice(["", ".", "/"]) + str(rng.randint(0, 10**6))
        for _ in range(1000)
    ]
    return fixed + fuzz + digits


def outcome_of(parse, text):
    try:
        value = parse(text)
    except ValueError as err:
        return "error", str(err)
    return "value", value.as_fraction if isinstance(value, Amount) else value


def test_amount_parse_matches_the_three_pattern_parser():
    newline_cases = 0
    for text in literal_corpus():
        new, old = outcome_of(Amount.parse, text), outcome_of(reference_parse, text)
        if text.endswith("\n") and old[0] == "value":
            # the one intended difference: "$" matched before a final "\n"
            assert new == ("error", f"malformed amount {text!r}")
            newline_cases += 1
        else:
            assert new == old, text
    assert newline_cases >= 4
