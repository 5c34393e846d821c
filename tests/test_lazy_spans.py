"""A parsed posting builds its SourceSpan on first read, against eager spans.

The parser hands each posting its location as plain values, and
Posting.span builds the SourceSpan when something reads it. The replay
and Ledger.post read a posting's span only on the path that raises. The
reference is the parser's posting builder as it was, kept here: it
builds a SourceSpan per posting line (eager_posting_line). Patched in,
it must give the same spans and diagnostics on seeded journals in both
spellings, the hostile line corpus and a journal over primes. A valid
file's validate_file builds one SourceSpan per header and none per
posting, and a parsed posting agrees with its twin built by the public
constructor from the reference span.
"""

import pickle
import random
import sys
import threading

import pytest

from journalgen import hostile_journals, prime_journal, random_journal, restyled
from tledger import (
    Chart,
    Journal,
    Ledger,
    NonLeafPostingError,
    Posting,
    SourceSpan,
    UnknownAccountError,
    parse_journal,
    serialize_journal,
    validate_file,
)
from tledger import parser


def eager_posting_line(self, m):
    indent, token, side, amount, whole, fraction, den = m.groups()
    path = self.paths.get(token) or self.parse_path(m, 2)
    credit = parser._CREDIT.get(side)
    if credit is None:
        self.error(f"expected side keyword dr or cr, got {side!r}", self.token_span(m, 3))
    try:
        literal = parser._literal(amount, whole, fraction, den)
    except ValueError as err:
        self.error(str(err), self.token_span(m, 4))
        return
    if path is None or credit is None:
        return
    if self.nodes.get(path) or self.resolve_account(path, m, 2):
        span = SourceSpan(self.file, self.lineno, len(indent) + 1, len(token))
        self.postings.append(Posting._parsed(path, credit, *literal, span))


def seeded_texts(seed=8209, count=5):
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        text = serialize_journal(random_journal(rng, max_accounts=15, max_transactions=25))
        texts += [text, restyled(text, rng)]
    return texts + [prime_journal(rng, n_tx=25)]


def postings(journal):
    return [p for tx in journal.transactions for p in tx.postings]


def spans(text, strict=True):
    """Each transaction's span and its postings' spans, the diagnostics and
    the replay's errors with their spans, from a fresh parse."""
    journal, diagnostics = parse_journal(text, file="t.journal", strict=strict)
    report = validate_file(text, file="t.journal", strict=strict)
    if journal is None:
        return None, diagnostics, report.diagnostics
    return (
        [(tx.span, [p.span for p in tx.postings]) for tx in journal.transactions],
        diagnostics,
        report.diagnostics,
    )


CORPORA = {
    "seeded": seeded_texts,
    "hostile": hostile_journals,
}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "loose"])
@pytest.mark.parametrize("corpus", CORPORA)
def test_spans_match_the_eager_builder(monkeypatch, corpus, strict):
    texts = CORPORA[corpus]()
    lazy = [spans(text, strict) for text in texts]
    monkeypatch.setattr(parser._FileParser, "posting_line", eager_posting_line)
    eager = [spans(text, strict) for text in texts]
    assert lazy == eager
    assert any(journal for journal, _, _ in lazy)


def test_validate_file_builds_one_span_per_header(monkeypatch):
    built = []
    post_init = SourceSpan.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SourceSpan, "__post_init__", counted)
    for text in seeded_texts(seed=8210, count=4)[::2]:
        lines = text.split("\n")
        headers = sum(line[:1].isdigit() for line in lines)
        schedules = sum(line.startswith("schedule ") for line in lines)
        posting_lines = sum(line[:1].isspace() for line in lines)
        built.clear()
        report = validate_file(text, file="t.journal")
        assert report.ok
        # one per header, one per schedule line, and validate_file's fallback
        assert len(built) == headers + schedules + 1
        assert posting_lines >= 2 * headers > 0
        journal = report.journal
        assert all(type(p._span) is tuple for p in postings(journal))
        built.clear()
        assert all(p.span.file == "t.journal" for p in postings(journal))
        assert len(built) == posting_lines
        assert all(type(p._span) is SourceSpan for p in postings(journal))


def test_a_parsed_posting_matches_its_public_twin(monkeypatch):
    texts = seeded_texts(seed=8211, count=3)
    parsed = [postings(parse_journal(text, file="t.journal")[0]) for text in texts]
    monkeypatch.setattr(parser._FileParser, "posting_line", eager_posting_line)
    eager = [postings(parse_journal(text, file="t.journal")[0]) for text in texts]
    for lazy_ones, eager_ones in zip(parsed, eager):
        assert len(lazy_ones) == len(eager_ones) > 0
        for p, q in zip(lazy_ones, eager_ones):
            twin = Posting(q.account, q.entry, q.span)
            assert type(p._span) is tuple
            assert p == twin and hash(p) == hash(twin)
            assert repr(p) == repr(twin)
            assert repr(pickle.loads(pickle.dumps(p))) == repr(twin)
            assert pickle.loads(pickle.dumps(p)) == twin
            assert p.span == twin.span and p.span is p.span


BROKEN = (
    "account a\naccount a:b\naccount c\n\n"
    '2020-01-01 "t"\n'
    "    c dr 1\n"
    "\ta cr 1\n"
)
INTERIOR = SourceSpan("t.journal", 7, 2, 1)  # the posting to a, which has a child
UNKNOWN = SourceSpan("t.journal", 6, 5, 1)  # the posting to c, once c is left out


def broken():
    """BROKEN freshly parsed, its chart, and that chart without c."""
    journal, _ = parse_journal(BROKEN, file="t.journal")
    nodes = journal.chart.nodes
    return journal, journal.chart, Chart({p: d for p, d in nodes.items() if str(p) != "c"})


def test_a_posting_error_keeps_its_span_through_the_replay():
    report = validate_file(BROKEN, file="t.journal")
    assert [(d.message, d.span) for d in report.diagnostics] == [
        ("account a is not postable", INTERIOR)
    ]
    journal, _, without_c = broken()
    ((_, err),) = Journal(without_c, journal.transactions)._replay.faults
    assert (type(err), err.span) == (UnknownAccountError, UNKNOWN)


def test_a_posting_error_keeps_its_span_through_ledger_post():
    journal, chart, _ = broken()
    with pytest.raises(NonLeafPostingError) as raised:
        Ledger.empty(chart).post(journal.transactions[0])
    assert raised.value.span == INTERIOR
    journal, _, without_c = broken()  # a fresh parse: no span read yet
    with pytest.raises(UnknownAccountError) as raised:
        Ledger.empty(without_c).post(journal.transactions[0])
    assert raised.value.span == UNKNOWN


def test_threads_reading_one_span_all_get_it_right(monkeypatch):
    texts = seeded_texts(seed=8212, count=2)
    monkeypatch.setattr(parser._FileParser, "posting_line", eager_posting_line)
    want = [[p.span for p in postings(parse_journal(t, file="t.journal")[0])] for t in texts]
    monkeypatch.undo()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fresh = [postings(parse_journal(t, file="t.journal")[0]) for t in texts]
            start = threading.Barrier(4)
            got = [None] * 4

            def read(k):
                start.wait()
                got[k] = [[p.span for p in ps] for ps in fresh]

            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert got == [want] * 4
    finally:
        sys.setswitchinterval(interval)
