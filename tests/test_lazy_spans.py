"""Parsed postings and headers build their SourceSpans on first read,
against eager spans.

The parser hands each posting and each transaction header its location
as plain values, and Posting.span and Transaction.span build the
SourceSpan when something reads it. The replay and Ledger.post read a
span only on the path that raises. The references are the parser's
posting and header builders as they were, kept here: they build a
SourceSpan per posting line (eager_posting_line) and per header line
(eager_header_line). Patched in, they must give the same spans and
diagnostics on seeded journals in both spellings, the hostile line
corpus and journals over primes. A valid file's validate_file builds one
SourceSpan per schedule line and no other, and a parsed posting or
transaction agrees with its twin built by the public constructor from
the reference span.
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
    Transaction,
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


def eager_header_line(self, m):
    date = self.parse_date(m, 1, shaped=True)
    if date is None:
        self.recovering = True
        return
    self.header = (date, m[2], self.span(0, m.end(2) + 1))


def patch_eager(monkeypatch):
    monkeypatch.setattr(parser._FileParser, "posting_line", eager_posting_line)
    monkeypatch.setattr(parser._FileParser, "header_line", eager_header_line)


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


def prime_texts(seed=8213, count=3):
    rng = random.Random(seed)
    return [prime_journal(rng, n_tx=30) for _ in range(count)]


CORPORA = {
    "seeded": seeded_texts,
    "hostile": hostile_journals,
    "primes": prime_texts,
}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "loose"])
@pytest.mark.parametrize("corpus", CORPORA)
def test_spans_match_the_eager_builder(monkeypatch, corpus, strict):
    texts = CORPORA[corpus]()
    lazy = [spans(text, strict) for text in texts]
    patch_eager(monkeypatch)
    eager = [spans(text, strict) for text in texts]
    assert lazy == eager
    assert any(journal for journal, _, _ in lazy)


def test_validate_file_builds_one_span_per_schedule(monkeypatch):
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
        # one per schedule line: no header, posting or fallback span
        assert len(built) == schedules
        assert posting_lines >= 2 * headers > 0
        journal = report.journal
        assert all(type(p._span) is tuple for p in postings(journal))
        assert all(type(tx._span) is tuple for tx in journal.transactions)
        built.clear()
        assert all(p.span.file == "t.journal" for p in postings(journal))
        assert len(built) == posting_lines
        assert all(type(p._span) is SourceSpan for p in postings(journal))
        built.clear()
        assert all(tx.span.column == 1 for tx in journal.transactions)
        assert len(built) == headers
        assert all(type(tx._span) is SourceSpan for tx in journal.transactions)


def test_a_parsed_posting_matches_its_public_twin(monkeypatch):
    texts = seeded_texts(seed=8211, count=3)
    parsed = [postings(parse_journal(text, file="t.journal")[0]) for text in texts]
    patch_eager(monkeypatch)
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


def test_a_parsed_transaction_matches_its_public_twin(monkeypatch):
    texts = seeded_texts(seed=8211, count=3)
    parsed = [parse_journal(text, file="t.journal")[0].transactions for text in texts]
    patch_eager(monkeypatch)
    eager = [parse_journal(text, file="t.journal")[0].transactions for text in texts]
    for lazy_txs, eager_txs in zip(parsed, eager):
        assert len(lazy_txs) == len(eager_txs) > 0
        for tx, ref in zip(lazy_txs, eager_txs):
            twin = Transaction(ref.date, ref.description, ref.postings, ref.span)
            assert type(tx._span) is tuple
            assert tx == twin and hash(tx) == hash(twin)
            assert repr(tx) == repr(twin)
            assert repr(pickle.loads(pickle.dumps(tx))) == repr(twin)
            assert pickle.loads(pickle.dumps(tx)) == twin
            assert tx.span == twin.span and tx.span is tx.span


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
    patch_eager(monkeypatch)
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


def test_threads_reading_one_transaction_span_all_get_it_right(monkeypatch):
    text = seeded_texts(seed=8214, count=1)[0]
    patch_eager(monkeypatch)
    want = parse_journal(text, file="t.journal")[0].transactions[-1].span
    monkeypatch.undo()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            tx = parse_journal(text, file="t.journal")[0].transactions[-1]
            assert type(tx._span) is tuple
            start = threading.Barrier(4)
            got = [None] * 4

            def read(k):
                start.wait()
                got[k] = tx.span

            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert got == [want] * 4
            assert type(tx._span) is SourceSpan and tx.span == want
    finally:
        sys.setswitchinterval(interval)
