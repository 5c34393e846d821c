"""The replay's own tree check against a TAccount reference.

Journal._replay ends with one comparison of the summed debits and the
summed credits of its integer pairs. The reference below is the earlier
path, kept here: the same replay loop without that check, then one
TAccount per leaf summed by Ledger.total. Faults are injected through
_replay_step, which both paths call, on leaves a step touches and on
leaves it does not; the two must give identical FileReports.
"""

import random

import pytest

import tledger.ledger
from journalgen import prime_journal, random_journal
from tledger import Ledger, LedgerError, parse_journal, serialize_journal, validate_file
from tledger.diagnostics import ParseDiagnostic, Severity, SourceSpan
from tledger.ledger import _Replay, _scaled_stream
from tledger.parser import FileReport, _inconsistency

INCONSISTENT = "internal inconsistency"


def reference_validate_file(text):
    journal, diagnostics = parse_journal(text)
    diags = list(diagnostics)
    if journal is None:
        n = sum(1 for d in diags if d.severity is Severity.ERROR)
        return FileReport("parse-error", tuple(diags), 0, f"{n} parse error(s)")
    fallback = SourceSpan("<journal>", 1, 1, 1)
    chart, txs = journal.expand()
    scale, stream = _scaled_stream(txs)
    pairs = {leaf: (0, 0) for leaf in chart.leaves()}
    posted, last, consistent = 0, None, True
    for tx, values in stream:
        touched = {a for a, _, _ in values}
        before = [pairs.get(a, (0, 0)) for a in touched]
        try:
            tledger.ledger._replay_step(chart, pairs, tx, values)
        except LedgerError as err:
            diags.append(ParseDiagnostic(Severity.ERROR, str(err), err.span or fallback))
            continue
        posted, last = posted + 1, tx
        debit = sum(d for _, d, _ in values)
        credit = sum(c for _, _, c in values)
        moved_debit = sum(pairs[a][0] for a in touched) - sum(d for d, _ in before)
        moved_credit = sum(pairs[a][1] for a in touched) - sum(c for _, c in before)
        if debit != credit or (moved_debit, moved_credit) != (debit, credit):
            diags.append(_inconsistency(tx, fallback))
            consistent = False
    replay = _Replay(chart, scale, posted, (), {})
    tree = Ledger(chart, {leaf: replay.taccount(*pair) for leaf, pair in pairs.items()})
    if consistent and last is not None and not tree.total().is_zero:
        diags.append(_inconsistency(last, fallback))
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    if errors:
        return FileReport("invalid", tuple(diags), posted, f"{errors} validation error(s)")
    return FileReport(
        "ok", tuple(diags), posted, f"ok: {posted} transactions, root ≡ 0", journal
    )


def unbalanced(text, which=0):
    """The journal with one posting's amount changed: one failing step."""
    lines = text.split("\n")
    i = [i for i, line in enumerate(lines) if line.startswith("    ")][which]
    lines[i] = lines[i].rsplit(" ", 1)[0] + " 999999/7"
    return "\n".join(lines)


def texts():
    rng = random.Random(7301)
    out = [serialize_journal(random_journal(rng, 12, 25)) for _ in range(10)]
    out.append(prime_journal(rng))
    # a failing first step in three, and a failing last step in the prime journal
    return out + [unbalanced(text) for text in out[:3]] + [unbalanced(out[-1], -1)]


TEXTS = texts()
FAILING = 4  # the last four texts hold a step that does not balance


def injections(text, rng):
    """(kind, faults) with faults a list of (transaction, leaf, side): one
    touched and one untouched leaf per sampled step, and two faults on
    one untouched leaf that cancel out."""
    chart, txs = parse_journal(text)[0].expand()
    leaves = sorted(chart.leaves(), key=lambda p: p.segments)
    out = []
    for tx in rng.sample(txs, min(3, len(txs))) + [txs[-1]]:
        touched = sorted({p.account for p in tx.postings}, key=lambda p: p.segments)
        untouched = [leaf for leaf in leaves if leaf not in touched]
        out.append(("touched", [(tx, rng.choice(touched), rng.randrange(2))]))
        if untouched:
            out.append(("untouched", [(tx, rng.choice(untouched), rng.randrange(2))]))
            leaf, partner = rng.choice(untouched), rng.choice(txs)
            if leaf not in {p.account for p in partner.postings}:
                out.append(("cancelling", [(tx, leaf, 0), (partner, leaf, 1)]))
    return out


def corrupting(faults):
    real_step = tledger.ledger._replay_step

    def step(chart, pairs, tx, values):
        result = real_step(chart, pairs, tx, values)
        for target, leaf, side in faults:
            if tx == target:
                debit, credit = pairs[leaf]
                pairs[leaf] = (debit + 1, credit) if side == 0 else (debit, credit + 1)
        return result

    return step


def test_the_replay_verdict_matches_the_taccount_reference(monkeypatch):
    seen = set()
    for index, text in enumerate(TEXTS):
        report = validate_file(text)
        assert report == reference_validate_file(text), text
        failed = report.status == "invalid"
        assert failed is (index >= len(TEXTS) - FAILING)
        for kind, faults in injections(text, random.Random(index)):
            with monkeypatch.context() as patch:
                patch.setattr(tledger.ledger, "_replay_step", corrupting(faults))
                got = validate_file(text)
                assert got == reference_validate_file(text), (text, faults)
            inconsistencies = [d for d in got.diagnostics if INCONSISTENT in d.message]
            seen.add((kind, failed, len(inconsistencies)))
    # Every kind of fault reached the verdict it should, with and without
    # a failing step in the journal: the final check runs in both cases.
    for failed in (False, True):
        assert {("touched", failed, 1), ("untouched", failed, 1)} <= seen
        assert ("cancelling", failed, 0) in seen
    assert not {n for _, _, n in seen} - {0, 1}


@pytest.mark.parametrize("text", TEXTS[-2:], ids=["first-step-fails", "last-step-fails"])
def test_an_untouched_fault_is_named_at_the_last_posted_step(text, monkeypatch):
    chart, txs = parse_journal(text)[0].expand()
    balanced = [tx for tx in txs if tx.total().is_zero]
    first, last = balanced[0], balanced[-1]
    leaf = next(leaf for leaf in chart.leaves() if leaf not in {p.account for p in first.postings})
    monkeypatch.setattr(tledger.ledger, "_replay_step", corrupting([(first, leaf, 1)]))
    report = validate_file(text)
    assert [d.message[:22] for d in report.diagnostics] == [
        "unbalanced transaction",
        INCONSISTENT,
    ]
    assert report.diagnostics[-1].message.endswith(f"after {last.date} {last.description!r}")
    assert report.diagnostics[-1].span == last.span
