"""Subtree queries on segments against the walks they replaced.

Ledger.aggregate, Chart.leaves_under, Chart.children and the parser's
schedule-prefix check all ask whether one path is at or under another,
and answer with AccountPath.covers, a prefix test on segments. The
reference functions below are the walks they replaced, over each
node's parent built as a checked path (as AccountPath.parent did, per
node on every call), with equality and the proper-prefix test apart. Old and new must agree
on every node, on unknown paths (same exception, same text) and on
every schedule prefix; the new queries must build no checked path.
"""

import datetime as dt
import random

import pytest

from journalgen import random_chart, random_journal, random_transaction
from tledger import (
    AccountPath,
    Amount,
    Chart,
    Journal,
    Ledger,
    TAccount,
    UnknownAccountError,
    parse_journal,
)


def checked_parent(path):
    """AccountPath.parent as it was: a checked path, or None at a root."""
    if len(path.segments) == 1:
        return None
    return AccountPath(path.segments[:-1])


def is_ancestor_of(above, below):
    """The proper-prefix test: above is strictly above below."""
    return (
        len(above.segments) < len(below.segments)
        and below.segments[: len(above.segments)] == above.segments
    )


def reference_leaves_under(parent_of, path):
    if path not in parent_of:
        raise UnknownAccountError(f"unknown account {path}")
    parents = set(parent_of.values())
    return tuple(
        sorted(
            p
            for p in parent_of
            if p not in parents and (p == path or is_ancestor_of(path, p))
        )
    )


def reference_children(parent_of, path):
    return tuple(sorted(p for p, parent in parent_of.items() if parent == path))


def reference_aggregate(ledger, parent_of, path):
    out = TAccount.zero()
    for leaf in reference_leaves_under(parent_of, path):
        out = out + ledger.balances[leaf]
    return out


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and text must match
        return type(exc), str(exc)


def unknown_paths(chart):
    """Paths not in chart: beside a node, under a leaf, and a new root."""
    out = [AccountPath(("nowhere",))]
    for leaf in chart.leaves()[:3]:
        out.append(leaf.child("below"))
        out.append(AccountPath(leaf.segments[:-1] + (leaf.segments[-1] + "x",)))
    return [p for p in out if p not in chart]


def assert_queries_match(ledger, paths):
    chart = ledger.chart
    parent_of = {p: checked_parent(p) for p in chart.nodes}
    for path in paths:
        assert outcome(ledger.aggregate, path) == outcome(
            reference_aggregate, ledger, parent_of, path
        ), path
        assert outcome(chart.leaves_under, path) == outcome(
            reference_leaves_under, parent_of, path
        ), path
        assert chart.children(path) == reference_children(parent_of, path), path
        assert path.parent == checked_parent(path), path


def views(journal):
    """A stock at the middle and the end, and the flow over everything."""
    _, txs = journal.expand()
    first, last = txs[0].date, txs[-1].date
    middle = first + (last - first) // 2
    return [
        journal.stock_at(middle),
        journal.stock_at(last),
        journal.flow_between(first - dt.timedelta(days=1), last),
    ]


SEEDS = range(6101, 6109)


@pytest.mark.parametrize("seed", SEEDS)
def test_stock_and_flow_views_match_the_walks(seed):
    journal = random_journal(random.Random(seed), max_transactions=40)
    for ledger in views(journal):
        assert_queries_match(ledger, [*ledger.chart.nodes, *unknown_paths(ledger.chart)])


def split(ledger, leaf, names):
    """ledger.refine of leaf into exact shares, the last one the remainder."""
    target = ledger.balances[leaf]
    parts, rest = [], target
    for k, name in enumerate(names, 2):
        if name == names[-1]:
            share = rest
        else:
            part = Amount(1, k)
            share = TAccount(target.debit * part, target.credit * part)
            rest = TAccount(rest.debit - share.debit, rest.credit - share.credit)
        parts.append((leaf.child(name), share))
    return ledger.refine(leaf, parts)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_refined_ledgers_match_the_walks(seed):
    rng = random.Random(seed)
    journal = random_journal(rng, max_transactions=40)
    for ledger in views(journal):
        leaf = rng.choice(sorted(ledger.balances))
        refined = split(ledger, leaf, ["p", "q", "r"])
        refined = split(refined, leaf.child("q"), ["deep", "deeper"])
        assert refined.aggregate(leaf) == ledger.aggregate(leaf)
        assert_queries_match(refined, [*refined.chart.nodes, *unknown_paths(refined.chart)])


def test_a_1200_segment_path_matches_the_walks():
    spine = tuple(f"s{k}" for k in range(1200))
    deep, side = AccountPath(spine), AccountPath(spine[:600] + ("side",))
    chart = Chart.empty().declare_all([deep, side])
    ledger = Ledger(chart, {deep: TAccount.dr(Amount(2, 3)), side: TAccount.cr(Amount(5))})
    paths = [
        AccountPath(spine[:1]),
        AccountPath(spine[:600]),
        AccountPath(spine[:601]),
        deep,
        side,
        deep.child("below"),
    ]
    assert_queries_match(ledger, paths)
    assert ledger.aggregate(AccountPath(spine[:600])) == TAccount(Amount(2, 3), Amount(5))


def test_covers_is_equality_or_the_proper_prefix_test():
    rng = random.Random(6131)
    chart, _ = random_chart(rng, 40)
    nodes = [*chart.nodes, *unknown_paths(chart)]
    for a in nodes:
        for b in nodes:
            assert a.covers(b) == (a == b or is_ancestor_of(a, b)), (a, b)


PREFIX_MESSAGE = "schedule counterpart {} must not be its source or lie under it"


@pytest.mark.parametrize(
    "source, prefix",
    [
        ("assets:cash", "assets:cash"),  # equal
        ("assets:cash", "assets:cash:y"),  # under
        ("assets:cash", "assets:cash:y:z"),
        ("assets:cash", "assets:cashx"),  # beside
        ("assets:cash", "assets:cashx:y"),
        ("assets:cash", "assets:bank"),
        ("assets:cash", "assets"),  # above
        ("a", "ab"),
        ("ab", "a"),
        ("a", "b"),
    ],
)
@pytest.mark.parametrize("strict", [True, False])
def test_schedule_prefix_diagnostic_matches_the_walk(source, prefix, strict):
    text = (
        f"account {source}\n"
        f"schedule {source} {prefix} 1 over 2 yearly from 2020-01-01 mode direct\n"
    )
    _, diagnostics = parse_journal(text, strict=strict)
    source_path, prefix_path = AccountPath.parse(source), AccountPath.parse(prefix)
    flagged = prefix_path == source_path or is_ancestor_of(source_path, prefix_path)
    messages = [d.message for d in diagnostics]
    assert (PREFIX_MESSAGE.format(prefix) in messages) is flagged


@pytest.fixture(scope="module")
def wide_views():
    rng = random.Random(6141)
    chart, leaves = random_chart(rng, 120)
    txs = tuple(
        random_transaction(rng, leaves, dt.date(2020, 1, 1 + i % 28), i) for i in range(40)
    )
    return views(Journal(chart, txs))


QUERIES = {
    "Ledger.aggregate": lambda ledger, path: ledger.aggregate(path),
    "Chart.children": lambda ledger, path: ledger.chart.children(path),
    "Chart.leaves_under": lambda ledger, path: ledger.chart.leaves_under(path),
    "AccountPath.parent": lambda ledger, path: path.parent,
}


@pytest.mark.parametrize("name", QUERIES)
def test_subtree_queries_build_no_checked_path(monkeypatch, wide_views, name):
    query, calls = QUERIES[name], []
    post_init = AccountPath.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(AccountPath, "__post_init__", counted)
    for ledger in wide_views:
        assert len(ledger.chart.nodes) >= 120
        for path in ledger.chart.nodes:
            query(ledger, path)
    assert calls == []
