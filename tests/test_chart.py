"""Account paths and the chart tree."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from journalgen import random_journal
from tledger import (
    AccountPath,
    Chart,
    DuplicateAccountError,
    UnknownAccountError,
    parse_journal,
    serialize_journal,
)

segments = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,8}", fullmatch=True)
paths = st.builds(AccountPath, st.tuples(segments, segments).map(lambda t: t[:1] + t[1:]))


def p(text: str) -> AccountPath:
    return AccountPath.parse(text)


class TestAccountPath:
    def test_parse_and_render(self):
        path = p("assets:cash")
        assert path.segments == ("assets", "cash")
        assert str(path) == "assets:cash"
        assert path.parent == p("assets")
        assert p("assets").parent is None

    @pytest.mark.parametrize("bad", ["", ":", "a:", ":a", "1up", "a b", "a:b:", "é"])
    def test_invalid_paths(self, bad):
        with pytest.raises(ValueError):
            AccountPath.parse(bad)

    @pytest.mark.parametrize("text", ["assets:cash\n", "assets\n:cash", "cash\n"])
    def test_a_trailing_newline_is_not_part_of_a_segment(self, text):
        with pytest.raises(ValueError, match="invalid account segment"):
            AccountPath.parse(text)

    def test_case_sensitive(self):
        assert p("Assets") != p("assets")

    def test_ancestry(self):
        assert p("assets").covers(p("assets:cash:petty"))
        assert p("assets").covers(p("assets"))
        assert not p("assets:cash").covers(p("assetsx:cash"))

    @given(st.lists(segments, min_size=1, max_size=4))
    def test_round_trip(self, segs):
        path = AccountPath(tuple(segs))
        assert AccountPath.parse(str(path)) == path


class TestChart:
    def test_declare_creates_implicit_ancestors(self):
        chart = Chart.empty().declare(p("assets:cash"))
        assert p("assets") in chart
        assert not chart.is_declared(p("assets"))
        assert chart.is_declared(p("assets:cash"))

    def test_declare_three_leaves_two_roots(self):
        chart = Chart.empty().declare_all(
            [p("liabilities:suppliers"), p("liabilities:banks"), p("equity:capital")]
        )
        assert chart.leaves() == (
            p("equity:capital"),
            p("liabilities:banks"),
            p("liabilities:suppliers"),
        )

    def test_duplicate_declaration_rejected(self):
        chart = Chart.empty().declare(p("assets:cash"))
        with pytest.raises(DuplicateAccountError):
            chart.declare(p("assets:cash"))

    def test_implicit_can_be_declared_later(self):
        chart = Chart.empty().declare(p("assets:cash")).declare(p("assets"))
        assert chart.is_declared(p("assets"))

    def test_declared_leaf_becomes_interior(self):
        chart = Chart.empty().declare(p("assets:cash"))
        assert p("assets:cash") in chart.leaves()
        chart = chart.declare(p("assets:cash:petty"))
        assert p("assets:cash") not in chart.leaves()
        assert p("assets:cash:petty") in chart.leaves()

    def test_leaves_under(self):
        chart = Chart.empty().declare_all(
            [p("a:x"), p("a:y:z"), p("b:w")]
        )
        assert chart.leaves_under(p("a")) == (p("a:x"), p("a:y:z"))
        assert chart.leaves_under(p("a:x")) == (p("a:x"),)
        with pytest.raises(UnknownAccountError):
            chart.leaves_under(p("missing"))

    def test_children_sorted(self):
        chart = Chart.empty().declare_all([p("a:z"), p("a:m"), p("a:b")])
        assert chart.children(p("a")) == (p("a:b"), p("a:m"), p("a:z"))

    def test_immutability(self):
        chart = Chart.empty()
        chart.declare(p("assets"))
        assert chart.nodes == {}


class TestParsedChart:
    """The parser builds its chart in one pass; it must equal declare_all."""

    @pytest.mark.parametrize("strict", [True, False])
    def test_one_pass_and_one_path_per_node(self, monkeypatch, strict):
        calls = Counter()
        declare, post_init = Chart.declare, AccountPath.__post_init__

        def counted_declare(self, path):
            calls["declare"] += 1
            return declare(self, path)

        def counted_post_init(self):
            calls["path"] += 1
            post_init(self)

        monkeypatch.setattr(Chart, "declare", counted_declare)
        monkeypatch.setattr(AccountPath, "__post_init__", counted_post_init)
        names = [f"r{i % 3}:g{i % 7}:a{i}" for i in range(600)]
        if strict:
            text = "".join(f"account {name}\n" for name in names)
        else:  # every account declared on first use, then used again
            text = "".join(
                f'2020-01-01 "t"\n    {name} dr 1\n    {names[0]} cr 1\n\n'
                for name in names + names
            )
        journal, _ = parse_journal(text, strict=strict)
        assert journal is not None
        assert calls["declare"] == 0
        assert 0 < calls["path"] <= len(journal.chart.nodes) == 600 + 3 + 21

    @pytest.mark.parametrize("strict", [True, False])
    def test_parsed_chart_equals_declare_all(self, strict):
        rng = random.Random(5150)
        for _ in range(60):
            text = serialize_journal(random_journal(rng, 30, 20))
            lines = text.split("\n")
            if not strict:  # drop some declarations; loose mode adds them on use
                lines = [
                    line
                    for line in lines
                    if not line.startswith("account ") or rng.random() < 0.5
                ]
            declared = [
                m.group(1) for line in lines if (m := re.match(r"account (\S+)$", line))
            ]
            if not strict:
                for line in lines:
                    if m := re.match(r"    (\S+) (?:dr|cr) ", line):
                        declared.append(m.group(1))
                    elif m := re.match(r"schedule (\S+) (\S+) ", line):
                        declared.extend(m.groups())
            journal, _ = parse_journal("\n".join(lines), strict=strict)
            assert journal is not None
            want = Chart.empty().declare_all(
                AccountPath.parse(name) for name in dict.fromkeys(declared)
            )
            assert journal.chart.nodes == want.nodes
