"""The journal grammar, written once in the tledger.parser docstring.

The EBNF block is translated to regular expressions here, so the tests
check the documented grammar itself: README.md quotes it verbatim, the
README example and every fixture parse cleanly, the serializer writes
only lines the grammar derives, and the one-match line pattern accepts
exactly the posting and header lines the grammar derives.
"""

import random
import re
import sys
import textwrap
from pathlib import Path

import pytest

from journalgen import hostile_journals, random_journal, restyled
from tledger import parse_journal, serialize_journal, validate_file
from tledger import parser

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# Special sequences (? ... ?) of the grammar, as regular expressions.
SPECIAL = {
    "line feed": r"\n",
    "tab": r"\t",
    "any character but a line feed": r"[^\n]",
    "any character but a line feed, '\"' or ';'": r'[^\n";]',
    "one or more characters, none a line feed, that str.isspace accepts": r"[^\S\n]+",
    "A-Z or a-z": r"[A-Za-z]",
    "0-9": r"[0-9]",
}
EBNF_TOKEN = re.compile(
    r"""\s*(?:"([^"]*)"|'([^']*)'|\?\s*([^?]*?)\s*\?|([a-z]+)|([=,|\[\]{}();]))"""
)


def grammar_block() -> str:
    """The indented block of the parser docstring: the grammar."""
    lines = [line for line in parser.__doc__.splitlines() if line.startswith("    ")]
    return textwrap.dedent("\n".join(lines))


def grammar_rules(block: str) -> dict[str, re.Pattern]:
    """Each production of a non-recursive ISO EBNF block as a regex."""
    tokens, pos = [], 0
    while block[pos:].strip():
        m = EBNF_TOKEN.match(block, pos)
        assert m is not None, f"not EBNF: {block[pos:pos + 40]!r}"
        pos = m.end()
        double, single, special, name, punct = m.groups()
        if punct is not None:
            tokens.append(("punct", punct))
        elif name is not None:
            tokens.append(("name", name))
        elif special is not None:
            tokens.append(("special", special))
        else:
            tokens.append(("literal", single if double is None else double))
    bodies = {}
    while tokens:
        end = tokens.index(("punct", ";"))
        (kind, name), equals, *body = tokens[:end]
        assert kind == "name" and equals == ("punct", "=") and name not in bodies
        bodies[name] = body
        tokens = tokens[end + 1 :]
    compiled: dict[str, str] = {}

    def rule(name):
        if name not in compiled:
            regex, end = alternation(bodies[name], 0)
            assert end == len(bodies[name]), name
            compiled[name] = regex
        return compiled[name]

    def alternation(toks, i):
        options = []
        while True:
            items = []
            while True:
                item, i = term(toks, i)
                items.append(item)
                if toks[i : i + 1] != [("punct", ",")]:
                    break
                i += 1
            options.append("".join(items))
            if toks[i : i + 1] != [("punct", "|")]:
                return f"(?:{'|'.join(options)})", i
            i += 1

    def term(toks, i):
        kind, value = toks[i]
        if kind == "literal":
            return re.escape(value), i + 1
        if kind == "special":
            return SPECIAL[value], i + 1
        if kind == "name":
            return f"(?:{rule(value)})", i + 1
        close, suffix = {"[": ("]", "?"), "{": ("}", "*"), "(": (")", "")}[value]
        inner, i = alternation(toks, i + 1)
        assert toks[i] == ("punct", close)
        return inner + suffix, i + 1

    return {name: re.compile(rule(name)) for name in bodies}


RULES = grammar_rules(grammar_block())
DIRECTIVES = ("basis", "declaration", "schedule", "header", "posting")


def readme_blocks() -> list[tuple[str, str]]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Journal format") :]
    section = section[: section.index("\n## ", 1)]
    return re.findall(r"```(\w*)\n(.*?)```", section, re.S)


def test_every_production_is_defined_once_and_used():
    block = grammar_block()
    defined = re.findall(r"^(\w+)\s*=", block, re.M)
    assert len(defined) == len(set(defined)) == len(RULES)
    right = re.sub(r"^\w+\s*=|\"[^\"]*\"|'[^']*'|\?[^?]*\?", " ", block, flags=re.M)
    assert set(re.findall(r"[a-z]+", right)) == set(RULES) - {"journal"}


def test_readme_quotes_the_grammar():
    blocks = [body for lang, body in readme_blocks() if lang == "ebnf"]
    assert blocks == [grammar_block() + "\n"]


def test_readme_example_and_fixtures_parse_cleanly():
    examples = [body for lang, body in readme_blocks() if not lang]
    assert len(examples) == 1
    texts = examples + [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.journal"))]
    assert len(texts) >= 4
    for text in texts:
        assert RULES["journal"].fullmatch(text)
        report = validate_file(text)
        assert (report.status, report.diagnostics) == ("ok", ()), text


def serialized_texts(fixture_text, contra_fixture_text):
    rng = random.Random(6301)
    journals = [parse_journal(fixture_text)[0], parse_journal(contra_fixture_text)[0]]
    journals += [random_journal(rng, max_accounts=20, max_transactions=20) for _ in range(30)]
    return [serialize_journal(j) for j in journals]


def test_serializer_writes_only_grammar_lines(fixture_text, contra_fixture_text):
    seen = set()
    for text in serialized_texts(fixture_text, contra_fixture_text):
        assert RULES["journal"].fullmatch(text)
        for line in text.split("\n"):
            if line:
                kinds = [k for k in DIRECTIVES if RULES[k].fullmatch(line)]
                assert len(kinds) == 1, line
                seen.update(kinds)
    assert seen == set(DIRECTIVES)


def corpus_lines(fixture_text, contra_fixture_text):
    rng = random.Random(6302)
    texts = serialized_texts(fixture_text, contra_fixture_text)
    texts += [restyled(t, rng) for t in texts] + hostile_journals()
    return {line for text in texts for line in text.split("\n")}


def test_line_pattern_accepts_exactly_the_grammar(fixture_text, contra_fixture_text):
    comment = r"(?:[^\S\n]+)?(?:;[^\n]*)?"
    grammar = re.compile(f"(?:{RULES['posting'].pattern}|{RULES['header'].pattern}){comment}")
    counts = {True: 0, False: 0}
    for line in corpus_lines(fixture_text, contra_fixture_text):
        m = parser._LINE_RE.fullmatch(line)
        # the pattern leaves the account token to the path check
        derived = m is not None and (m[2] is None or RULES["path"].fullmatch(m[2]))
        assert bool(grammar.fullmatch(line)) == bool(derived), line
        counts[bool(derived)] += 1
    assert min(counts.values()) > 50


def test_regex_whitespace_is_str_isspace():
    # The one-match pattern and the tokenizer rely on this equivalence.
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", text)) == {c for c in text if c.isspace()}


@pytest.mark.parametrize(
    "text, message",
    [
        ('2020-02-30 "x"', "invalid date '2020-02-30'"),
        ('2020-01-01 "x"\n    a dr 1/0', "zero denominator"),
        ('2020-01-01 "x"\n    b dr 1', "undeclared account b"),
    ],
)
def test_grammar_leaves_values_to_the_parser(text, message):
    # every line is derived by the grammar; a check it cannot state refuses one
    text = f"account a\n\n{text}\n    a cr 1\n"
    assert RULES["journal"].fullmatch(text)
    journal, diagnostics = parse_journal(text)
    assert journal is None
    assert [d.message for d in diagnostics] == [message]
