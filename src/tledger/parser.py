"""The plain-text journal language: parsing, serializing, validating.

Journals are line-oriented and diffable. Their ISO EBNF, which README.md quotes:

    journal     = line , { ? line feed ? , line } ;
    line        = [ basis | declaration | schedule | header | posting ] , [ ws ] ,
                  [ ";" , { ? any character but a line feed ? } ] ;
    basis       = "basis" , ws , amount ;
    declaration = "account" , ws , path ;
    schedule    = "schedule" , ws , path , ws , path , ws , amount , ws , "over" , ws ,
                  digits , ws , "yearly" , ws , "from" , ws , date , ws , "mode" , ws ,
                  ( "direct" | "contra" ) ;
    header      = date , ws , '"' , { ? any character but a line feed, '"' or ';' ? } , '"' ;
    posting     = ( " " | ? tab ? ) , [ ws ] , path , ws , side , ws , amount ;
    side        = "dr" | "debit" | "cr" | "credit" ;
    path        = segment , { ":" , segment } ;
    segment     = letter , { letter | digit | "_" | "-" } ;
    amount      = digits , [ "." , digits | "/" , digits ] ;
    date        = digit , digit , digit , digit , "-" , digit , digit , "-" , digit , digit ;
    digits      = digit , { digit } ;
    ws          = ? one or more characters, none a line feed, that str.isspace accepts ? ;
    letter      = ? A-Z or a-z ? ;
    digit       = ? 0-9 ? ;

A transaction block is a header and its postings, up to a blank line or
end of file; a comment-only line does not end it. All three forms of
amount are exact: 493827.16 is 49382716/100, never a float. Dates,
denominators, counts and, unless loose, declarations are checked too.

Parsing never throws past this boundary: every problem becomes a
diagnostic with a 1-based source span, and after an error the parser
skips to the next blank line so one pass can surface several mistakes.
A journal value is only produced for input with zero errors.
"""

from __future__ import annotations

import datetime as dt
import re

from .algebra import _AMOUNT_RE, Amount, _parse_literal, _Record, _reduced
from .chart import AccountPath, Chart, _declare
from .diagnostics import ParseDiagnostic, Severity, SourceSpan
from .errors import DuplicateAccountError
from .ledger import Journal, Posting, Transaction
from .matching import MatchingSchedule, ScheduleMode, build_schedule

__all__ = [
    "parse_journal",
    "serialize_journal",
    "format_transaction_block",
    "validate_file",
    "FileReport",
]

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_HEADER_RE = re.compile(rf'({_DATE_RE.pattern})\s+"([^"]*)"\s*')
_CREDIT = {"dr": False, "debit": False, "cr": True, "credit": True}  # the side keywords
# A whole posting (groups 1-6) or header (7-8) line; tokens as _tokens splits them.
_LINE_RE = re.compile(
    rf"(?:([ \t]\s*)([^\s;]+)\s+({'|'.join(_CREDIT)})\s+{_AMOUNT_RE.pattern}"
    rf'|({_DATE_RE.pattern})\s+"([^";]*)")\s*(?:;.*)?'
)
_TOKEN_RE = re.compile(r"\S+")


def _tokens(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens with their 0-based column offsets."""
    return [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(line)]


class _FileParser:
    def __init__(self, text: str, file: str, strict: bool):
        self.file = file
        self.strict = strict
        self.lines = text.split("\n")
        self.diagnostics: list[ParseDiagnostic] = []
        self.nodes: dict[AccountPath, bool] = {}  # the chart, built in place
        self.paths: dict[str, AccountPath] = {}  # every valid token, parsed once
        self.transactions: list[Transaction] = []
        self.schedules: list[MatchingSchedule] = []
        self.basis: Amount | None = None
        self.lineno = 0
        self.recovering = False
        # open transaction block, if any
        self.header: tuple[dt.date, str, SourceSpan] | None = None
        self.postings: list[Posting] = []

    # -- diagnostics -------------------------------------------------

    def span(self, col: int, length: int) -> SourceSpan:
        return SourceSpan(self.file, self.lineno, col + 1, max(length, 1))

    def line_span(self, line: str) -> SourceSpan:
        stripped = line.strip()
        col = line.find(stripped[0]) if stripped else 0
        return self.span(col, len(stripped))

    def error(self, message: str, span: SourceSpan, *, recover: bool = False):
        self.diagnostics.append(ParseDiagnostic(Severity.ERROR, message, span))
        if recover:
            self.recovering = True
            if self.header is not None:
                self.header = None
                self.postings = []

    def warn(self, message: str, span: SourceSpan):
        self.diagnostics.append(ParseDiagnostic(Severity.WARNING, message, span))

    # -- small parsers -----------------------------------------------

    def shaped(self, line: str, count: int, usage: str, keywords=()) -> list | None:
        """line's tokens, if there are count of them with each (index, word)
        of keywords in place; else the usage error, and skip the block."""
        toks = _tokens(line)
        if len(toks) == count and all(toks[i][0] == word for i, word in keywords):
            return toks
        self.error(usage, self.line_span(line), recover=True)
        return None

    def parse_path(self, token: str, col: int) -> AccountPath | None:
        path = self.paths.get(token)
        if path is None:
            try:
                path = AccountPath.parse(token)
            except ValueError as err:
                self.error(str(err), self.span(col, len(token)))
                return None
            self.paths[token] = path
        return path

    def parse_amount(self, token: str, col: int, parse=Amount.parse):
        try:
            return parse(token)
        except ValueError as err:
            self.error(str(err), self.span(col, len(token)))
            return None

    def parse_date(self, token: str, col: int) -> dt.date | None:
        if not _DATE_RE.fullmatch(token):
            self.error(f"malformed date {token!r}", self.span(col, len(token)))
            return None
        try:
            return dt.date.fromisoformat(token)
        except ValueError:
            self.error(f"invalid date {token!r}", self.span(col, len(token)))
            return None

    def resolve_account(self, path: AccountPath, col: int, token: str) -> bool:
        """Strict mode demands declaration before use; loose declares on use."""
        if self.nodes.get(path):
            return True
        if self.strict:
            self.error(
                f"undeclared account {path}", self.span(col, len(token))
            )
            return False
        _declare(self.nodes, path)
        self.warn(
            f"implicitly declared account {path}", self.span(col, len(token))
        )
        return True

    # -- line handlers -----------------------------------------------

    def run(self) -> tuple[Journal | None, list[ParseDiagnostic]]:
        for raw in self.lines:
            self.lineno += 1
            m = _LINE_RE.fullmatch(raw)
            if m and self.fast_line(m):
                continue
            line = raw.partition(";")[0]
            if not raw.strip():
                self.close_transaction()
                self.recovering = False
            elif line.strip() and not self.recovering:  # comment-only lines keep a block open
                if line[0] in (" ", "\t"):
                    self.handle_posting(line)
                elif line[0].isspace():
                    self.error(
                        f"indent must be spaces or tabs, got U+{ord(line[0]):04X}",
                        self.span(0, len(line) - len(line.lstrip())),
                        recover=True,
                    )
                else:
                    self.handle_top_level(line)
        self.close_transaction()
        if any(d.severity is Severity.ERROR for d in self.diagnostics):
            return None, self.diagnostics
        journal = Journal(
            Chart(self.nodes),
            tuple(self.transactions),
            tuple(self.schedules),
            self.basis,
        )
        return journal, self.diagnostics

    def close_transaction(self):
        if self.header is None:
            return
        date, description, span = self.header
        self.transactions.append(
            Transaction(date, description, tuple(self.postings), span=span)
        )
        self.header = None
        self.postings = []

    def handle_top_level(self, line: str):
        if self.header is not None:
            self.error(
                "expected posting or blank line inside transaction block",
                self.line_span(line),
                recover=True,
            )
            return
        keyword = line.split(None, 1)[0]
        if keyword == "basis":
            self.handle_basis(line)
        elif keyword == "account":
            self.handle_account(line)
        elif keyword == "schedule":
            self.handle_schedule(line)
        elif keyword[0].isdigit():
            self.handle_header(line)
        else:
            self.error(
                f"unknown directive {keyword!r}", self.line_span(line), recover=True
            )

    def handle_basis(self, line: str):
        toks = self.shaped(line, 2, "expected: basis <amount>")
        if toks is None:
            return
        token, col = toks[1]
        amount = self.parse_amount(token, col)
        if amount is None:
            return
        if not amount:
            self.error("basis must be positive", self.span(col, len(token)))
            return
        if self.basis is not None:
            self.error("basis already declared", self.span(col, len(token)))
            return
        self.basis = amount

    def handle_account(self, line: str):
        toks = self.shaped(line, 2, "expected: account <path>")
        if toks is None:
            return
        token, col = toks[1]
        path = self.parse_path(token, col)
        if path is None:
            return
        try:
            _declare(self.nodes, path)
        except DuplicateAccountError as err:
            self.error(str(err), self.span(col, len(token)))

    def handle_schedule(self, line: str):
        toks = self.shaped(
            line,
            11,
            "expected: schedule <source> <counterpart> <amount>"
            " over <n> yearly from <date> mode <direct|contra>",
            ((4, "over"), (6, "yearly"), (7, "from"), (9, "mode")),
        )
        if toks is None:
            return
        source = self.parse_path(*toks[1])
        counterpart = self.parse_path(*toks[2])
        total = self.parse_amount(*toks[3])
        n_tok, n_col = toks[5]
        n_span = self.span(n_col, len(n_tok))
        digits = n_tok.lstrip("0")
        if n_tok.isascii() and n_tok.isdigit() and digits:
            # Five or more digits run past MAXYEAR from any start; the cap
            # keeps int() away from arbitrarily long tokens.
            n = int(digits) if len(digits) <= 4 else dt.MAXYEAR
        else:
            self.error("schedule period count must be a positive integer", n_span)
            n = None
        start = self.parse_date(*toks[8])
        mode_tok, mode_col = toks[10]
        try:
            mode = ScheduleMode(mode_tok)
        except ValueError:
            self.error(
                f"schedule mode must be direct or contra, got {mode_tok!r}",
                self.span(mode_col, len(mode_tok)),
            )
            mode = None
        if None in (source, counterpart, total, n, start, mode):
            return
        if start.year + n > dt.MAXYEAR:
            self.error(f"schedule runs past the year {dt.MAXYEAR}", n_span)
            return
        if not total:
            self.error(
                "schedule total must be positive",
                self.span(toks[3][1], len(toks[3][0])),
            )
            return
        if source.covers(counterpart):
            # period accounts under the source would make it interior
            self.error(
                f"schedule counterpart {counterpart} must not be its source"
                " or lie under it",
                self.span(toks[2][1], len(toks[2][0])),
            )
            return
        ok = self.resolve_account(source, toks[1][1], toks[1][0])
        ok = self.resolve_account(counterpart, toks[2][1], toks[2][0]) and ok
        if not ok:
            return
        self.schedules.append(
            build_schedule(
                source, counterpart, total, n, start, mode, span=self.line_span(line)
            )
        )

    def handle_header(self, line: str):
        m = _HEADER_RE.fullmatch(line)
        if m is None:
            self.error(
                'expected transaction header: <YYYY-MM-DD> "<description>"',
                self.line_span(line),
                recover=True,
            )
            return
        date = self.parse_date(m.group(1), 0)
        if date is None:
            self.recovering = True
            return
        self.header = (date, m.group(2), self.line_span(line))

    def fast_line(self, m: re.Match) -> bool:
        """Take a line _LINE_RE matched; False leaves it untouched for the handlers."""
        indent, token, side, whole, fraction, den, date, description = m.groups()
        if indent is None:  # a header, which opens a block
            if self.header is not None or self.recovering:
                return False
            try:
                day = dt.date.fromisoformat(date)
            except ValueError:  # no such day
                return False
            self.header = (day, description, SourceSpan(self.file, self.lineno, 1, m.end(8) + 1))
            return True
        path = self.paths.get(token)
        if self.header is None or not self.nodes.get(path):
            return False  # outside a block, or not an account parsed and declared
        try:
            num, den = _reduced(whole, fraction, den)
        except ValueError:  # a zero denominator, or past the int-string limit
            return False
        span = SourceSpan(self.file, self.lineno, len(indent) + 1, len(token))
        self.postings.append(Posting._parsed(path, _CREDIT[side], num, den, span))
        return True

    def handle_posting(self, line: str):
        if self.header is None:
            self.error(
                "posting outside a transaction block",
                self.line_span(line),
                recover=True,
            )
            return
        toks = self.shaped(line, 3, "expected posting: <account-path> <dr|cr> <amount>")
        if toks is None:
            return
        path = self.parse_path(*toks[0])
        side_tok, side_col = toks[1]
        credit = _CREDIT.get(side_tok)
        if credit is None:
            self.error(
                f"expected side keyword dr or cr, got {side_tok!r}",
                self.span(side_col, len(side_tok)),
            )
        literal = self.parse_amount(*toks[2], parse=_parse_literal)
        if path is None or credit is None or literal is None:
            return
        if not self.resolve_account(path, toks[0][1], toks[0][0]):
            return
        span = self.span(toks[0][1], len(toks[0][0]))
        self.postings.append(Posting._parsed(path, credit, *literal, span))


def parse_journal(
    text: str, file: str = "<journal>", strict: bool = True
) -> tuple[Journal | None, list[ParseDiagnostic]]:
    """Parse journal text into (journal, diagnostics).

    The journal is None whenever any error-severity diagnostic was
    produced. Loose mode (strict=False) declares accounts implicitly on
    first use and downgrades that to a warning. One leading byte order
    mark (U+FEFF) is dropped, so a file saved as "UTF-8 with BOM" reads
    like the same file without it.
    """
    return _FileParser(text.removeprefix("\ufeff"), file, strict).run()


def _posting_line(posting: Posting) -> str:
    entry = posting.entry
    if entry.credit:
        return f"    {posting.account} cr {entry.credit}"
    return f"    {posting.account} dr {entry.debit}"


def format_transaction_block(tx: Transaction) -> str:
    """A transaction in journal syntax, ready to paste into a file."""
    lines = [f'{tx.date.isoformat()} "{tx.description}"']
    lines.extend(_posting_line(p) for p in tx.postings)
    return "\n".join(lines)


def _check_serializable(journal: Journal):
    for tx in journal.transactions:
        if any(ch in tx.description for ch in ';"\n'):
            raise ValueError(
                f"description {tx.description!r} is not representable"
            )
    for s in journal.schedules:
        straight = s.start is not None and s.periods == build_schedule(
            s.source, s.counterpart_prefix, s.total, len(s.periods), s.start
        ).periods
        if not straight:
            raise ValueError("only straight-line schedules have journal syntax")


def serialize_journal(journal: Journal) -> str:
    """Canonical rendering: directives first, then date-ordered blocks.

    Amounts always come out as reduced rationals, so a decimal literal
    in the input reappears as its exact fraction. Parsing the output
    reproduces the journal structurally, and serializing again is
    byte-stable.
    """
    _check_serializable(journal)
    directives = []
    if journal.basis is not None:
        directives.append(f"basis {journal.basis}")
    directives.extend(f"account {p}" for p in journal.chart.declared_paths())
    for s in journal.schedules:
        directives.append(
            f"schedule {s.source} {s.counterpart_prefix} {s.total}"
            f" over {len(s.periods)} yearly from {s.start.isoformat()}"
            f" mode {s.mode.value}"
        )
    blocks = [format_transaction_block(tx) for tx in journal.transactions]
    parts = []
    if directives:
        parts.append("\n".join(directives))
    parts.extend(blocks)
    if not parts:
        return ""
    return "\n\n".join(parts) + "\n"


class FileReport(_Record):
    """Aggregate verdict on one journal file.

    status is "ok", "invalid" or "parse-error"; journal is the parsed
    journal when status is "ok", else None.
    """

    __slots__ = _fields = ("status", "diagnostics", "transactions", "message", "journal")
    _defaults = (None,)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _inconsistency(tx: Transaction, fallback: SourceSpan) -> ParseDiagnostic:
    return ParseDiagnostic(
        Severity.ERROR,
        "internal inconsistency: tree total is not a zero representative"
        f" after {tx.date} {tx.description!r}",
        tx.span or fallback,
    )


def validate_file(
    text: str, file: str = "<journal>", strict: bool = True
) -> FileReport:
    """Parse, then replay: every transaction must balance and post cleanly.

    The replay is the journal's own, the one its views read, and it
    checks the engine on its scaled integers (see Journal._replay): each
    posted transaction must leave the tree total unchanged, and the
    whole tree must end a zero representative. A violation of either
    would be an engine bug and is reported as an internal inconsistency.
    Problems are aggregated as diagnostics, never thrown. A valid
    file's report carries its journal.
    """
    journal, diagnostics = parse_journal(text, file=file, strict=strict)
    diags = list(diagnostics)
    if journal is None:
        n = sum(1 for d in diags if d.severity is Severity.ERROR)
        return FileReport("parse-error", tuple(diags), 0, f"{n} parse error(s)")
    fallback = SourceSpan(file, 1, 1, 1)
    replay = journal._replay
    for tx, err in replay.faults:
        if err is None:
            diags.append(_inconsistency(tx, fallback))
        else:
            diags.append(
                ParseDiagnostic(Severity.ERROR, str(err), err.span or fallback)
            )
    posted = replay.posted
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    if errors:
        return FileReport(
            "invalid", tuple(diags), posted, f"{errors} validation error(s)"
        )
    noun = "transaction" if posted == 1 else "transactions"
    return FileReport("ok", tuple(diags), posted, f"ok: {posted} {noun}, root ≡ 0", journal)
