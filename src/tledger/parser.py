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

Each line form (basis, declaration, schedule, header, posting) has one
pattern and one builder. The pattern fixes the form's keywords and token
count; the builder checks each token, reports what is wrong with it, and
builds the value. A line that no pattern takes builds nothing: it gets its
form's usage error, or the error of a line out of place. Parsing never
throws past this boundary: every problem becomes a diagnostic with a
1-based source span, and after an error the parser skips to the next
blank line so one pass can surface several mistakes. A journal value is
only produced for input with zero errors.
"""

from __future__ import annotations

import datetime as dt
import re

from .algebra import _AMOUNT_RE, Amount, _Record, _reduced
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
_CREDIT = {"dr": False, "debit": False, "cr": True, "credit": True}  # the side keywords
_TOKEN = r"([^\s;]+)"
_AMOUNT = rf"({_AMOUNT_RE.pattern}|[^\s;]+)"  # a token, then its literal's groups if it is one


def _literal(token: str, whole: str | None, frac: str | None, den: str | None) -> tuple[int, int]:
    """An _AMOUNT token's reduced integers, from its literal's groups."""
    if whole is None:
        raise ValueError(f"malformed amount {token!r}")
    return _reduced(whole, frac, den)


def _line(*items: str) -> re.Pattern:
    """A whole line: items apart by whitespace, then an optional comment."""
    return re.compile(r"\s+".join(items) + r"\s*(?:;.*)?")


# Each line form of the grammar, by production: its pattern, which fixes
# only the keywords and the token count; the _FileParser method that checks
# a match's tokens and builds its value; the usage error of a line the
# pattern refuses.
_FORMS = {
    "posting": (
        _line(rf"([ \t]\s*){_TOKEN}", _TOKEN, _AMOUNT),
        "posting_line",
        "expected posting: <account-path> <dr|cr> <amount>",
    ),
    "header": (
        _line(f"({_DATE_RE.pattern})", '"([^";]*)"'),
        "header_line",
        'expected transaction header: <YYYY-MM-DD> "<description>"',
    ),
    "basis": (_line("basis", _AMOUNT), "basis_line", "expected: basis <amount>"),
    "declaration": (_line("account", _TOKEN), "declaration_line", "expected: account <path>"),
    "schedule": (
        _line(
            "schedule", _TOKEN, _TOKEN, _AMOUNT, "over", _TOKEN,
            "yearly", "from", _TOKEN, "mode", _TOKEN,
        ),
        "schedule_line",
        "expected: schedule <source> <counterpart> <amount>"
        " over <n> yearly from <date> mode <direct|contra>",
    ),
}
_KEYWORDS = {"basis": "basis", "account": "declaration", "schedule": "schedule"}


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
        self.header: tuple[dt.date, str, tuple] | None = None  # the span as four fields
        self.postings: list[Posting] = []

    # -- diagnostics -------------------------------------------------

    def span(self, col: int, length: int) -> SourceSpan:
        return SourceSpan(self.file, self.lineno, col + 1, length)

    def token_span(self, m: re.Match, group: int) -> SourceSpan:
        start = m.start(group)  # a token is never empty
        return SourceSpan(self.file, self.lineno, start + 1, m.end(group) - start)

    def line_span(self, line: str) -> SourceSpan:
        stripped = line.strip()  # never empty
        return self.span(line.find(stripped[0]), len(stripped))

    def error(self, message: str, span: SourceSpan, *, recover: bool = False):
        self.diagnostics.append(ParseDiagnostic(Severity.ERROR, message, span))
        if recover:
            self.recovering = True
            if self.header is not None:
                self.header = None
                self.postings = []

    def warn(self, message: str, span: SourceSpan):
        self.diagnostics.append(ParseDiagnostic(Severity.WARNING, message, span))

    # -- tokens: each check takes a match and the group of its token --

    def parse_path(self, m: re.Match, group: int) -> AccountPath | None:
        token = m[group]
        path = self.paths.get(token)
        if path is None:
            try:
                path = AccountPath.parse(token)
            except ValueError as err:
                self.error(str(err), self.token_span(m, group))
                return None
            self.paths[token] = path
        return path

    def parse_amount(self, m: re.Match, group: int) -> tuple[int, int] | None:
        try:
            return _literal(*m.group(group, group + 1, group + 2, group + 3))
        except ValueError as err:
            self.error(str(err), self.token_span(m, group))
            return None

    def parse_date(self, m: re.Match, group: int, shaped: bool = False) -> dt.date | None:
        token = m[group]
        if not (shaped or _DATE_RE.fullmatch(token)):
            self.error(f"malformed date {token!r}", self.token_span(m, group))
            return None
        try:
            return dt.date.fromisoformat(token)
        except ValueError:
            self.error(f"invalid date {token!r}", self.token_span(m, group))
            return None

    def resolve_account(self, path: AccountPath, m: re.Match, group: int) -> bool:
        """Strict mode demands declaration before use; loose declares on use."""
        if self.nodes.get(path):
            return True
        if self.strict:
            self.error(f"undeclared account {path}", self.token_span(m, group))
            return False
        _declare(self.nodes, path)
        self.warn(f"implicitly declared account {path}", self.token_span(m, group))
        return True

    # -- lines ---------------------------------------------------------

    def run(self) -> tuple[Journal | None, list[ParseDiagnostic]]:
        posting, header = _FORMS["posting"][0], _FORMS["header"][0]
        for raw in self.lines:
            self.lineno += 1
            # the likely form first: a posting in a block, else a header
            if self.header is not None:
                if m := posting.fullmatch(raw):
                    self.posting_line(m)
                    continue
            elif not self.recovering and (m := header.fullmatch(raw)):
                self.header_line(m)
                continue
            line = raw.partition(";")[0]
            if not raw.strip():
                self.close_transaction()
                self.recovering = False
            elif line.strip() and not self.recovering:  # comment-only lines keep a block open
                self.other_line(raw, line)
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
        self.transactions.append(Transaction(date, description, tuple(self.postings), span))
        self.header = None
        self.postings = []

    def other_line(self, raw: str, line: str):
        """A line that is not blank, comment-only or skipped, and that run
        did not take; line is raw without its comment. A directive goes to
        its form's pattern and builder; any other line gets its error."""
        if line[0].isspace() and line[0] not in (" ", "\t"):
            self.error(
                f"indent must be spaces or tabs, got U+{ord(line[0]):04X}",
                self.span(0, len(line) - len(line.lstrip())),
                recover=True,
            )
            return
        if self.header is not None:
            if not line[0].isspace():
                self.error(
                    "expected posting or blank line inside transaction block",
                    self.line_span(line),
                    recover=True,
                )
                return
            form = "posting"
        elif line[0].isspace():
            self.error("posting outside a transaction block", self.line_span(line), recover=True)
            return
        else:
            keyword = line.split(None, 1)[0]
            form = "header" if keyword[0].isdigit() else _KEYWORDS.get(keyword)
            if form is None:
                self.error(f"unknown directive {keyword!r}", self.line_span(line), recover=True)
                return
        pattern, builder, usage = _FORMS[form]
        if m := pattern.fullmatch(raw):  # never a posting or a header: run tried those
            getattr(self, builder)(m)
        else:
            self.error(usage, self.line_span(line), recover=True)

    def basis_line(self, m: re.Match):
        literal = self.parse_amount(m, 1)
        if literal is None:
            return
        if not literal[0]:
            self.error("basis must be positive", self.token_span(m, 1))
        elif self.basis is not None:
            self.error("basis already declared", self.token_span(m, 1))
        else:
            self.basis = Amount(*literal)

    def declaration_line(self, m: re.Match):
        path = self.parse_path(m, 1)
        if path is None:
            return
        try:
            _declare(self.nodes, path)
        except DuplicateAccountError as err:
            self.error(str(err), self.token_span(m, 1))

    def schedule_line(self, m: re.Match):
        source = self.parse_path(m, 1)
        counterpart = self.parse_path(m, 2)
        total = self.parse_amount(m, 3)
        digits = m[7].lstrip("0")
        if m[7].isascii() and m[7].isdigit() and digits:
            # Five or more digits run past MAXYEAR from any start; the cap
            # keeps int() away from arbitrarily long tokens.
            n = int(digits) if len(digits) <= 4 else dt.MAXYEAR
        else:
            self.error("schedule period count must be a positive integer", self.token_span(m, 7))
            n = None
        start = self.parse_date(m, 8)
        try:
            mode = ScheduleMode(m[9])
        except ValueError:
            self.error(
                f"schedule mode must be direct or contra, got {m[9]!r}",
                self.token_span(m, 9),
            )
            mode = None
        if None in (source, counterpart, total, n, start, mode):
            return
        if start.year + n > dt.MAXYEAR:
            self.error(f"schedule runs past the year {dt.MAXYEAR}", self.token_span(m, 7))
            return
        if not total[0]:
            self.error("schedule total must be positive", self.token_span(m, 3))
            return
        if source.covers(counterpart):
            # period accounts under the source would make it interior
            self.error(
                f"schedule counterpart {counterpart} must not be its source"
                " or lie under it",
                self.token_span(m, 2),
            )
            return
        ok = self.resolve_account(source, m, 1)
        if self.resolve_account(counterpart, m, 2) and ok:
            total, span = Amount(*total), self.span(0, m.end(9))
            schedule = build_schedule(source, counterpart, total, n, start, mode, span=span)
            self.schedules.append(schedule)

    def header_line(self, m: re.Match):
        date = self.parse_date(m, 1, shaped=True)  # the pattern took [0-9]{4}-[0-9]{2}-[0-9]{2}
        if date is None:
            self.recovering = True
            return
        self.header = (date, m[2], (self.file, self.lineno, 1, m.end(2) + 1))

    def posting_line(self, m: re.Match):
        # Most lines are postings: their reads are inline, and the span is built only if read.
        indent, token, side, amount, whole, fraction, den = m.groups()
        path = self.paths.get(token) or self.parse_path(m, 2)
        credit = _CREDIT.get(side)
        if credit is None:
            self.error(f"expected side keyword dr or cr, got {side!r}", self.token_span(m, 3))
        try:
            if whole is None:
                raise ValueError(f"malformed amount {amount!r}")
            num, den = _reduced(whole, fraction, den)
        except ValueError as err:
            self.error(str(err), self.token_span(m, 4))
            return
        if path is None or credit is None:
            return
        if self.nodes.get(path) or self.resolve_account(path, m, 2):
            where = self.file, self.lineno, len(indent) + 1, len(token)
            self.postings.append(Posting._parsed(path, credit, num, den, where))


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
    replay = journal._replay
    for tx, err in replay.faults:
        span = (tx.span if err is None else err.span) or SourceSpan(file, 1, 1, 1)
        if err is None:
            diags.append(_inconsistency(tx, span))
        else:
            diags.append(ParseDiagnostic(Severity.ERROR, str(err), span))
    posted = replay.posted
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    if errors:
        return FileReport(
            "invalid", tuple(diags), posted, f"{errors} validation error(s)"
        )
    noun = "transaction" if posted == 1 else "transactions"
    return FileReport("ok", tuple(diags), posted, f"ok: {posted} {noun}, root ≡ 0", journal)
