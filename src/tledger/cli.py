"""Batch command-line surface.

Every command is a pure read of a journal file: parse, validate, derive,
print. Reports go to standard output, diagnostics to standard error.
Exit codes: 0 success, 1 validation or usage-of-data failure, 2 parse
failure. Identical inputs and flags produce byte-identical output. The
argument parser is built once per process, on the first main(), and a
posting's source span only when a diagnostic reads it.

The reports print straight from the replay's integer pairs over D (see
tledger.ledger): each printed number is an integer, or a difference of
two, times one unit, 1/D, or under --percent 100/D over the basis with a
% sign. Its sign is that of its printed digits, so nothing prints -0.00.
Only the library views build TAccounts.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import sys
from fractions import Fraction

from .algebra import _decimal, _rational, _signed
from .chart import _segments
from .errors import IntervalError
from .ledger import Journal
from .matching import emit_schedule_transactions
from .parser import _DATE_RE, FileReport, format_transaction_block, validate_file

__all__ = ["main", "entry"]


# -- loading ----------------------------------------------------------


def _load_valid(path: str, strict: bool) -> tuple[FileReport | None, int]:
    """Parse and fully validate, printing the diagnostics.

    Returns the report (None if the file cannot be read) and the exit
    code its status maps to.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return None, 2
    report = validate_file(text, file=path, strict=strict)
    for diag in report.diagnostics:
        print(diag.render(), file=sys.stderr)
    if report.status == "parse-error":
        return report, 2
    if report.status == "invalid":
        return report, 1
    return report, 0


def _resolve_cutoff(journal: Journal, at: dt.date | None) -> dt.date:
    if at is not None:
        return at
    _, txs = journal.expand()
    return txs[-1].date if txs else dt.date.min


def _renderer(journal: Journal, args):
    """The one map from a replay integer to its printed text (see the
    module docstring); None, with the error printed, if --percent has no
    basis. A residual prints exact and signed, whatever --decimal says:
    it only shows on an engine fault, whose size is the point."""
    unit, suffix, places = Fraction(1, journal._replay.scale), "", args.decimal
    if args.percent:
        if journal.basis is None:
            print("error: --percent requires a basis declaration", file=sys.stderr)
            return None
        unit, suffix = unit * 100 / journal.basis.as_fraction, "%"

    scaled, per = unit.numerator, unit.denominator

    def text(n: int, residual: bool = False) -> str:
        value = Fraction(n * scaled, per)  # n * unit, with no second Fraction to reduce
        if residual:
            return f"{_signed(value)}{suffix}"
        digits = _rational(value) if places is None else _decimal(value, places)
        return f"{digits}{suffix}"

    return text


def _total_line(pairs: dict, text) -> str:
    """The componentwise sum of a view's integer pairs, and its zero check."""
    debit = sum(d for d, _ in pairs.values())
    credit = sum(c for _, c in pairs.values())
    total = f"total  ({text(debit)}, {text(credit)})"
    if debit == credit:
        return f"{total}  = 0  ok"
    return f"{total}  IMBALANCED residual {text(debit - credit, residual=True)}"


# -- commands ---------------------------------------------------------


def cmd_balance(journal: Journal, args) -> int:
    cutoff = _resolve_cutoff(journal, args.at)
    pairs = journal._stock_pairs(cutoff)
    text = _renderer(journal, args)
    if text is None:
        return 1

    # Sorted paths are in pre-order: a parent sorts right before its
    # subtree. One pass from the end adds every node's signed integer
    # and visibility into its parent; a node shows if it is a nonzero
    # leaf (any leaf with --show-zero) or has a child that shows. Both
    # maps are keyed by segments, in sorted order, so a parent is a slice.
    value = {}
    for path in sorted(journal._replay.chart.nodes, key=_segments):
        debit, credit = pairs.get(path, (0, 0))
        value[path.segments] = debit - credit
    shown = {segs: args.show_zero or v != 0 for segs, v in value.items()}
    for segs in reversed(value):
        if len(segs) > 1:
            parent = segs[:-1]
            value[parent] += value[segs]
            shown[parent] = shown[parent] or shown[segs]
    lines = [f"balance as of {cutoff.isoformat()}"]
    lines.extend(
        f"{'  ' * len(segs)}{segs[-1]}  {text(v)}"
        for segs, v in value.items()
        if shown[segs]
    )
    lines.append(_total_line(pairs, text))
    print("\n".join(lines))
    return 0


def cmd_flows(journal: Journal, args) -> int:
    _, txs = journal.expand()
    start = args.from_date
    end = _resolve_cutoff(journal, args.to_date)
    if start is None:
        if txs and txs[0].date == dt.date.min:
            print("error: no day before 0001-01-01 to default --from to", file=sys.stderr)
            return 1
        start = txs[0].date - dt.timedelta(days=1) if txs else dt.date.min
    try:
        pairs = journal._flow_pairs(start, end)
    except IntervalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    text = _renderer(journal, args)
    if text is None:
        return 1
    lines = [f"flows from {start.isoformat()} to {end.isoformat()}"]
    for account, (debit, credit) in pairs.items():
        net = debit - credit
        if net or args.show_zero:
            side = "cr" if net < 0 else "dr"
            lines.append(f"  {account}  {side} {text(abs(net))}")
    lines.append(_total_line(pairs, text))
    print("\n".join(lines))
    return 0


def cmd_equation(journal: Journal, args) -> int:
    cutoff = _resolve_cutoff(journal, args.at)
    pairs = journal._stock_pairs(cutoff)
    text = _renderer(journal, args)
    if text is None:
        return 1
    # a stock pair is already reduced: a zero on at least one side
    terms = [
        f"({text(d)}, {text(c)})_{account}"
        for account, (d, c) in pairs.items()
        if d or c
    ]
    print(f"0 = {' + '.join(terms) if terms else '(0, 0)'}")
    print(_total_line(pairs, text))
    return 0


def cmd_schedule(journal: Journal) -> int:
    blocks = []
    for schedule in journal.schedules:
        header = (
            f"; schedule {schedule.source} over"
            f" {len(schedule.periods)} periods ({schedule.mode.value})"
        )
        txs = emit_schedule_transactions(schedule)
        blocks.append("\n\n".join([header] + [format_transaction_block(t) for t in txs]))
    if blocks:
        print("\n\n".join(blocks))
    return 0


# -- argument plumbing ------------------------------------------------


def _places(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value <= 12:
        raise argparse.ArgumentTypeError("decimal places must be between 0 and 12")
    return value


def _iso_date(text: str) -> dt.date:
    """The journal's YYYY-MM-DD only: fromisoformat takes more on Python 3.11+."""
    if _DATE_RE.fullmatch(text):
        try:
            return dt.date.fromisoformat(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {text!r}")


@functools.cache  # built on the first main(), then shared: parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tledger",
        description="Double-entry ledger engine over plain-text journal files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, render: bool = True):
        p.add_argument("file", help="journal file")
        p.add_argument(
            "--loose",
            action="store_true",
            help="declare accounts implicitly on first use",
        )
        if render:
            p.add_argument(
                "--percent",
                action="store_true",
                help="express values as percentages of the declared basis",
            )
            p.add_argument(
                "--decimal",
                type=_places,
                metavar="PLACES",
                help="render fixed decimals (0-12 places) instead of rationals",
            )
            p.add_argument(
                "--show-zero",
                action="store_true",
                help="include accounts whose reduced balance is zero",
            )

    p = sub.add_parser("check", help="validate the file; exit 0/1/2")
    common(p, render=False)

    p = sub.add_parser("balance", help="stock view at a cutoff date")
    common(p)
    p.add_argument("--at", type=_iso_date, metavar="DATE", help="cutoff (default: last)")

    p = sub.add_parser("flows", help="net flows over a half-open interval")
    common(p)
    p.add_argument("--from", dest="from_date", type=_iso_date, metavar="DATE")
    p.add_argument("--to", dest="to_date", type=_iso_date, metavar="DATE")

    p = sub.add_parser("equation", help="zero-account decomposition at a date")
    common(p)
    p.add_argument("--at", type=_iso_date, metavar="DATE", help="cutoff (default: last)")

    p = sub.add_parser("schedule", help="print the transactions schedules will emit")
    common(p, render=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    report, code = _load_valid(args.file, not args.loose)
    if code:
        return code
    journal = report.journal
    if args.command == "check":
        print(report.message)
        return 0
    if args.command == "schedule":
        return cmd_schedule(journal)
    if args.command == "balance":
        return cmd_balance(journal, args)
    if args.command == "flows":
        return cmd_flows(journal, args)
    return cmd_equation(journal, args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
