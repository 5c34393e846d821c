"""Batch command-line surface.

Every command is a pure read of a journal file: parse, validate, derive,
print. Reports go to standard output, diagnostics to standard error.
Exit codes: 0 success, 1 validation or usage-of-data failure, 2 parse
failure. Identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from fractions import Fraction

from .algebra import Amount, TAccount, _Record, _rational, _signed
from .chart import _segments
from .ledger import Journal, Ledger
from .matching import emit_schedule_transactions
from .parser import FileReport, format_transaction_block, validate_file

__all__ = ["RenderOptions", "main", "entry"]


class RenderOptions(_Record):
    """How report values are shown; never affects computation.

    places None renders reduced rationals; an integer renders fixed
    decimals (round half to even). Percent mode divides by the declared
    basis. Zero-balance accounts are hidden unless show_zero is set.
    """

    __slots__ = _fields = ("places", "percent", "show_zero")
    _defaults = (None, False, False)

    def __post_init__(self):
        if self.places is not None and not 0 <= self.places <= 12:
            raise ValueError("decimal places must be between 0 and 12")


def _fmt_fraction(value: Fraction, places: int | None) -> str:
    if places is None:
        return _rational(value)
    sign = "-" if value < 0 else ""
    return sign + Amount(abs(value)).to_decimal(places)


def _fmt_value(value: Fraction, opts: RenderOptions) -> str:
    """A signed scalar; percent mode shows it as a percentage of basis."""
    if opts.percent:
        return _fmt_fraction(value * 100, opts.places) + "%"
    return _fmt_fraction(value, opts.places)


def _fmt_pair(entry: TAccount, places: int | None) -> str:
    debit = _fmt_fraction(entry.debit.as_fraction, places)
    credit = _fmt_fraction(entry.credit.as_fraction, places)
    return f"({debit}, {credit})"


def _zero_check_line(total: TAccount, places: int | None) -> str:
    if total.is_zero:
        return f"total  {_fmt_pair(total, places)}  = 0  ok"
    residual = _signed(total.balance())
    return f"total  {_fmt_pair(total, places)}  IMBALANCED residual {residual}"


# -- loading ----------------------------------------------------------


def _read_file(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return None


def _load_valid(path: str, strict: bool) -> tuple[FileReport | None, int]:
    """Parse and fully validate, printing the diagnostics.

    Returns the report (None if the file cannot be read) and the exit
    code its status maps to.
    """
    text = _read_file(path)
    if text is None:
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


def _view(
    journal: Journal, pairs: dict, opts: RenderOptions, as_of=None, interval=None
) -> tuple[Ledger, TAccount] | None:
    """The view on a lookup's integer pairs, and its total line's pair
    summed on those integers; under --percent, both over the basis."""
    replay = journal._replay
    ledger, total = replay.view(pairs, as_of, interval), replay.total(pairs)
    if not opts.percent:
        return ledger, total
    if journal.basis is None:
        print("error: --percent requires a basis declaration", file=sys.stderr)
        return None
    k = journal.basis.reciprocal()
    return ledger.scaled(k), total.scale(k)


# -- commands ---------------------------------------------------------


def cmd_check(args) -> int:
    report, code = _load_valid(args.file, not args.loose)
    if code == 0:
        print(report.message)
    return code


def cmd_balance(args, opts: RenderOptions) -> int:
    report, code = _load_valid(args.file, not args.loose)
    if code:
        return code
    journal = report.journal
    cutoff = _resolve_cutoff(journal, args.at)
    view = _view(journal, journal._stock_pairs(cutoff), opts, as_of=cutoff)
    if view is None:
        return 1
    ledger, total = view

    # Sorted paths are in pre-order: a parent sorts right before its
    # subtree. One pass from the end adds every node's balance and
    # visibility into its parent; a node shows if it is a nonzero leaf
    # (any leaf with --show-zero) or has a child that shows. Both maps
    # are keyed by segments, in sorted order, so a parent is a slice.
    balances = ledger.balances
    value = {
        p.segments: balances[p].balance() if p in balances else Fraction(0)
        for p in sorted(ledger.chart.nodes, key=_segments)
    }
    shown = {segs: opts.show_zero or v != 0 for segs, v in value.items()}
    for segs in reversed(value):
        if len(segs) > 1:
            parent = segs[:-1]
            value[parent] += value[segs]
            shown[parent] = shown[parent] or shown[segs]
    lines = [f"balance as of {cutoff.isoformat()}"]
    lines.extend(
        f"{'  ' * len(segs)}{segs[-1]}  {_fmt_value(v, opts)}"
        for segs, v in value.items()
        if shown[segs]
    )
    lines.append(_zero_check_line(total, opts.places))
    print("\n".join(lines))
    return 0


def cmd_flows(args, opts: RenderOptions) -> int:
    report, code = _load_valid(args.file, not args.loose)
    if code:
        return code
    journal = report.journal
    _, txs = journal.expand()
    start = args.from_date
    end = args.to_date
    if start is None:
        if txs and txs[0].date == dt.date.min:
            print("error: no day before 0001-01-01 to default --from to", file=sys.stderr)
            return 1
        start = txs[0].date - dt.timedelta(days=1) if txs else dt.date.min
    if end is None:
        end = txs[-1].date if txs else dt.date.min
    if start > end:
        print(f"error: inverted interval: {start} > {end}", file=sys.stderr)
        return 1
    view = _view(journal, journal._flow_pairs(start, end), opts, interval=(start, end))
    if view is None:
        return 1
    ledger, total = view
    lines = [f"flows from {start.isoformat()} to {end.isoformat()}"]
    for account, entry in ledger.items():
        net = entry.reduce()
        if net.is_zero and not opts.show_zero:
            continue
        if net.credit:
            side, amount = "cr", net.credit
        else:
            side, amount = "dr", net.debit
        lines.append(f"  {account}  {side} {_fmt_value(amount.as_fraction, opts)}")
    lines.append(_zero_check_line(total, opts.places))
    print("\n".join(lines))
    return 0


def cmd_equation(args, opts: RenderOptions) -> int:
    report, code = _load_valid(args.file, not args.loose)
    if code:
        return code
    journal = report.journal
    cutoff = _resolve_cutoff(journal, args.at)
    view = _view(journal, journal._stock_pairs(cutoff), opts, as_of=cutoff)
    if view is None:
        return 1
    ledger, total = view
    terms = ledger.nonzero_items()
    if terms:
        rendered = " + ".join(
            f"{_fmt_pair(entry, opts.places)}_{account}" for account, entry in terms
        )
        print(f"0 = {rendered}")
    else:
        print("0 = (0, 0)")
    print(_zero_check_line(total, opts.places))
    return 0


def cmd_schedule(args) -> int:
    report, code = _load_valid(args.file, not args.loose)
    if code:
        return code
    journal = report.journal
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
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {text!r}")


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
                help="express values as fractions of the declared basis",
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
    if args.command == "check":
        return cmd_check(args)
    if args.command == "schedule":
        return cmd_schedule(args)
    opts = RenderOptions(
        places=args.decimal, percent=args.percent, show_zero=args.show_zero
    )
    if args.command == "balance":
        return cmd_balance(args, opts)
    if args.command == "flows":
        return cmd_flows(args, opts)
    return cmd_equation(args, opts)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
