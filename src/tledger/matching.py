"""Multi-period matching.

A matching schedule consumes a debit-side resource in installments: it
partitions the resource across periods and, each period, moves one
slice of it against a period cost account. Settling a resource against
an obligation in one go needs no helper: it is an ordinary transaction
that debits the obligation and credits the resource by the same amount,
so both drop out of the reduced balance sheet.

Two emission modes cover the two bookkeeping conventions: direct mode
credits the source account itself (derecognition), contra mode credits a
sibling "accumulated-depreciation" account that reduced reports net
against the source. Both give identical net book values at every period
boundary.
"""

from __future__ import annotations

import datetime as dt
import enum
from fractions import Fraction

from .algebra import Amount, TAccount, _Record, _rational
from .chart import AccountPath
from .diagnostics import SourceSpan
from .ledger import Ledger, Posting, Transaction

__all__ = [
    "MatchingSchedule",
    "ScheduleMode",
    "build_schedule",
    "emit_schedule_transactions",
    "contra_account",
    "net_book_value",
]

CONTRA_SEGMENT = "accumulated-depreciation"


class ScheduleMode(enum.Enum):
    DIRECT = "direct"
    CONTRA = "contra"


class MatchingSchedule(_Record):
    """A partition of a resource matched period by period.

    Fractions are exact, positive, and sum to one, so the emitted
    movements always rebuild the total with no rounding residue.
    """

    __slots__ = _fields = (
        "source", "counterpart_prefix", "total", "periods", "mode", "start", "span"
    )
    _compared = _fields[:-1]
    _defaults = (ScheduleMode.DIRECT, None, None)

    def __post_init__(self):
        if not self.total:
            raise ValueError("schedule total must be positive")
        if not self.periods:
            raise ValueError("schedule needs at least one period")
        running = Fraction(0)
        last: dt.date | None = None
        for date, fraction in self.periods:
            if not fraction:
                raise ValueError("schedule fractions must be positive")
            if last is not None and date <= last:
                raise ValueError("schedule period dates must be strictly increasing")
            last = date
            running += fraction.as_fraction
        if running != 1:
            raise ValueError(f"schedule fractions must sum to 1, got {_rational(running)}")


def add_years(date: dt.date, years: int) -> dt.date:
    """Calendar-year stepping; Feb 29 lands on Feb 28 off leap years."""
    try:
        return date.replace(year=date.year + years)
    except ValueError:
        return date.replace(year=date.year + years, day=28)


def build_schedule(
    source: AccountPath,
    counterpart_prefix: AccountPath,
    total: Amount,
    n: int,
    start: dt.date,
    mode: ScheduleMode = ScheduleMode.DIRECT,
    span: SourceSpan | None = None,
) -> MatchingSchedule:
    """Straight-line schedule: n yearly periods of exactly 1/n each.

    Period k falls on the k-th anniversary of start. Other fraction
    vectors can be fed to MatchingSchedule directly; straight-line is
    the only built-in generator.
    """
    periods = tuple((add_years(start, k), Amount(1, n)) for k in range(1, n + 1))
    return MatchingSchedule(
        source, counterpart_prefix, total, periods, mode, start=start, span=span
    )


def contra_account(source: AccountPath) -> AccountPath:
    """The source's sibling account that accumulates contra credits."""
    parent = source.parent
    if parent is None:
        return AccountPath((CONTRA_SEGMENT,))
    return parent.child(CONTRA_SEGMENT)


def emit_schedule_transactions(schedule: MatchingSchedule) -> list[Transaction]:
    """One balanced transaction per period.

    Period k debits a per-period cost account under the counterpart
    prefix and credits the source (direct mode) or the contra sibling
    (contra mode) by total times the period fraction. After the final
    period the net book value is exactly zero.
    """
    credit_to = (
        schedule.source
        if schedule.mode is ScheduleMode.DIRECT
        else contra_account(schedule.source)
    )
    n = len(schedule.periods)
    out = []
    for k, (date, fraction) in enumerate(schedule.periods, 1):
        amount = schedule.total * fraction
        out.append(
            Transaction(
                date,
                f"matching: {schedule.source} period {k}/{n}",
                (
                    Posting(schedule.counterpart_prefix.child(f"y{k}"), TAccount.dr(amount)),
                    Posting(credit_to, TAccount.cr(amount)),
                ),
                span=schedule.span,
            )
        )
    return out


def net_book_value(ledger: Ledger, schedule: MatchingSchedule) -> TAccount:
    """The source's carrying value, netting the contra account if present."""
    value = ledger.aggregate(schedule.source)
    contra = contra_account(schedule.source)
    if schedule.mode is ScheduleMode.CONTRA and contra in ledger.chart:
        value = value + ledger.aggregate(contra)
    return value.reduce()
