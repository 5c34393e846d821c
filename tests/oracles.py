"""Independent brute-force oracles the engine is checked against.

These recompute results from postings with one signed Fraction per
account — no T-account pairs, no reduction — so agreement with the
engine is meaningful, not circular. fmt prints a number as the CLI
reports do, by integer arithmetic of its own.
"""

from __future__ import annotations

import datetime as dt
from fractions import Fraction

from tledger import AccountPath, Transaction


class SignedLedgerOracle:
    """One signed rational per account, updated by debit-minus-credit."""

    def __init__(self, accounts):
        self.balances: dict[AccountPath, Fraction] = {a: Fraction(0) for a in accounts}

    def apply(self, tx: Transaction) -> None:
        for p in tx.postings:
            self.balances[p.account] += (
                p.entry.debit.as_fraction - p.entry.credit.as_fraction
            )


def brute_flow(
    txs: list[Transaction], start: dt.date, end: dt.date
) -> dict[AccountPath, Fraction]:
    """Signed net flow per account over (start, end], straight off postings."""
    out: dict[AccountPath, Fraction] = {}
    for tx in txs:
        if start < tx.date <= end:
            for p in tx.postings:
                net = p.entry.debit.as_fraction - p.entry.credit.as_fraction
                out[p.account] = out.get(p.account, Fraction(0)) + net
    return out


def half_even(value: Fraction, places: int) -> str:
    """value at places decimals, ties to even: round half up, then step
    an odd tie back down. The sign is the rounded digits': never -0.00."""
    n, d = abs(value.numerator) * 10**places, value.denominator
    q, r = divmod(2 * n + d, 2 * d)
    if r == 0 and q % 2:
        q -= 1
    sign = "-" if value < 0 and q else ""
    if places == 0:
        return f"{sign}{q}"
    whole, frac = divmod(q, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def fmt(value: Fraction, places=None, percent=False) -> str:
    """A number as the reports print it: a rational, or places decimals.
    Under percent, value is a fraction of the basis, printed in percent."""
    if percent:
        return fmt(value * 100, places) + "%"
    if places is not None:
        return half_even(value, places)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
