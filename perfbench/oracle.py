"""Independent oracle for the benchmark (stdlib only).

Expected values come from the generator's record of every posting, one
signed Fraction per posting, never from the package under test. Command
output is read back with this module's own regexes and compared, value
by value, with the oracle rendered the way the reports render reduced
rationals. Each check returns None when the output is right and a short
reason when it is not.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import random
import re
import sys
from collections import defaultdict
from fractions import Fraction

NUM = r"\d+(?:/\d+)?"
SIGNED = r"-?\d+(?:/\d+)?"
NAME = r"[A-Za-z][A-Za-z0-9_-]*"
PATH = rf"{NAME}(?::{NAME})*"

TOTAL_RE = re.compile(rf"^total  \(({NUM}), ({NUM})\)  = 0  ok$")
BALANCE_LINE_RE = re.compile(rf"^((?:  )+)({NAME})  ({SIGNED})$")
TERM_RE = re.compile(rf"^\(({NUM}), ({NUM})\)_({PATH})$")
FLOW_LINE_RE = re.compile(rf"^  ({PATH})  (dr|cr) ({NUM})$")
SCHEDULE_HEAD_RE = re.compile(rf"^; schedule ({PATH}) over (\d+) periods \((direct|contra)\)$")
SCHEDULE_TX_RE = re.compile(rf'^(\d{{4}}-\d{{2}}-\d{{2}}) "matching: ({PATH}) period (\d+)/(\d+)"$')
SCHEDULE_POSTING_RE = re.compile(rf"^    ({PATH}) (dr|cr) ({NUM})$")

# Where the amounts sit in each report, for the self-check's corruption.
AMOUNT_RE = {
    "balance": re.compile(rf"(?<=  )-?(\d+(?:/\d+)?)$|(?<=[(, ])({NUM})(?=[,)])", re.M),
    "equation": re.compile(rf"(?<=[(, ])({NUM})(?=[,)])"),
    "flows": re.compile(rf"(?<= [dc]r )({NUM})$|(?<=[(, ])({NUM})(?=[,)])", re.M),
}


@contextlib.contextmanager
def unlimited_int_digits():
    """Let this module print and read integers of any length.

    Balances on the prime profile can pass Python's default limit on
    int/str conversion. The limit is restored afterwards, so the program
    under test still runs with the interpreter's default.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def render(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_digits(n: int) -> int:
    """Exact count of decimal digits of |n|, without int-to-str conversion."""
    n = abs(n)
    digits = max(1, (n.bit_length() * 30103) // 100000)
    while 10**digits <= n:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > n:
        digits -= 1
    return digits


def month_ends(year: int) -> list[tuple[str, str]]:
    """(previous month-end, month-end) pairs for the twelve months of year."""
    ends = [dt.date(year, 1, 1) - dt.timedelta(days=1)]
    for month in range(2, 13):
        ends.append(dt.date(year, month, 1) - dt.timedelta(days=1))
    ends.append(dt.date(year, 12, 31))
    return [(a.isoformat(), b.isoformat()) for a, b in zip(ends, ends[1:])]


class Oracle:
    """Expected views of one generated journal."""

    def __init__(self, record: dict):
        self.record = record
        self.postings = [
            (date, account, Fraction(num, den))
            for date, account, num, den in record["postings"]
        ]
        paths = set(record["declared"]) | {account for _, account, _ in self.postings}
        self.nodes = set()
        for path in paths:
            parts = path.split(":")
            self.nodes.update(":".join(parts[:i]) for i in range(1, len(parts) + 1))
        parents = {n.rsplit(":", 1)[0] for n in self.nodes if ":" in n}
        self.leaves = sorted(n for n in self.nodes if n not in parents)
        dates = sorted(date for date, _, _ in self.postings)
        self.first, self.last = dates[0], dates[-1]
        self.transactions = record["authored"] + sum(s["periods"] for s in record["schedules"])
        self._stocks: dict[str, dict[str, Fraction]] = {}
        self._flows: dict[tuple[str, str], tuple[dict[str, Fraction], Fraction]] = {}
        self.final = self.stock(self.last)
        self.final_sums = self.subtree_sums(self.final)

    def stock(self, cutoff: str) -> dict[str, Fraction]:
        """Signed (debit minus credit) balance of every leaf on or before cutoff."""
        if cutoff not in self._stocks:
            out = dict.fromkeys(self.leaves, Fraction(0))
            for date, account, value in self.postings:
                if date <= cutoff:
                    out[account] += value
            self._stocks[cutoff] = out
        return self._stocks[cutoff]

    def flow(self, start: str, end: str) -> tuple[dict[str, Fraction], Fraction]:
        """Signed net per leaf over (start, end], and the sum of all debits."""
        if (start, end) not in self._flows:
            out = dict.fromkeys(self.leaves, Fraction(0))
            debits = Fraction(0)
            for date, account, value in self.postings:
                if start < date <= end:
                    out[account] += value
                    if value > 0:
                        debits += value
            self._flows[start, end] = out, debits
        return self._flows[start, end]

    def subtree_sums(self, leaf_values: dict[str, Fraction]) -> dict[str, Fraction]:
        sums: dict[str, Fraction] = defaultdict(Fraction)
        for leaf, value in leaf_values.items():
            parts = leaf.split(":")
            for i in range(1, len(parts) + 1):
                sums[":".join(parts[:i])] += value
        return sums

    # -- command output ------------------------------------------------

    def check_check(self, code: int, out: str) -> str | None:
        expected = f"ok: {self.transactions} transactions, root ≡ 0\n"
        if code != 0:
            return f"exit {code}"
        if out != expected:
            return f"expected {expected!r}, got {out[:200]!r}"
        return None

    def _check_total(self, line: str, side_total: Fraction) -> str | None:
        m = TOTAL_RE.match(line)
        if m is None:
            return f"bad total line {line[:200]!r}"
        if m.group(1) != render(side_total) or m.group(2) != render(side_total):
            return "total line disagrees with the oracle"
        return None

    def check_balance(self, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        lines = out.rstrip("\n").split("\n")
        if lines[0] != f"balance as of {self.last}":
            return f"bad header {lines[0]!r}"
        sums = self.final_sums
        stack: list[str] = []
        seen = set()
        for line in lines[1:-1]:
            m = BALANCE_LINE_RE.match(line)
            if m is None:
                return f"unreadable line {line[:120]!r}"
            depth = len(m.group(1)) // 2 - 1
            if depth > len(stack):
                return f"indentation jumps at {line[:120]!r}"
            stack[depth:] = [m.group(2)]
            node = ":".join(stack)
            if node not in self.nodes or node in seen:
                return f"unexpected node {node}"
            seen.add(node)
            if m.group(3) != render(sums[node]):
                return f"{node}: printed {m.group(3)[:60]}, oracle {render(sums[node])[:60]}"
        missing = [n for n, v in sums.items() if v and n not in seen]
        if missing:
            return f"nonzero nodes missing: {missing[:5]}"
        positive = sum((v for v in self.final.values() if v > 0), Fraction(0))
        return self._check_total(lines[-1], positive)

    def check_equation(self, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        lines = out.rstrip("\n").split("\n")
        if len(lines) != 2 or not lines[0].startswith("0 = "):
            return "expected an equation line and a total line"
        seen = set()
        for term in lines[0][4:].split(" + "):
            m = TERM_RE.match(term)
            if m is None:
                return f"unreadable term {term[:120]!r}"
            debit, credit, account = m.groups()
            if account not in self.final or account in seen:
                return f"unexpected account {account}"
            seen.add(account)
            value = self.final[account]
            want = (render(value), "0") if value > 0 else ("0", render(-value))
            if (debit, credit) != want:
                return f"{account}: printed ({debit[:40]}, {credit[:40]})"
        missing = [a for a, v in self.final.items() if v and a not in seen]
        if missing:
            return f"nonzero leaves missing: {missing[:5]}"
        positive = sum((v for v in self.final.values() if v > 0), Fraction(0))
        return self._check_total(lines[1], positive)

    def check_flows(self, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        start = (dt.date.fromisoformat(self.first) - dt.timedelta(days=1)).isoformat()
        flow, debits = self.flow(start, self.last)
        lines = out.rstrip("\n").split("\n")
        if lines[0] != f"flows from {start} to {self.last}":
            return f"bad header {lines[0]!r}"
        seen = set()
        for line in lines[1:-1]:
            m = FLOW_LINE_RE.match(line)
            if m is None:
                return f"unreadable line {line[:120]!r}"
            account, side, amount = m.groups()
            if account not in flow or account in seen:
                return f"unexpected account {account}"
            seen.add(account)
            value = flow[account]
            if (side, amount) != ("dr" if value > 0 else "cr", render(abs(value))):
                return f"{account}: printed {side} {amount[:60]}"
        missing = [a for a, v in flow.items() if v and a not in seen]
        if missing:
            return f"nonzero flows missing: {missing[:5]}"
        return self._check_total(lines[-1], debits)

    def check_schedule(self, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        blocks = out.rstrip("\n").split("\n\n")
        for schedule in self.record["schedules"]:
            n = schedule["periods"]
            if len(blocks) < n + 1:
                return "too few blocks"
            head, txs, blocks = blocks[0], blocks[1 : n + 1], blocks[n + 1 :]
            m = SCHEDULE_HEAD_RE.match(head)
            if m is None or m.groups() != (schedule["source"], str(n), schedule["mode"]):
                return f"bad schedule header {head[:120]!r}"
            start = dt.date.fromisoformat(schedule["start"])
            total = Fraction(0)
            for k, block in enumerate(txs, 1):
                lines = block.split("\n")
                if len(lines) != 3:
                    return f"period {k}: expected two postings"
                m = SCHEDULE_TX_RE.match(lines[0])
                date = start.replace(year=start.year + k).isoformat()
                if m is None or m.groups() != (date, schedule["source"], str(k), str(n)):
                    return f"bad period header {lines[0][:120]!r}"
                dr = SCHEDULE_POSTING_RE.match(lines[1])
                cr = SCHEDULE_POSTING_RE.match(lines[2])
                if dr is None or cr is None:
                    return f"period {k}: unreadable posting"
                if dr.groups()[:2] != (f"{schedule['prefix']}:y{k}", "dr") or cr.groups()[
                    :2
                ] != (schedule["credit_to"], "cr"):
                    return f"period {k}: wrong accounts"
                if dr.group(3) != cr.group(3):
                    return f"period {k}: debit and credit differ"
                total += Fraction(dr.group(3))
            if total != Fraction(schedule["total"]):
                return f"{schedule['source']}: periods sum to {total}, not {schedule['total']}"
        if blocks:
            return "unexpected trailing blocks"
        return None

    def check_close(self, views: list[tuple[str, str, str, object]]) -> str | None:
        """views: (kind, start, end, value) for the library close session.

        kind "stock" and "flow" carry {account: (debit, credit)}; kind
        "reconcile" carries (ok, number of rows).
        """
        expected = {(k, s, e) for s, e in month_ends(2020) for k in ("stock", "flow", "reconcile")}
        if {(k, s, e) for k, s, e, _ in views} != expected or len(views) != len(expected):
            return "close session did not produce every month's views"
        for kind, start, end, value in views:
            if kind == "reconcile":
                ok, rows = value
                if not ok or rows != len(self.leaves):
                    return f"reconcile {start}..{end}: ok={ok}, rows={rows}"
                continue
            want = self.stock(end) if kind == "stock" else self.flow(start, end)[0]
            if sorted(value) != self.leaves:
                return f"{kind} {end}: account set differs"
            for account, (debit, credit) in value.items():
                if debit - credit != want[account]:
                    return f"{kind} {end}: {account} disagrees with the oracle"
                if kind == "stock" and debit and credit:
                    return f"stock {end}: {account} is not reduced"
        return None

    def check(self, op: str, result) -> str | None:
        with unlimited_int_digits():
            if op == "close":
                return self.check_close(result)
            return getattr(self, f"check_{op}")(*result)


def corrupt(op: str, out: str, rng: random.Random) -> str:
    """out with one digit of one reported amount changed."""
    with unlimited_int_digits():
        spans = [m.span(m.lastindex) for m in AMOUNT_RE[op].finditer(out)]
    start, end = rng.choice(spans)
    i = rng.choice([i for i in range(start, end) if out[i].isdigit()])
    return out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :]
