"""A fixed, stdlib-only reference kernel that gauges the host's speed.

The benchmark's host shares its cores: at times the same pure-Python
work runs up to 1.7 times slower than at others, in spells that last
seconds to minutes, and the interpreter's own CPU time slows with it.
No statistic over one run's samples removes that drift. So every timed
operation is bracketed by two runs of this kernel, and its wall time is
divided by theirs: drift that slows both cancels out.

A normalized time is reported in seconds, as NOMINAL_S * (operation
wall time / mean wall time of the two kernel runs around it): the time
the operation takes on a host where this kernel takes NOMINAL_S. An
operation much longer than the kernel is timed in laps, each normalized
by its own pair of kernel runs. The kernel does the kind of work the
program does, and none of the program's code: it reads posting lines
with a regex, adds Fractions, keys dicts by account tuples, copies a
balance dict, renders values and takes gcds of large integers. Changing
it, or NOMINAL_S, changes every reported time, so neither may change
between two commits that are compared.
"""

from __future__ import annotations

import math
import random
import re
import time
from fractions import Fraction

NOMINAL_S = 0.010

_LINE = re.compile(r"^    ([a-z0-9:]+) (dr|cr) (\d+(?:\.\d+)?)$")
_rng = random.Random(20200101)
_LINES = [
    f"    {_rng.choice(('assets', 'income', 'expenses'))}:a{_rng.randrange(40)}"
    f" {_rng.choice(('dr', 'cr'))} {_rng.randrange(1, 10**6) / 100:.2f}"
    for _ in range(700)
]
_BIG = [_rng.getrandbits(4000) | 1 for _ in range(24)]


def kernel() -> str:
    balances: dict[tuple[str, ...], Fraction] = {}
    snapshots = []
    for i, line in enumerate(_LINES):
        account, side, amount = _LINE.match(line).groups()
        key = tuple(account.split(":"))
        value = Fraction(amount)
        balances[key] = balances.get(key, Fraction(0)) + (value if side == "dr" else -value)
        if i % 50 == 0:
            snapshots.append(dict(balances))
    rendered = "\n".join(f"{':'.join(k)}  {v}" for k, v in sorted(balances.items()))
    g = 0
    for a, b in zip(_BIG, _BIG[1:]):
        g += math.gcd(a * 3, b * 3).bit_length()
    return f"{rendered}{len(snapshots)}{g}"


def seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Stopwatch:
    """Wall and normalized time of one operation at a time, in laps.

    Each lap is normalized by the kernel runs just before and just after
    it, and the kernel's own time is never counted. Call start() before
    the operation and lap() after it; lap() may also be called between
    an operation's steps.
    """

    def __init__(self) -> None:
        self.before = seconds()
        self.wall = self.scaled = 0.0
        self.mark = time.perf_counter()

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self.mark = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self.mark
        after = seconds()
        self.wall += elapsed
        self.scaled += NOMINAL_S * elapsed * 2 / (self.before + after)
        self.before = after
        self.mark = time.perf_counter()
