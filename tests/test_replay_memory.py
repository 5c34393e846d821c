"""The replay's memory does not grow with steps × digits(D).

The replay keeps each leaf's final pair and the posted steps, not a
pair per step. So ten long denominators in a cent journal, which make
every scaled integer about as long as their product, cost about what
ten more cent transactions would: the tracemalloc peak of validate_file
on the journal with them stays within 1.5× of the peak without them.
"""

import datetime as dt
import random
import tracemalloc

from tledger import validate_file

LEAVES = 50
TRANSACTIONS = 3000


def cent_journal(seed: int, long_denominators: int) -> str:
    """A seeded journal of cent transfers between LEAVES accounts over
    2020, plus long_denominators transfers of 1/(10^400 + 2m + 1)."""
    rng = random.Random(seed)
    lines = [f"account a{k}" for k in range(LEAVES)]
    start = dt.date(2020, 1, 1)
    txs = []
    for n in range(TRANSACTIONS):
        a, b = rng.sample(range(LEAVES), 2)
        amount = f"{rng.randint(1, 10**6)}.{rng.randint(0, 99):02d}"
        txs.append((rng.randint(0, 365), f"a{a} dr {amount}", f"a{b} cr {amount}"))
    for m in range(long_denominators):
        a, b = rng.sample(range(LEAVES), 2)
        amount = f"1/{10**400 + 2 * m + 1}"
        txs.append((rng.randint(0, 365), f"a{a} dr {amount}", f"a{b} cr {amount}"))
    for n, (day, debit, credit) in enumerate(sorted(txs, key=lambda tx: tx[0])):
        lines += ["", f'{start + dt.timedelta(days=day)} "t{n}"', f"    {debit}", f"    {credit}"]
    return "\n".join(lines) + "\n"


def peak(text: str) -> int:
    tracemalloc.start()
    try:
        report = validate_file(text)
        _, top = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok, report.message
    return top


def test_long_denominators_cost_no_pair_per_step():
    cents, long = cent_journal(2601, 0), cent_journal(2601, 10)
    assert len(long) - len(cents) < 10 * 1000  # ten transactions of about 900 characters
    assert peak(long) <= 1.5 * peak(cents)
