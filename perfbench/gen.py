"""Seeded journal generator for the benchmark (stdlib only).

Writes a journal file for the program and, beside it, a JSON record of
every posting the journal implies, schedule emissions included. The
record is the oracle's ground truth, so this module must never import
the package under test.

    python3 perfbench/gen.py --shape wide_chart --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import random
from fractions import Fraction
from pathlib import Path

ROOTS = ("assets", "liabilities", "equity", "income", "expenses")
YEAR_START = dt.date(2020, 1, 1)

# accounts: declared accounts in a random tree, `leaves` of them postable;
# transactions: authored blocks of 2-4 postings dated in 2020. The ratio
# of accounts to transactions defines each shape; see perfbench/README.md
# for why each one exists.
SHAPES = {
    "wide_chart": {"accounts": 80, "leaves": 57, "transactions": 60, "profile": "cents"},
    "long_journal": {"accounts": 10, "leaves": 5, "transactions": 200, "profile": "cents"},
    "coprime_rationals": {"accounts": 40, "leaves": 27, "transactions": 100, "profile": "prime"},
}

# (prefix account, periods, mode): one direct and one contra schedule.
SCHEDULES = (("periodcosts", 5, "direct"), ("depreciation", 4, "contra"))
CONTRA_SEGMENT = "accumulated-depreciation"


def first_primes(count: int) -> list[int]:
    primes: list[int] = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


PRIME_POOL = first_primes(1000)


def random_tree(rng: random.Random, count: int, leaves: int) -> list[tuple[str, ...]]:
    """count declared account paths, exactly `leaves` of them postable.

    The interior skeleton comes first: the roots, then each new interior
    account nests under an earlier non-root one with probability 0.4,
    else under a root. Leaves then go one to each childless interior
    account and the rest under interior accounts at random. Fixing the
    leaf count keeps the O(leaves) costs equal from seed to seed.
    """
    interior = [(root,) for root in ROOTS]
    names = (f"a{i}" for i in range(count))
    for _ in range(count - leaves - len(ROOTS)):
        nested = interior[len(ROOTS) :]
        if nested and rng.random() < 0.4:
            parent = rng.choice(nested)
        else:
            parent = rng.choice(interior[: len(ROOTS)])
        interior.append(parent + (next(names),))
    parents = {p[:-1] for p in interior}
    homes = [p for p in interior if p not in parents]
    homes += [rng.choice(interior) for _ in range(leaves - len(homes))]
    return interior + [home + (next(names),) for home in homes]


def random_amount(rng: random.Random, profile: str) -> Fraction:
    if profile == "cents":
        return Fraction(rng.randint(1, 10**6), 100)
    return Fraction(rng.randint(1, 999), rng.choice(PRIME_POOL))


def render_amount(value: Fraction, profile: str) -> str:
    if profile == "cents" and (value * 100).denominator == 1:
        cents = int(value * 100)
        return f"{cents // 100}.{cents % 100:02d}"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def anniversary(date: dt.date, years: int) -> dt.date:
    return date.replace(year=date.year + years)


def generate(shape: str, seed: int) -> tuple[str, dict]:
    """(journal text, record) for one shape and seed."""
    spec = SHAPES[shape]
    profile = spec["profile"]
    rng = random.Random(f"{shape}:{seed}")
    declared = random_tree(rng, spec["accounts"], spec["leaves"])
    leaves = declared[-spec["leaves"] :]
    name = ":".join

    lines = [f"; perfbench {shape} seed {seed}", ""]
    lines += [f"account {name(p)}" for p in declared]
    lines += [f"account {prefix}" for prefix, _, _ in SCHEDULES]

    postings: list[tuple[str, str, Fraction]] = []  # (date, account, signed)
    schedules = []
    sources = rng.sample(leaves, len(SCHEDULES))
    for (prefix, periods, mode), source in zip(SCHEDULES, sources):
        total = random_amount(rng, profile) * 1000
        # Day <= 28, so every anniversary exists.
        start = dt.date(2020, rng.randint(1, 12), rng.randint(1, 28))
        credit_to = source if mode == "direct" else source[:-1] + (CONTRA_SEGMENT,)
        lines.append(
            f"schedule {name(source)} {prefix} {render_amount(total, profile)}"
            f" over {periods} yearly from {start.isoformat()} mode {mode}"
        )
        for k in range(1, periods + 1):
            date = anniversary(start, k).isoformat()
            postings.append((date, f"{prefix}:y{k}", total / periods))
            postings.append((date, name(credit_to), -total / periods))
        schedules.append(
            {
                "source": name(source),
                "prefix": prefix,
                "credit_to": name(credit_to),
                "total": str(total),
                "periods": periods,
                "start": start.isoformat(),
                "mode": mode,
            }
        )

    # 2, 3 and 4 postings equally often, so every seed posts as much.
    sizes = [2 + i % 3 for i in range(spec["transactions"])]
    rng.shuffle(sizes)
    for i, k in enumerate(sizes):
        date = (YEAR_START + dt.timedelta(days=rng.randint(0, 365))).isoformat()
        block = [f'{date} "t{i}"']
        net = Fraction(0)
        entries = []
        for _ in range(k - 1):
            value = random_amount(rng, profile) * rng.choice((1, -1))
            entries.append((rng.choice(leaves), value))
            net += value
        if net == 0:  # keep every posting nonzero
            entries[0] = (entries[0][0], entries[0][1] * 2)
            net += entries[0][1] / 2
        entries.append((rng.choice(leaves), -net))
        for account, value in entries:
            side = "dr" if value > 0 else "cr"
            block.append(f"    {name(account)} {side} {render_amount(abs(value), profile)}")
            postings.append((date, name(account), value))
        lines.append("")
        lines.extend(block)

    record = {
        "shape": shape,
        "seed": seed,
        "authored": spec["transactions"],
        "declared": [name(p) for p in declared] + [p for p, _, _ in SCHEDULES],
        "schedules": schedules,
        "postings": [
            [date, account, value.numerator, value.denominator]
            for date, account, value in postings
        ],
    }
    return "\n".join(lines) + "\n", record


def write(shape: str, seed: int, out: Path) -> tuple[Path, Path]:
    """Write <shape>-<seed>.journal and its .record.json under out."""
    text, record = generate(shape, seed)
    out.mkdir(parents=True, exist_ok=True)
    journal = out / f"{shape}-{seed}.journal"
    journal.write_text(text, encoding="utf-8")
    record_path = out / f"{shape}-{seed}.record.json"
    record_path.write_text(json.dumps(record), encoding="utf-8")
    return journal, record_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write(args.shape, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
