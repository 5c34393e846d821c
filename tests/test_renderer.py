"""The CLI's one renderer against the expressions it replaced.

cli._renderer builds each printed value as one Fraction of n times the
unit's numerator over its denominator. The reference, kept here, is
what it did before: n * unit, a Fraction product, then _rational,
_decimal or _signed, and the suffix. Both must print the same text for
random n, negative, zero and past 4300 digits, on a cent scale and on
the 87 digits of a prime journal's scale, with and without a
basis (--percent), at every places the golden set uses, and in the
residual form.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from journalgen import prime_journal
from tledger import Amount, Journal, parse_journal
from tledger.algebra import _decimal, _rational, _signed
from tledger.cli import _renderer

CENTS = 'account a\naccount b\n\n2020-01-01 "t"\n    a dr 0.99\n    b cr 0.01\n    b cr 0.98\n'


def reference(journal: Journal, percent: bool, places, n: int, residual: bool) -> str:
    unit, suffix = Fraction(1, journal._replay.scale), ""
    if percent:
        unit, suffix = unit * 100 / journal.basis.as_fraction, "%"
    if residual:
        return f"{_signed(n * unit)}{suffix}"
    digits = _rational(n * unit) if places is None else _decimal(n * unit, places)
    return f"{digits}{suffix}"


def journals() -> dict[str, Journal]:
    out = {}
    for name, text in (("cents", CENTS), ("primes", prime_journal(random.Random(27)))):
        journal, diagnostics = parse_journal(text)
        assert diagnostics == []
        out[name] = journal
        basis = Amount(1234567, 300)
        out[f"{name}-basis"] = Journal(journal.chart, journal.transactions, (), basis)
    return out


JOURNALS = journals()


def numbers(rng: random.Random) -> list[int]:
    out = [0, 1, -1, 5, -5, 50, -50]
    for digits in (1, 2, 3, 12, 40, 300, 4400):
        out += [rng.randrange(-(10**digits), 10**digits) for _ in range(6)]
    return out


@pytest.mark.parametrize("name", JOURNALS)
@pytest.mark.parametrize("places", [None, 0, 2, 12])
def test_text_matches_the_product_it_replaced(name, places):
    journal = JOURNALS[name]
    assert journal._replay.scale == 100 or len(str(journal._replay.scale)) > 50
    rng = random.Random(f"{name}-{places}")
    for percent in (False, True) if journal.basis else (False,):
        text = _renderer(journal, SimpleNamespace(percent=percent, decimal=places))
        for n in numbers(rng):
            for residual in (False, True):
                assert text(n, residual) == reference(journal, percent, places, n, residual)
