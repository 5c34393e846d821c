"""Exact T-account algebra.

A T-account is an ordered pair (debit, credit) of non-negative exact
rationals. Under componentwise addition the pairs form a commutative
group once pairs with equal cross-sums are identified: (a, b) ~ (c, d)
iff a + d = b + c, the additive analogue of fraction equivalence. Every
pair (x, x) represents the neutral element, and the unique canonical
representative of a class has a zero on at least one side.

The classes form a group isomorphic to the additive rationals, and
TAccount.balance (debit minus credit) is that isomorphism. Signed
quantities, such as a balance or an imbalance residual, are therefore
plain Fractions, and reduce and equivalent read a pair's class from its
balance. A library sum of many pairs is one pass over a common
denominator, whose scaled numerators add as integers.

All arithmetic is exact: amounts are arbitrary-precision rationals kept
in lowest terms, so the group laws hold with component equality, never
within a tolerance. All types here are immutable values and all
operations are pure functions; they are safe to share across threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, ge, gt, le, lt

__all__ = ["Amount", "TAccount"]

_AMOUNT_RE = re.compile(r"([0-9]+)(?:\.([0-9]+)|/([0-9]+))?")


def _reduced(whole: str, fraction: str | None, denominator: str | None) -> tuple[int, int]:
    """_AMOUNT_RE's groups as the literal's reduced (numerator, denominator)."""
    if fraction is not None:  # int() first: past the int-string limit, fail before 10 ** n
        num = int(whole + fraction)
        den = 10 ** len(fraction)
    elif denominator is None:
        return int(whole), 1
    else:
        num, den = int(whole), int(denominator)
        if den == 0:
            raise ValueError("zero denominator")
    common = gcd(num, den)
    return num // common, den // common


def _parse_literal(text: str) -> tuple[int, int]:
    """An amount literal's reduced (numerator, denominator); ValueError if malformed."""
    if m := _AMOUNT_RE.fullmatch(text):
        return _reduced(*m.groups())
    raise ValueError(f"malformed amount {text!r}")


_CHUNK = 10**600  # below 640, the lowest int-string limit an interpreter accepts


def _digits(n: int) -> str:
    """str(n) for n >= 0, converted in chunks no int-string limit stops."""
    if n < _CHUNK:
        return str(n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0600d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _rational(value: Fraction) -> str:
    """A rational as text everywhere in tledger: 2/5, -4, 0.

    Exact at any length, whatever the interpreter's int-string limit.
    """
    text = _digits(abs(value.numerator))
    if value.denominator != 1:
        text = f"{text}/{_digits(value.denominator)}"
    return f"-{text}" if value < 0 else text


def _signed(value: Fraction) -> str:
    """A signed rational as messages and reports show it: +2/5, -4, 0."""
    return f"+{_rational(value)}" if value > 0 else _rational(value)


def _decimal(value: Fraction, places: int) -> str:
    """A signed rational at fixed places, ties to even, signed as its digits: -0.02, 0.00."""
    q, r = divmod(abs(value.numerator) * 10**places, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q % 2):
        q += 1
    text = _digits(q)
    if places:
        text = text.rjust(places + 1, "0")
        text = f"{text[:-places]}.{text[-places:]}"
    return f"-{text}" if q and value < 0 else text


def _orderings(field: str):
    """__lt__, __le__, __gt__ and __ge__ on one field, within one class.

    Against any other type each returns NotImplemented, so comparing
    with another type raises TypeError.
    """
    key = attrgetter(field)

    def ordering(compare):
        def method(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return compare(key(self), key(other))
        return method

    return map(ordering, (lt, le, gt, ge))


class _Record:
    """An immutable record of the fields named in _fields.

    == (within one class), hash and repr run over the fields, or over
    _compared where a span stays out of ==. Each record's __init__ is
    generated once, when its class is made: it takes _defaults for the
    last fields, then runs __post_init__ where the class has one. Only
    Posting and Chart write their own. A subclass without __slots__
    keeps a __dict__, for its cached properties.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        names = cls._fields
        cls._key = attrgetter(*(cls._compared or names))  # called as _key(self)
        cls.__match_args__ = names
        if "__init__" in vars(cls):
            return
        body = "".join(f"\n    set_field(self, {name!r}, {name})" for name in names)
        if hasattr(cls, "__post_init__"):  # looked up per call, so a patched one runs
            body += "\n    self.__post_init__()"
        namespace = {"set_field": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__defaults__ = cls._defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Amount:
    """A non-negative exact rational quantity of value.

    Stored in lowest terms with a positive denominator; zero is 0/1.
    Amounts never go negative: subtraction that would cross zero raises,
    and signed values are plain Fractions instead.
    """

    __slots__ = ("_value",)

    def __init__(self, numerator: int | Fraction = 0, denominator: int = 1):
        if isinstance(numerator, Fraction):
            if denominator != 1:
                raise ValueError("denominator not allowed with a Fraction numerator")
            value = numerator
        else:
            if denominator == 0:
                raise ValueError("zero denominator")
            value = Fraction(numerator, denominator)
        if value < 0:
            raise ValueError(f"amount must be non-negative, got {_rational(value)}")
        self._value = value

    @classmethod
    def _wrap(cls, value: Fraction) -> Amount:
        # Fast path for internal arithmetic: value is already a
        # normalized non-negative Fraction.
        out = object.__new__(cls)
        out._value = value
        return out

    @classmethod
    def parse(cls, text: str) -> Amount:
        """Parse an exact literal: "7", "493827.16", or "2/5".

        Decimal literals convert exactly (493827.16 becomes 49382716/100
        before reduction); no floating point is involved. Raises
        ValueError for malformed input or a zero denominator.
        """
        return cls._wrap(Fraction(*_parse_literal(text)))

    @property
    def numerator(self) -> int:
        return self._value.numerator

    @property
    def denominator(self) -> int:
        return self._value.denominator

    @property
    def as_fraction(self) -> Fraction:
        return self._value

    def __add__(self, other: Amount) -> Amount:
        if not isinstance(other, Amount):
            return NotImplemented
        return Amount._wrap(self._value + other._value)

    def __sub__(self, other: Amount) -> Amount:
        """Partial subtraction: defined only when the result stays >= 0."""
        if not isinstance(other, Amount):
            return NotImplemented
        value = self._value - other._value
        if value < 0:
            raise ValueError(f"amount subtraction went negative: {self} - {other}")
        return Amount._wrap(value)

    def __mul__(self, other: Amount) -> Amount:
        if not isinstance(other, Amount):
            return NotImplemented
        return Amount._wrap(self._value * other._value)

    def reciprocal(self) -> Amount:
        if not self._value:
            raise ZeroDivisionError("reciprocal of zero amount")
        return Amount._wrap(1 / self._value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Amount):
            return NotImplemented
        return self._value == other._value

    __lt__, __le__, __gt__, __ge__ = _orderings("_value")

    def __hash__(self) -> int:
        return hash(self._value)

    def __bool__(self) -> bool:
        return bool(self._value)

    def __str__(self) -> str:
        # Reduced rational; integers drop the "/1".
        return _rational(self._value)

    def __repr__(self) -> str:
        return f"Amount({_digits(self.numerator)}, {_digits(self.denominator)})"

    def to_decimal(self, places: int) -> str:
        """Render at a fixed number of decimal places, rounding half to even.

        Rendering is presentation only; it never feeds back into
        computation, which stays exact.
        """
        if places < 0:
            raise ValueError("places must be >= 0")
        return _decimal(self._value, places)


# Amounts are immutable, so every empty side can share one zero.
_ZERO_AMOUNT = Amount._wrap(Fraction(0))


class TAccount(_Record):
    """An ordered (debit, credit) pair of non-negative exact amounts."""

    __slots__ = _fields = ("debit", "credit")

    @classmethod
    def dr(cls, amount: Amount) -> TAccount:
        """A pure debit entry (amount, 0)."""
        return cls(amount, _ZERO_AMOUNT)

    @classmethod
    def cr(cls, amount: Amount) -> TAccount:
        """A pure credit entry (0, amount)."""
        return cls(_ZERO_AMOUNT, amount)

    @classmethod
    def zero(cls) -> TAccount:
        return cls(_ZERO_AMOUNT, _ZERO_AMOUNT)

    def __add__(self, other: TAccount) -> TAccount:
        """Combine two T-accounts: debits add to debits, credits to credits."""
        if not isinstance(other, TAccount):
            return NotImplemented
        return TAccount(self.debit + other.debit, self.credit + other.credit)

    def inverse(self) -> TAccount:
        """The additive inverse: swap the sides, so a + a.inverse() is zero."""
        return TAccount(self.credit, self.debit)

    def equivalent(self, other: TAccount) -> bool:
        """Whether the two pairs carry the same class: equal balances.

        (a, b) ~ (c, d) iff a + d = b + c, that is iff a - b = c - d.
        """
        return self.balance() == other.balance()

    def reduce(self) -> TAccount:
        """The canonical class representative: |balance| on the side of its sign.

        The result is equivalent to the input and has a zero on at least
        one side. Idempotent.
        """
        balance = self.balance()
        if balance >= 0:
            return TAccount(Amount._wrap(balance), _ZERO_AMOUNT)
        return TAccount(_ZERO_AMOUNT, Amount._wrap(-balance))

    def balance(self) -> Fraction:
        """The signed value of the class: debit minus credit.

        Two pairs are equivalent exactly when their balances are equal.
        """
        return self.debit.as_fraction - self.credit.as_fraction

    @property
    def is_zero(self) -> bool:
        """Whether the pair represents the neutral element: equal sides."""
        return self.debit == self.credit

    @property
    def is_canonical(self) -> bool:
        """Whether at least one side is zero (reduced form)."""
        return not self.debit or not self.credit

    def scale(self, k: Amount) -> TAccount:
        """Multiply both sides by a non-negative factor.

        Used for basis normalization: scaling by the reciprocal of a
        declared total re-expresses every amount as a fraction of it.
        """
        return TAccount(self.debit * k, self.credit * k)

    def __str__(self) -> str:
        return f"({self.debit}, {self.credit})"


def _sum(entries) -> TAccount:
    """The componentwise sum of T-accounts, in one pass over a common denominator.

    lcm() is 1, so an empty sum is the zero pair.
    """
    sides = [(t.debit._value, t.credit._value) for t in entries]
    scale = lcm(*(side.denominator for pair in sides for side in pair))
    debit = sum(d.numerator * (scale // d.denominator) for d, _ in sides)
    credit = sum(c.numerator * (scale // c.denominator) for _, c in sides)
    return TAccount(Amount._wrap(Fraction(debit, scale)), Amount._wrap(Fraction(credit, scale)))
