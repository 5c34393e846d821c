"""Amount and T-account group laws.

The oracles here recompute everything with raw Fractions so the checks
stay independent of the pair operations they verify: equivalence via
the cross-sum definition, balances via plain signed subtraction.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tledger import Amount, TAccount
from tledger.algebra import _ZERO_AMOUNT, _decimal, _rational, _signed, _sum


def cross_sum_equal(a: TAccount, b: TAccount) -> bool:
    """Oracle: (a, b) ~ (c, d) iff a + d == b + c, in raw Fractions."""
    return (
        a.debit.as_fraction + b.credit.as_fraction
        == b.debit.as_fraction + a.credit.as_fraction
    )


def signed_net(a: TAccount) -> Fraction:
    """Oracle: the signed net of a pair by direct subtraction."""
    return a.debit.as_fraction - a.credit.as_fraction


def ta(debit, credit=0) -> TAccount:
    return TAccount(Amount(Fraction(debit)), Amount(Fraction(credit)))


amounts = st.builds(Amount, st.integers(0, 10**6), st.integers(1, 10**3))
taccounts = st.builds(TAccount, amounts, amounts)
positive_scalars = st.builds(Amount, st.integers(1, 500), st.integers(1, 40))


class TestAmount:
    def test_lowest_terms(self):
        a = Amount(4, 8)
        assert (a.numerator, a.denominator) == (1, 2)
        assert str(a) == "1/2"
        assert str(Amount(14, 7)) == "2"

    def test_zero_normal_form(self):
        a = Amount(0, 17)
        assert (a.numerator, a.denominator) == (0, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Amount(-1)
        with pytest.raises(ValueError):
            Amount(1, 2) - Amount(3, 4)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            Amount(1, 0)
        with pytest.raises(ValueError, match="zero denominator"):
            Amount.parse("1/0")

    def test_parse_forms(self):
        assert Amount.parse("7") == Amount(7)
        assert Amount.parse("493827.16") == Amount(49382716, 100)
        assert Amount.parse("2/5") == Amount(2, 5)

    @pytest.mark.parametrize(
        "text,num,den",
        [
            ("0", 0, 1),
            ("7", 7, 1),
            ("007", 7, 1),
            ("0.0", 0, 10),
            ("00.50", 50, 100),
            ("493827.16", 49382716, 100),
            ("0/5", 0, 5),
            ("4/8", 4, 8),
            ("007/014", 7, 14),
            ("123456789/250", 123456789, 250),
        ],
    )
    def test_parse_equals_checked_constructor(self, text, num, den):
        parsed, checked = Amount.parse(text), Amount(num, den)
        assert type(parsed) is Amount
        assert parsed == checked
        assert (parsed.numerator, parsed.denominator) == (
            checked.numerator,
            checked.denominator,
        )

    @given(st.integers(0, 10**30), st.integers(0, 40), st.integers(1, 10**30))
    def test_parse_equals_checked_constructor_on_any_literal(self, num, zeros, den):
        lead = "0" * zeros
        assert Amount.parse(f"{lead}{num}").as_fraction == Amount(num).as_fraction
        assert Amount.parse(f"{lead}{num}/{lead}{den}").as_fraction == (
            Amount(num, den).as_fraction
        )
        frac = f"{den}{lead}"
        assert Amount.parse(f"{num}.{frac}").as_fraction == (
            Amount(int(f"{num}{frac}"), 10 ** len(frac)).as_fraction
        )

    def test_empty_sides_share_one_zero(self):
        assert TAccount.dr(Amount(1)).credit is _ZERO_AMOUNT
        assert TAccount.cr(Amount(1)).debit is _ZERO_AMOUNT
        zero = TAccount.zero()
        assert zero.debit is _ZERO_AMOUNT and zero.credit is _ZERO_AMOUNT
        assert _ZERO_AMOUNT == Amount(0)
        assert (_ZERO_AMOUNT.numerator, _ZERO_AMOUNT.denominator) == (0, 1)

    def test_reduced_and_summed_zeros_are_the_shared_zero(self):
        assert TAccount(Amount(5), Amount(5)).reduce() is TAccount.zero()
        assert _sum([]) is TAccount.zero()
        assert _sum([TAccount.dr(Amount(1, 3)), TAccount.zero()]).credit is _ZERO_AMOUNT
        assert _sum([TAccount.cr(Amount(2)), TAccount.cr(Amount(1))]).debit is _ZERO_AMOUNT

    @pytest.mark.parametrize("bad", ["", "-1", "1.2.3", "1/2/3", "2e5", "1,000", ".5", "5."])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Amount.parse(bad)

    @pytest.mark.parametrize("text", ["12\n", "1.5\n", "2/5\n", "0\n"])
    def test_parse_rejects_a_trailing_newline(self, text):
        # "$" once matched before a final newline, so "12\n" read as 12
        with pytest.raises(ValueError, match="malformed amount"):
            Amount.parse(text)

    @given(st.integers(0, 10**9), st.integers(1, 12))
    def test_decimal_literals_are_exact(self, scaled, places):
        digits = str(scaled).rjust(places + 1, "0")
        text = f"{digits[:-places]}.{digits[-places:]}"
        assert Amount.parse(text).as_fraction == Fraction(scaled, 10**places)

    @pytest.mark.parametrize(
        "text,places,want",
        [
            ("0.125", 2, "0.12"),  # tie rounds to even
            ("0.375", 2, "0.38"),
            ("5/2", 0, "2"),
            ("7/2", 0, "4"),
            ("201/200", 2, "1.00"),
            ("123456789/250", 2, "493827.16"),
            ("123456789/500", 2, "246913.58"),
            ("1/3", 4, "0.3333"),
            ("2/3", 4, "0.6667"),
        ],
    )
    def test_decimal_rendering_half_even(self, text, places, want):
        assert Amount.parse(text).to_decimal(places) == want

    @pytest.mark.parametrize(
        "value,places,want",
        [
            (Fraction(-1, 1000), 2, "0.00"),  # the sign is the rounded digits'
            (Fraction(-5, 1000), 2, "0.00"),  # tie rounds to even: zero
            (Fraction(-15, 1000), 2, "-0.02"),
            (Fraction(-1, 2), 0, "0"),
            (Fraction(-3, 2), 0, "-2"),
        ],
    )
    def test_signed_decimal_never_prints_negative_zero(self, value, places, want):
        assert _decimal(value, places) == want

    def test_ordering(self):
        small, large = Amount(1, 3), Amount(1, 2)
        assert small < large and small <= large and large > small and large >= small
        assert small <= Amount(2, 6) and small >= Amount(2, 6)
        assert not small < Amount(2, 6) and not small > Amount(2, 6)
        assert sorted([large, small]) == [small, large]
        assert min(large, small) is small

    @pytest.mark.parametrize(
        "compare",
        [
            lambda: Amount(1) < 2,
            lambda: Amount(1) <= None,
            lambda: Amount(1) > Fraction(1, 2),
            lambda: Amount(1) >= 1,
            lambda: 2 > Amount(1),
            lambda: sorted([Amount(1), 2]),
        ],
        ids=["lt-int", "le-None", "gt-Fraction", "ge-int", "reflected", "sorted"],
    )
    def test_ordering_against_another_type_is_a_type_error(self, compare):
        with pytest.raises(TypeError):
            compare()

    def test_reciprocal(self):
        assert Amount(2, 5).reciprocal() == Amount(5, 2)
        with pytest.raises(ZeroDivisionError):
            Amount(0).reciprocal()


class TestSignedText:
    """_rational and _signed render every rational, past the int-string limit too."""

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(0),
            Fraction(-4),
            Fraction(2, 5),
            Fraction(-2, 5),
            Fraction(10**600),
            Fraction(10**600 - 1, 7),
            Fraction(-(10**1200) - 10**5, 10**600 + 1),
            Fraction(10**5000 + 3, 10**4400 + 1),
        ],
    )
    def test_matches_str_without_the_limit(self, value):
        limit = sys.get_int_max_str_digits()
        text, plain = _signed(value), _rational(value)
        sys.set_int_max_str_digits(0)
        try:
            assert text == (f"+{value}" if value > 0 else str(value))
            assert plain == str(value)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_amount_text_past_the_limit(self):
        big = Fraction(10**5000 + 3, 7)
        amount = Amount(big)
        limit = sys.get_int_max_str_digits()
        text, rep, dec = str(amount), repr(amount), amount.to_decimal(3)
        with pytest.raises(ValueError) as negative:
            Amount(-big)
        sys.set_int_max_str_digits(0)
        try:
            assert text == str(big)
            assert rep == f"Amount({big.numerator}, {big.denominator})"
            q = round(big * 1000)  # half to even, as to_decimal rounds
            assert dec == f"{q // 1000}.{q % 1000:03d}"
            assert str(negative.value) == f"amount must be non-negative, got {-big}"
            assert str(TAccount.dr(amount)) == f"({big}, 0)"
        finally:
            sys.set_int_max_str_digits(limit)


class TestExamples:
    def test_add(self):
        assert ta(100) + ta(0, 100) == ta(100, 100)
        assert TAccount.zero() + ta(3, 7) == ta(3, 7)
        total = ta("1/5") + ta("2/5") + ta("2/5")
        assert total == ta(1)

    def test_inverse(self):
        assert ta(5).inverse() == ta(0, 5)
        assert (ta(5) + ta(5).inverse()).is_zero
        assert TAccount.zero().inverse() == TAccount.zero()
        assert ta(7, 3).inverse() == ta(3, 7)
        assert ta(7, 3) + ta(7, 3).inverse() == ta(10, 10)

    def test_equivalent(self):
        assert ta(5, 5).equivalent(ta(123, 123))
        assert not ta(100).equivalent(ta(0, 100))
        # 7 + 0 == 3 + 4, by hand and by the cross-sum oracle
        assert cross_sum_equal(ta(7, 3), ta(4))
        assert ta(7, 3).equivalent(ta(4))

    def test_reduce(self):
        assert ta(5, 5).reduce() == TAccount.zero()
        assert ta(0, "2/5").reduce() == ta(0, "2/5")
        reduced = ta(7, 3).reduce()
        assert reduced == ta(4)
        assert cross_sum_equal(ta(7, 3), reduced)

    def test_balance(self):
        assert ta(100).balance() == Fraction(100)
        assert ta(5, 5).balance() == 0
        assert ta(3, 7).balance() == Fraction(-4)
        assert signed_net(ta(3, 7)) == Fraction(-4)

    def test_is_zero(self):
        assert TAccount.zero().is_zero
        assert ta(123, 123).is_zero
        assert not ta("2/5", "1/5").is_zero

    def test_scale(self):
        basis = Amount.parse("1234567.89")
        assert TAccount.dr(basis).scale(basis.reciprocal()) == ta(1)
        a = ta(7, 3)
        assert a.scale(Amount(1)) == a
        assert ta("2/5").scale(Amount(1, 5)) == ta("2/25")

    def test_posting_sides(self):
        assert TAccount.dr(Amount(3)) == ta(3)
        assert TAccount.cr(Amount(3)) == ta(0, 3)


class TestGroupLaws:
    @given(taccounts, taccounts, taccounts)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(taccounts, taccounts)
    def test_commutative(self, a, b):
        assert a + b == b + a

    @given(taccounts)
    def test_identity(self, a):
        assert a + TAccount.zero() == a

    @given(taccounts, amounts)
    def test_wash_is_identity_up_to_equivalence(self, a, x):
        wash = TAccount(x, x)
        assert (a + wash).equivalent(a)

    @given(taccounts)
    def test_inverse_cancels(self, a):
        assert (a + a.inverse()).is_zero

    @given(taccounts)
    def test_equivalence_reflexive(self, a):
        assert a.equivalent(a)

    @given(taccounts, taccounts)
    def test_equivalence_symmetric(self, a, b):
        assert a.equivalent(b) == b.equivalent(a)
        assert a.equivalent(b) == cross_sum_equal(a, b)

    @given(taccounts, taccounts, taccounts)
    def test_equivalence_transitive(self, a, b, c):
        if a.equivalent(b) and b.equivalent(c):
            assert a.equivalent(c)

    @given(taccounts)
    def test_reduce_idempotent(self, a):
        once = a.reduce()
        assert once.reduce() == once
        assert once.is_canonical
        assert once.equivalent(a)

    @given(taccounts, taccounts, taccounts)
    def test_addition_respects_equivalence(self, a, b, c):
        if a.equivalent(b):
            assert (a + c).equivalent(b + c)

    @given(taccounts, taccounts)
    def test_reduce_is_a_congruence(self, a, b):
        assert (a + b).reduce() == (a.reduce() + b.reduce()).reduce()

    @given(taccounts, taccounts)
    def test_balance_is_a_homomorphism(self, a, b):
        assert (a + b).balance() == signed_net(a) + signed_net(b)
        assert a.equivalent(b) == (signed_net(a) == signed_net(b))

    @given(taccounts)
    def test_balance_zero_iff_is_zero(self, a):
        assert (a.balance() == 0) == a.is_zero

    @given(taccounts, taccounts, positive_scalars)
    def test_scale_distributes_and_preserves_structure(self, a, b, k):
        assert (a + b).scale(k) == a.scale(k) + b.scale(k)
        assert a.scale(k).reduce() == a.reduce().scale(k)
        assert a.equivalent(b) == a.scale(k).equivalent(b.scale(k))

    @given(taccounts, amounts)
    def test_scale_preserves_zero(self, a, k):
        if a.is_zero:
            assert a.scale(k).is_zero

    @given(taccounts)
    def test_scale_by_zero_annihilates(self, a):
        assert a.scale(Amount(0)) == TAccount.zero()
