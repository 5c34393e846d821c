"""Journal language: grammar, diagnostics, round-trips, exactness."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from journalgen import random_journal
from tledger import (
    AccountPath,
    Amount,
    Journal,
    ScheduleMode,
    Severity,
    TAccount,
    parse_journal,
    serialize_journal,
    validate_file,
)
from tledger.algebra import _ZERO_AMOUNT


def parse_ok(text, **kwargs):
    journal, diagnostics = parse_journal(text, **kwargs)
    assert journal is not None, [d.render() for d in diagnostics]
    return journal, diagnostics


def errors_of(text, **kwargs):
    journal, diagnostics = parse_journal(text, **kwargs)
    assert journal is None
    return [d for d in diagnostics if d.severity is Severity.ERROR]


class TestGrammar:
    def test_fixture_parses_clean(self, fixture_text):
        journal, diagnostics = parse_ok(fixture_text)
        assert diagnostics == []
        assert len(journal.transactions) == 4
        assert len(journal.schedules) == 1
        assert journal.basis == Amount.parse("1234567.89")
        assert journal.schedules[0].mode is ScheduleMode.DIRECT

    def test_empty_file(self):
        journal, diagnostics = parse_ok("")
        assert journal.transactions == ()
        assert diagnostics == []

    def test_comments_anywhere(self):
        text = (
            "; leading comment\n"
            "account a\n"
            "account b ; trailing comment\n"
            "\n"
            '2020-01-01 "x"\n'
            "    a dr 1\n"
            "    ; a comment line inside the block\n"
            "    b cr 1\n"
        )
        journal, _ = parse_ok(text)
        assert len(journal.transactions) == 1
        assert len(journal.transactions[0].postings) == 2

    def test_crlf_accepted(self):
        text = 'account a\r\naccount b\r\n\r\n2020-01-01 "x"\r\n    a dr 1\r\n    b cr 1\r\n'
        journal, _ = parse_ok(text)
        assert len(journal.transactions) == 1

    def test_leading_byte_order_mark_is_dropped(self):
        text = 'account a\naccount b\n\n2020-01-01 "x"\n    a dr 1\n    b cr 1\n'
        report = validate_file("\ufeff" + text)
        assert (report.status, report.diagnostics, report.transactions) == ("ok", (), 1)
        assert report.journal == parse_journal(text)[0]
        # only one is dropped; a second is part of the first token
        err = errors_of("\ufeff\ufeff" + text)[0]
        assert err.message == "unknown directive '\\ufeffaccount'"
        assert (err.span.line, err.span.column) == (1, 1)

    def test_debit_credit_longhand(self):
        text = 'account a\naccount b\n\n2020-01-01 "x"\n    a debit 1\n    b credit 1\n'
        journal, _ = parse_ok(text)
        entries = [p.entry for p in journal.transactions[0].postings]
        assert entries == [TAccount.dr(Amount(1)), TAccount.cr(Amount(1))]

    def test_amounts_parse_exactly(self):
        text = (
            "account a\naccount b\n\n"
            '2020-01-01 "x"\n'
            "    a dr 493827.16\n"
            "    b cr 49382716/100\n"
        )
        journal, _ = parse_ok(text)
        first, second = journal.transactions[0].postings
        assert first.entry.debit == Amount(49382716, 100)
        assert first.entry.debit == second.entry.credit

    def test_transaction_dates_sorted_ties_in_file_order(self):
        text = (
            "account a\naccount b\n\n"
            '2020-02-01 "late"\n    a dr 1\n    b cr 1\n\n'
            '2020-01-01 "early two"\n    a dr 1\n    b cr 1\n\n'
            '2020-01-01 "early one"\n    a dr 1\n    b cr 1\n'
        )
        journal, _ = parse_ok(text)
        assert [t.description for t in journal.transactions] == [
            "early two",
            "early one",
            "late",
        ]


class TestDiagnostics:
    def test_zero_denominator_with_span(self):
        text = 'account assets:cash\naccount b\n\n2020-01-01 "x"\n    assets:cash dr 1/0\n    b cr 0\n'
        errs = errors_of(text)
        assert len(errs) == 1
        assert "zero denominator" in errs[0].message
        assert errs[0].span.line == 5
        assert errs[0].span.column == 20
        assert errs[0].span.length == 3

    def test_malformed_amount(self):
        errs = errors_of('account a\naccount b\n\n2020-01-01 "x"\n    a dr 1.2.3\n    b cr 0\n')
        assert any("malformed amount" in e.message for e in errs)

    def test_bad_side_keyword(self):
        errs = errors_of('account a\naccount b\n\n2020-01-01 "x"\n    a plus 1\n    b cr 1\n')
        assert any("side keyword" in e.message for e in errs)

    def test_missing_description(self):
        errs = errors_of("account a\n\n2020-01-01\n    a dr 1\n")
        assert any("transaction header" in e.message for e in errs)

    def test_invalid_calendar_date(self):
        errs = errors_of('account a\naccount b\n\n2020-13-01 "x"\n    a dr 1\n    b cr 1\n')
        assert any("invalid date" in e.message for e in errs)

    def test_unknown_directive(self):
        errs = errors_of("open assets:cash\n")
        assert any("unknown directive" in e.message for e in errs)

    def test_posting_outside_block(self):
        errs = errors_of("    a dr 1\n")
        assert any("outside a transaction" in e.message for e in errs)

    def test_duplicate_declaration(self):
        errs = errors_of("account a\naccount a\n")
        assert any("already declared" in e.message for e in errs)

    def test_duplicate_basis(self):
        errs = errors_of("basis 1\nbasis 2\n")
        assert any("basis already declared" in e.message for e in errs)

    def test_strict_mode_undeclared_account(self):
        errs = errors_of('account b\n\n2020-01-01 "x"\n    a dr 1\n    b cr 1\n')
        assert any("undeclared account a" in e.message for e in errs)

    @pytest.mark.parametrize(
        "text,strict,want",
        [
            (
                "account a:b\naccount a\naccount a:b\naccount c\naccount a\n",
                True,
                [
                    "f.journal:3:9: error: account a:b already declared",
                    "f.journal:5:9: error: account a already declared",
                ],
            ),
            (
                'account a:b\n\n2020-01-01 "x"\n    a:b dr 1\n    c:d cr 1\n\n'
                "schedule m:n a:b:x 10 over 3 yearly from 2020-01-04 mode contra\n",
                True,
                [
                    "f.journal:5:5: error: undeclared account c:d",
                    "f.journal:7:10: error: undeclared account m:n",
                    "f.journal:7:14: error: undeclared account a:b:x",
                ],
            ),
            (
                'account a:b\n\n2020-01-01 "x"\n    a:b dr 1\n    c:d cr 1\n'
                "    c:d dr 0\n\n"
                "schedule m:n p:q 10 over 3 yearly from 2020-01-04 mode contra\n",
                False,
                [
                    "f.journal:5:5: warning: implicitly declared account c:d",
                    "f.journal:8:10: warning: implicitly declared account m:n",
                    "f.journal:8:14: warning: implicitly declared account p:q",
                ],
            ),
        ],
        ids=["duplicate", "undeclared", "loose"],
    )
    def test_chart_diagnostics_render_exactly(self, text, strict, want):
        _, diagnostics = parse_journal(text, file="f.journal", strict=strict)
        assert [d.render() for d in diagnostics] == want

    @pytest.mark.parametrize(
        "line, message, column, length, recovers",
        [
            ("basis", "expected: basis <amount>", 1, 5, True),
            ("basis 1 2 ; a note", "expected: basis <amount>", 1, 9, True),
            ("basis x", "malformed amount 'x'", 7, 1, False),
            ("basis 0", "basis must be positive", 7, 1, False),
            ("account", "expected: account <path>", 1, 7, True),
            ("account a:b c", "expected: account <path>", 1, 13, True),
            (
                "schedule a b 0 over 2 yearly from 2020-01-01 mode direct",
                "schedule total must be positive",
                14,
                1,
                False,
            ),
        ],
        ids=["basis-missing", "basis-extra", "basis-x", "basis-0", "account-missing",
             "account-extra", "schedule-total-0"],
    )
    def test_directive_errors_span_and_recovery(self, line, message, column, length, recovers):
        """A usage error skips the rest of its block; a bad value does not.
        Either way parsing resumes after the next blank line."""
        text = f"account a\naccount b\n{line}\nnot-a-directive\n\naccount a\n"
        _, diagnostics = parse_journal(text)
        want = [(message, 3, column, length)]
        if not recovers:
            want.append(("unknown directive 'not-a-directive'", 4, 1, 15))
        want.append(("account a already declared", 6, 9, 1))
        assert [(d.message, d.span.line, d.span.column, d.span.length) for d in diagnostics] == want

    def test_schedule_arity(self):
        errs = errors_of("schedule a b 1 over 5 yearly\n")
        assert any("expected: schedule" in e.message for e in errs)

    def test_schedule_bad_mode(self):
        errs = errors_of(
            "account a\naccount b\n"
            "schedule a b 1 over 5 yearly from 2020-01-01 mode linear\n"
        )
        assert any("direct or contra" in e.message for e in errs)

    def test_schedule_bad_count(self):
        errs = errors_of(
            "account a\naccount b\n"
            "schedule a b 1 over 0 yearly from 2020-01-01 mode direct\n"
        )
        assert any("positive integer" in e.message for e in errs)

    def test_schedule_count_must_be_ascii_digits(self):
        errs = errors_of(
            "account a\naccount b\n"
            "schedule a b 1 over \u00b2 yearly from 2020-01-01 mode direct\n"
        )
        assert [e.message for e in errs] == [
            "schedule period count must be a positive integer"
        ]

    @pytest.mark.parametrize(
        "count, start",
        [
            pytest.param("8000", "2020-01-01", id="8000-years"),
            pytest.param("3", "9997-06-30", id="one-year-over"),
            pytest.param("9" * 5000, "2020-01-01", id="5000-digits"),
        ],
    )
    def test_schedule_past_year_9999_is_diagnosed_at_the_count(self, count, start):
        errs = errors_of(
            "account a\naccount b\n"
            f"schedule a b 1 over {count} yearly from {start} mode direct\n"
        )
        [err] = errs
        assert err.message == "schedule runs past the year 9999"
        assert (err.span.line, err.span.column, err.span.length) == (3, 21, len(count))

    @pytest.mark.parametrize("prefix", ["a", "a:x", "a:x:y"])
    @pytest.mark.parametrize("strict", [True, False])
    def test_schedule_prefix_at_or_under_its_source_is_one_diagnostic(
        self, prefix, strict
    ):
        text = (
            "account a\naccount b\n"
            f"schedule a {prefix} 1 over 2 yearly from 2020-01-01 mode direct\n"
        )
        journal, diagnostics = parse_journal(text, strict=strict)
        assert journal is None
        assert [(d.message, d.span.line, d.span.column, d.span.length) for d in diagnostics] == [
            (f"schedule counterpart {prefix} must not be its source or lie under it", 3, 12, len(prefix))
        ]
        assert len(validate_file(text, strict=strict).diagnostics) == 1

    def test_schedule_prefix_beside_or_above_its_source_is_accepted(self):
        journal, _ = parse_ok(
            "account a\naccount a:x\naccount ab\n"
            "schedule a:x a 1 over 2 yearly from 2020-01-01 mode direct\n"
            "schedule a:x ab 1 over 2 yearly from 2020-01-01 mode direct\n"
        )
        assert len(journal.schedules) == 2

    def test_schedule_ending_in_year_9999_is_accepted(self):
        journal, _ = parse_ok(
            "account a\naccount b\n"
            "schedule a b 1 over 003 yearly from 9996-02-29 mode direct\n"
        )
        [schedule] = journal.schedules
        assert schedule.periods[-1][0].isoformat() == "9999-02-28"

    def test_non_ascii_digits_are_not_numbers(self):
        arabic_three = "\u0663"
        errs = errors_of(
            f'account a\naccount b\n\n2020-01-01 "x"\n    a dr {arabic_three}\n    b cr 3\n'
        )
        assert [e.message for e in errs] == [f"malformed amount {arabic_three!r}"]
        for literal in (f"1.{arabic_three}", f"1/{arabic_three}"):
            with pytest.raises(ValueError):
                Amount.parse(literal)
        errs = errors_of(
            "account a\naccount b\n"
            f"schedule a b 1 over 5 yearly from 202{arabic_three}-01-01 mode direct\n"
        )
        assert [e.message for e in errs] == [f"malformed date '202{arabic_three}-01-01'"]
        errs = errors_of(f'account a\n\n202{arabic_three}-01-01 "x"\n    a dr 1\n')
        assert any("transaction header" in e.message for e in errs)

    def test_every_error_carries_a_valid_span(self):
        text = "??\nbasis\n    a dr 1\naccount 9bad\n"
        journal, diagnostics = parse_journal(text)
        assert journal is None
        for d in diagnostics:
            assert d.span.line >= 1
            assert d.span.column >= 1
            assert d.span.length >= 1

    def test_recovery_surfaces_multiple_errors_in_one_pass(self):
        text = (
            'account a\naccount b\n\n'
            '2020-01-01 "one"\n    a dr 1/0\n    b cr 1\n'
            "\n"
            'not-a-directive\n'
            "\n"
            '2020-01-01 "two"\n    a zz 1\n    b cr 1\n'
        )
        errs = errors_of(text)
        assert len(errs) == 3

    def test_recovery_skips_to_next_blank_line(self):
        text = (
            "garbage here\n"
            "this line is skipped silently\n"
            "so is this\n"
            "\n"
            "account a\n"
        )
        journal, diagnostics = parse_journal(text)
        errs = [d for d in diagnostics if d.severity is Severity.ERROR]
        assert len(errs) == 1

    def test_header_inside_open_block(self):
        text = (
            "account a\naccount b\n\n"
            '2020-01-01 "one"\n    a dr 1\n2020-01-02 "two"\n    b cr 1\n'
        )
        errs = errors_of(text)
        assert any("expected posting or blank line" in e.message for e in errs)

    @pytest.mark.parametrize(
        "indent",
        ["\u3000", "\xa0", "\x1c", "\u3000 \t"],
        ids=["U+3000", "U+00A0", "U+001C", "mixed"],
    )
    @pytest.mark.parametrize(
        "line",
        [
            "account c",
            "basis 5",
            "schedule a b 1 over 2 yearly from 2020-01-01 mode direct",
            '2020-01-01 "x"\n    a dr 1\n    b cr 1',
        ],
        ids=["account", "basis", "schedule", "header"],
    )
    def test_other_whitespace_indent_is_one_error_at_the_indent(self, indent, line):
        journal, diagnostics = parse_journal(f"account a\naccount b\n\n{indent}{line}\n")
        assert journal is None
        [diag] = diagnostics
        assert diag.severity is Severity.ERROR
        assert diag.message == f"indent must be spaces or tabs, got U+{ord(indent[0]):04X}"
        assert (diag.span.line, diag.span.column, diag.span.length) == (4, 1, len(indent))

    def test_other_whitespace_indent_inside_a_block(self):
        text = 'account a\naccount b\n\n2020-01-01 "x"\n    a dr 1\n\u3000b cr 1\n'
        [diag] = parse_journal(text)[1]
        assert diag.render() == "<journal>:6:1: error: indent must be spaces or tabs, got U+3000"


class TestLooseMode:
    def test_implicit_declaration_warns(self):
        text = '2020-01-01 "x"\n    a dr 1\n    b cr 1\n'
        journal, diagnostics = parse_journal(text, strict=False)
        assert journal is not None
        warnings = [d for d in diagnostics if d.severity is Severity.WARNING]
        assert len(warnings) == 2
        assert journal.chart.is_declared(AccountPath.parse("a"))

    def test_strict_rejects_same_file(self):
        text = '2020-01-01 "x"\n    a dr 1\n    b cr 1\n'
        assert errors_of(text)


class TestParsedValues:
    def test_no_checked_amount_per_transaction(self, monkeypatch):
        calls = []
        init = Amount.__init__

        def counted_init(self, *args):
            calls.append(args)
            init(self, *args)

        journal = random_journal(random.Random(77), 20, 60)
        doubled = Journal(
            journal.chart,
            journal.transactions * 2,
            journal.schedules,
            journal.basis,
        )
        counts = []
        monkeypatch.setattr(Amount, "__init__", counted_init)
        for source in (journal, doubled):
            text = serialize_journal(source)
            calls.clear()
            parsed, _ = parse_ok(text)
            assert len(parsed.transactions) == len(source.transactions)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_empty_side_is_the_shared_zero(self, fixture_text, contra_fixture_text):
        for text in (fixture_text, contra_fixture_text):
            journal, _ = parse_ok(text)
            for tx in journal.transactions:
                for posting in tx.postings:
                    entry = posting.entry
                    assert entry.debit and entry.credit is _ZERO_AMOUNT or (
                        entry.credit and entry.debit is _ZERO_AMOUNT
                    )


class TestSerialization:
    def test_round_trip_fixture(self, fixture_text):
        journal, _ = parse_ok(fixture_text)
        rendered = serialize_journal(journal)
        reparsed, diagnostics = parse_ok(rendered)
        assert diagnostics == []
        assert reparsed == journal

    def test_serialize_is_idempotent(self, fixture_text):
        journal, _ = parse_ok(fixture_text)
        once = serialize_journal(journal)
        twice = serialize_journal(parse_ok(once)[0])
        assert once == twice

    def test_amounts_render_in_lowest_terms(self):
        journal, _ = parse_ok('account a\naccount b\n\n2020-01-01 "x"\n    a dr 4/8\n    b cr 0.5\n')
        rendered = serialize_journal(journal)
        assert "    a dr 1/2" in rendered
        assert "    b cr 1/2" in rendered
        assert "4/8" not in rendered

    def test_empty_journal_serializes_to_empty_text(self):
        journal, _ = parse_ok("")
        assert serialize_journal(journal) == ""

    def test_zero_posting_round_trips(self):
        text = 'account a\naccount b\n\n2020-01-01 "x"\n    a dr 0\n    b cr 0\n'
        journal, _ = parse_ok(text)
        assert parse_ok(serialize_journal(journal))[0] == journal

    def test_round_trip_generated_journals(self):
        rng = random.Random(424242)
        for _ in range(40):
            journal = random_journal(rng, max_accounts=12, max_transactions=25)
            rendered = serialize_journal(journal)
            reparsed, diagnostics = parse_ok(rendered)
            assert [d for d in diagnostics if d.severity is Severity.ERROR] == []
            assert reparsed == journal

    def test_no_account_serializes_across_two_lines(self):
        # "account assets:cash\n" would parse back as another chart
        text = 'account assets:cash\naccount b\n\n2020-01-01 "x"\n    assets:cash dr 1\n    b cr 1\n'
        journal, _ = parse_ok(text)
        with pytest.raises(ValueError, match="invalid account segment"):
            journal.chart.declare(AccountPath.parse("assets:cash\n"))
        assert parse_ok(serialize_journal(journal))[0] == journal

    def test_unrepresentable_description_rejected(self):
        from tledger import Chart, Journal, Posting, Transaction
        import datetime as dt

        chart = Chart.empty().declare_all(
            [AccountPath.parse("a"), AccountPath.parse("b")]
        )
        journal = Journal(
            chart,
            (
                Transaction(
                    dt.date(2020, 1, 1),
                    'has a ; and a "',
                    (
                        Posting(AccountPath.parse("a"), TAccount.dr(Amount(1))),
                        Posting(AccountPath.parse("b"), TAccount.cr(Amount(1))),
                    ),
                ),
            ),
        )
        with pytest.raises(ValueError, match="not representable"):
            serialize_journal(journal)

    def test_custom_fraction_schedule_has_no_file_syntax(self):
        from tledger import Chart, Journal, MatchingSchedule
        import datetime as dt

        chart = Chart.empty().declare_all(
            [AccountPath.parse("a"), AccountPath.parse("b")]
        )
        schedule = MatchingSchedule(
            AccountPath.parse("a"),
            AccountPath.parse("b"),
            Amount(10),
            (
                (dt.date(2021, 1, 1), Amount(1, 4)),
                (dt.date(2022, 1, 1), Amount(3, 4)),
            ),
        )
        with pytest.raises(ValueError, match="straight-line"):
            serialize_journal(Journal(chart, (), (schedule,)))

    @given(st.integers(0, 10**9), st.integers(1, 9))
    def test_decimal_literal_exactness(self, scaled, places):
        digits = str(scaled).rjust(places + 1, "0")
        literal = f"{digits[:-places]}.{digits[-places:]}"
        text = f'account a\naccount b\n\n2020-01-01 "x"\n    a dr {literal}\n    b cr {literal}\n'
        journal, _ = parse_ok(text)
        entry = journal.transactions[0].postings[0].entry
        assert entry.debit.as_fraction == Fraction(scaled, 10**places)


class TestFuzzSmoke:
    def test_arbitrary_text_never_crashes(self):
        rng = random.Random(99)
        pool = "ab:; \t\"'/.-0123456789\né€世界\x00\x07"
        for _ in range(300):
            text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 120)))
            journal, diagnostics = parse_journal(text)
            for d in diagnostics:
                assert d.span.line >= 1 and d.span.column >= 1
            if journal is None:
                assert any(d.severity is Severity.ERROR for d in diagnostics)


class TestValidateFile:
    def test_fixture_is_ok(self, fixture_text):
        report = validate_file(fixture_text)
        assert report.ok
        assert report.message == "ok: 9 transactions, root ≡ 0"

    def test_unbalanced_mutation_reports_residual_with_span(self, fixture_text):
        mutated = fixture_text.replace(
            "assets:machine dr 123456789/250", "assets:machine dr 123456789/300"
        )
        report = validate_file(mutated)
        assert report.status == "invalid"
        [diag] = [d for d in report.diagnostics if d.severity is Severity.ERROR]
        assert "residual" in diag.message
        assert diag.span.line == 36  # the purchase transaction's header line

    def test_parse_error_status(self):
        report = validate_file("account 9bad\n")
        assert report.status == "parse-error"

    def test_strict_undeclared_is_a_parse_error(self):
        report = validate_file('2020-01-01 "x"\n    a dr 1\n    b cr 1\n')
        assert report.status == "parse-error"
        assert validate_file(
            '2020-01-01 "x"\n    a dr 1\n    b cr 1\n', strict=False
        ).ok

    def test_posting_to_interior_account(self):
        text = (
            "account assets:cash\naccount assets\naccount b\n\n"
            '2020-01-01 "x"\n    assets dr 1\n    b cr 1\n'
        )
        report = validate_file(text)
        assert report.status == "invalid"
        assert any("not postable" in d.message for d in report.diagnostics)

    def test_report_carries_the_journal_only_when_ok(self, fixture_text):
        report = validate_file(fixture_text)
        assert report.journal == parse_journal(fixture_text)[0]
        broken = fixture_text.replace(
            "assets:machine dr 123456789/250", "assets:machine dr 123456789/300"
        )
        assert validate_file(broken).journal is None
        assert validate_file("account 9bad\n").journal is None

    def test_failed_transaction_leaves_no_partial_state(self):
        # The second posting names an interior account. Had the first
        # posting been added before the failure, every later transaction
        # would leave a nonzero tree total behind.
        text = (
            "account assets:cash\naccount assets:bank\naccount assets\naccount b\n\n"
            '2020-01-01 "split"\n    b dr 1\n    assets cr 1\n\n'
            '2020-01-02 "first"\n    assets:cash dr 1\n    b cr 1\n\n'
            '2020-01-03 "second"\n    assets:bank dr 1\n    b cr 1\n'
        )
        report = validate_file(text)
        assert report.status == "invalid"
        assert [(d.message, d.span.line, d.span.column) for d in report.diagnostics] == [
            ("account assets is not postable", 8, 5)
        ]
        assert report.transactions == 2

    TWO_STEPS = (
        "account a\naccount b\n\n"
        '2020-01-01 "first"\n    a dr 1\n    b cr 1\n\n'
        '2020-01-02 "second"\n    a dr 1\n    b cr 1\n'
    )

    def test_internal_inconsistency_is_reported(self, monkeypatch):
        import tledger.ledger
        from tledger import AccountPath

        real_step = tledger.ledger._replay_step
        calls = []

        def step_adds_a_debit_on_the_first_transaction(chart, pairs, tx, values):
            result = real_step(chart, pairs, tx, values)
            calls.append(None)
            if len(calls) == 1:
                debit, credit = pairs[AccountPath.parse("a")]
                pairs[AccountPath.parse("a")] = (debit + 1, credit)
            return result

        monkeypatch.setattr(
            tledger.ledger, "_replay_step", step_adds_a_debit_on_the_first_transaction
        )
        report = validate_file(self.TWO_STEPS)
        assert report.status == "invalid"
        [diag] = report.diagnostics
        assert diag.severity is Severity.ERROR
        assert diag.message == (
            "internal inconsistency: tree total is not a zero representative"
            " after 2020-01-01 'first'"
        )
        assert (diag.span.line, diag.span.column) == (4, 1)
        assert report.transactions == 2

    def test_unbalanced_step_past_validation_is_reported(self, monkeypatch):
        import tledger.ledger

        monkeypatch.setattr(tledger.ledger, "validate_transaction", lambda tx: None)
        report = validate_file(self.TWO_STEPS.replace("b cr 1", "b cr 2/5", 1))
        [diag] = report.diagnostics
        assert diag.message.endswith(" after 2020-01-01 'first'")
        assert (diag.span.line, diag.span.column) == (4, 1)

    def test_inconsistent_final_total_is_reported(self, monkeypatch):
        import tledger.ledger
        from tledger import AccountPath

        real_step = tledger.ledger._replay_step
        untouched = AccountPath.parse("c")

        def step_adds_a_debit_to_a_leaf_it_does_not_touch(chart, pairs, tx, values):
            result = real_step(chart, pairs, tx, values)
            if tx.description == "first":
                debit, credit = pairs[untouched]
                pairs[untouched] = (debit + 1, credit)
            return result

        monkeypatch.setattr(
            tledger.ledger, "_replay_step", step_adds_a_debit_to_a_leaf_it_does_not_touch
        )
        report = validate_file(self.TWO_STEPS + "\naccount c\n")
        assert report.status == "invalid"
        [diag] = report.diagnostics
        assert diag.message == (
            "internal inconsistency: tree total is not a zero representative"
            " after 2020-01-02 'second'"
        )
        assert (diag.span.line, diag.span.column) == (8, 1)

    def test_validation_takes_no_tree_total_and_builds_no_taccounts(self, monkeypatch):
        from tledger import Journal, Ledger

        real_expand, real_init = Journal.expand, TAccount.__init__
        events = []

        def expand(self):
            expansion = real_expand(self)
            events.append("expand")
            return expansion

        def init(self, debit, credit):
            events.append("taccount")
            real_init(self, debit, credit)

        monkeypatch.setattr(Journal, "expand", expand)
        monkeypatch.setattr(TAccount, "__init__", init)
        monkeypatch.setattr(Ledger, "total", lambda self: events.append("total"))
        report = validate_file(
            "account a\naccount b\n\n"
            "schedule a b 1 over 200 yearly from 2020-01-01 mode direct\n"
        )
        assert report.ok and report.transactions == 200
        assert "taccount" in events  # the parse and the schedule build entries
        assert "total" not in events
        assert events[events.index("expand"):] == ["expand"]
