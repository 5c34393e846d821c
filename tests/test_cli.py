"""Command-line surface: exit codes, report shapes, determinism."""

import datetime as dt
import subprocess
import sys
from fractions import Fraction

import pytest

from journalgen import first_primes
from tledger.cli import main


@pytest.fixture
def fixture_file(fixture_path):
    return str(fixture_path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_fixture_passes(self, capsys, fixture_file):
        code, out, err = run(capsys, "check", fixture_file)
        assert code == 0
        assert out.strip() == "ok: 9 transactions, root ≡ 0"
        assert err == ""

    def test_unbalanced_file_exits_1_with_residual(self, capsys, tmp_path, fixture_text):
        bad = tmp_path / "bad.journal"
        bad.write_text(
            fixture_text.replace("equity:capital cr 123456789/500", "equity:capital cr 1"),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "residual" in err

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.journal"
        bad.write_text("account 9bad\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.journal"))
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("command", ["check", "balance", "flows", "equation", "schedule"])
    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, command):
        bad = tmp_path / "latin1.journal"
        bad.write_bytes(b"account caf\xe9\naccount \xff\n")
        code, out, err = run(capsys, command, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {bad}: ")
        assert "can't decode byte 0xe9" in err
        assert err.count("\n") == 1

    def test_utf8_with_byte_order_mark(self, capsys, tmp_path):
        f = tmp_path / "bom.journal"
        f.write_text(
            'account a\naccount b\n\n2020-01-01 "x"\n    a dr 1\n    b cr 1\n',
            encoding="utf-8-sig",
        )
        assert f.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run(capsys, "check", str(f)) == (0, "ok: 1 transaction, root ≡ 0\n", "")

    def test_loose_mode(self, capsys, tmp_path):
        f = tmp_path / "loose.journal"
        f.write_text('2020-01-01 "x"\n    a dr 1\n    b cr 1\n', encoding="utf-8")
        assert run(capsys, "check", str(f))[0] == 2
        code, out, err = run(capsys, "check", str(f), "--loose")
        assert code == 0
        assert "implicitly declared" in err


class TestBalance:
    def test_percent_mode_pre_depreciation(self, capsys, fixture_file):
        code, out, _ = run(capsys, "balance", fixture_file, "--percent", "--at", "2020-01-04")
        assert code == 0
        lines = out.splitlines()
        assert "    cash1  20%" in lines
        assert "    machine  40%" in lines
        assert "    capital  -20%" in lines
        assert "    banks  -40%" in lines
        assert lines[-1] == "total  (60%, 60%)  = 0  ok"

    def test_raw_mode_opening_dollars(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, "balance", fixture_file, "--at", "2020-01-01", "--decimal", "2"
        )
        assert code == 0
        assert "    cash  1234567.89" in out
        assert "    suppliers  -493827.16" in out
        assert "    capital  -246913.58" in out

    def test_default_cutoff_is_last_effective_date(self, capsys, fixture_file):
        code, out, _ = run(capsys, "balance", fixture_file, "--percent")
        assert code == 0
        assert "balance as of 2025-01-04" in out
        assert "machine" not in out  # fully matched away by then

    def test_show_zero_includes_matched_accounts(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, "balance", fixture_file, "--percent", "--show-zero", "--at", "2025-01-04"
        )
        assert code == 0
        assert "    machine  0%" in out

    def test_percent_without_basis_fails(self, capsys, tmp_path):
        f = tmp_path / "nobasis.journal"
        f.write_text(
            'account a\naccount b\n\n2020-01-01 "x"\n    a dr 1\n    b cr 1\n',
            encoding="utf-8",
        )
        code, _, err = run(capsys, "balance", str(f), "--percent")
        assert code == 1
        assert "requires a basis" in err

    def test_empty_journal(self, capsys, tmp_path):
        f = tmp_path / "empty.journal"
        f.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "balance", str(f))
        assert code == 0
        assert "total  (0, 0)  = 0  ok" in out

    def test_deterministic_output(self, capsys, fixture_file):
        first = run(capsys, "balance", fixture_file, "--percent", "--at", "2022-06-01")
        second = run(capsys, "balance", fixture_file, "--percent", "--at", "2022-06-01")
        assert first == second


class TestEquation:
    def test_opening_decomposition(self, capsys, fixture_file):
        code, out, _ = run(capsys, "equation", fixture_file, "--percent", "--at", "2020-01-01")
        assert code == 0
        assert out.splitlines()[0] == (
            "0 = (100%, 0%)_assets:cash"
            " + (0%, 20%)_equity:capital"
            " + (0%, 40%)_liabilities:banks"
            " + (0%, 40%)_liabilities:suppliers"
        )

    def test_post_purchase_decomposition(self, capsys, fixture_file):
        code, out, _ = run(capsys, "equation", fixture_file, "--percent", "--at", "2020-01-04")
        assert out.splitlines()[0] == (
            "0 = (20%, 0%)_assets:cash1"
            " + (40%, 0%)_assets:machine"
            " + (0%, 20%)_equity:capital"
            " + (0%, 40%)_liabilities:banks"
        )

    def test_year_one_net_machine(self, capsys, fixture_file):
        code, out, _ = run(capsys, "equation", fixture_file, "--percent", "--at", "2021-01-04")
        first = out.splitlines()[0]
        assert "(32%, 0%)_assets:machine" in first
        assert "(8%, 0%)_expenses:interest:y1" in first

    def test_zero_check_footer(self, capsys, fixture_file):
        _, out, _ = run(capsys, "equation", fixture_file, "--at", "2020-01-01")
        assert out.splitlines()[-1].endswith("= 0  ok")


class TestFlows:
    def test_supplier_payment_interval(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, "flows", fixture_file, "--percent",
            "--from", "2020-01-02", "--to", "2020-01-03",
        )
        assert code == 0
        lines = out.splitlines()
        assert "  assets:cash2  cr 40%" in lines
        assert "  liabilities:suppliers  dr 40%" in lines
        assert lines[-1] == "total  (40%, 40%)  = 0  ok"

    def test_empty_interval(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, "flows", fixture_file, "--from", "2020-02-01", "--to", "2020-02-01"
        )
        assert code == 0
        assert out.splitlines()[-1] == "total  (0, 0)  = 0  ok"

    def test_whole_span_defaults(self, capsys, fixture_file):
        code, out, _ = run(capsys, "flows", fixture_file)
        assert code == 0
        assert out.splitlines()[-1].endswith("= 0  ok")

    def test_inverted_interval_exits_1(self, capsys, fixture_file):
        code, _, err = run(
            capsys, "flows", fixture_file, "--from", "2020-02-01", "--to", "2020-01-01"
        )
        assert code == 1
        assert "inverted" in err

    def test_journal_starting_in_year_one(self, capsys, tmp_path):
        f = tmp_path / "ancient.journal"
        f.write_text(
            'account a\naccount b\n\n0001-01-01 "x"\n    a dr 1\n    b cr 1\n',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "flows", str(f))
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: no day before 0001-01-01 to default --from to"]
        code, out, _ = run(capsys, "flows", str(f), "--from", "0001-01-01")
        assert code == 0
        assert out.splitlines()[-1] == "total  (0, 0)  = 0  ok"


class TestOneParsePerCommand:
    @pytest.mark.parametrize("command", ["check", "balance", "equation", "flows", "schedule"])
    def test_file_is_parsed_once(self, capsys, monkeypatch, fixture_file, command):
        import tledger.parser

        original = tledger.parser.parse_journal
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # every module-level alias, so a caller importing it by name is counted too
        for name, module in list(sys.modules.items()):
            if name == "tledger" or name.startswith("tledger."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        code, _, _ = run(capsys, command, fixture_file)
        assert code == 0
        assert len(calls) == 1


class TestOneReplayPerCommand:
    @pytest.mark.parametrize("command", ["balance", "equation", "flows"])
    def test_journal_is_replayed_once(self, capsys, monkeypatch, tmp_path, command):
        import random

        import tledger.ledger
        from journalgen import random_journal
        from tledger import parse_journal, serialize_journal

        rng = random.Random(606)
        journal = random_journal(rng)
        while not journal.schedules:
            journal = random_journal(rng)
        f = tmp_path / "generated.journal"
        f.write_text(serialize_journal(journal), encoding="utf-8")
        _, txs = parse_journal(f.read_text(encoding="utf-8"))[0].expand()
        real_step = tledger.ledger._replay_step
        calls = []

        def counted(chart, pairs, tx, values):
            calls.append(tx)
            return real_step(chart, pairs, tx, values)

        monkeypatch.setattr(tledger.ledger, "_replay_step", counted)
        code, _, _ = run(capsys, command, str(f))
        assert code == 0
        assert calls == list(txs)


class TestTotalLineOnIntegers:
    """The total line comes from the view's integer pairs, not Ledger.total."""

    @pytest.mark.parametrize("command", ["balance", "equation", "flows"])
    @pytest.mark.parametrize("flags", [[], ["--percent"], ["--decimal", "2"]])
    def test_reports_take_no_ledger_total(self, capsys, monkeypatch, fixture_file, command, flags):
        from tledger import Ledger

        calls = []
        monkeypatch.setattr(Ledger, "total", lambda self: calls.append(self))
        code, out, _ = run(capsys, command, fixture_file, *flags)
        assert code == 0 and "  = 0  ok" in out
        assert calls == []


class TestImbalancedResidual:
    """The IMBALANCED branch fires only on an engine fault. Here the stock
    lookup adds one currency unit (whole) or one replay integer to the first
    account's debit. The residual prints exact and signed in its line's
    unit, whatever --decimal says, so even one replay integer shows."""

    @pytest.mark.parametrize("command", ["balance", "equation"])
    @pytest.mark.parametrize(
        "flags, whole, total",
        [
            ([], True, "(370370867/500, 370370367/500)  IMBALANCED residual +1"),
            (["--decimal", "2"], True, "(740741.73, 740740.73)  IMBALANCED residual +1"),
            (["--decimal", "2"], False, "(740740.73, 740740.73)  IMBALANCED residual +1/2500"),
            (
                ["--percent"],
                True,
                "(7407417340/123456789%, 60%)  IMBALANCED residual +10000/123456789%",
            ),
            (
                ["--percent", "--decimal", "2"],
                False,
                "(60.00%, 60.00%)  IMBALANCED residual +4/123456789%",
            ),
        ],
    )
    def test_residual_in_the_line_unit(
        self, capsys, monkeypatch, fixture_file, command, flags, whole, total
    ):
        from tledger import Journal

        real = Journal._stock_pairs

        def faulty(self, cutoff):
            pairs = dict(real(self, cutoff))  # a copy: the replay shares the one it keeps
            first = next(iter(pairs))
            debit, credit = pairs[first]
            pairs[first] = (debit + (self._replay.scale if whole else 1), credit)
            return pairs

        monkeypatch.setattr(Journal, "_stock_pairs", faulty)
        code, out, _ = run(capsys, command, fixture_file, "--at", "2020-01-04", *flags)
        assert code == 0
        assert out.splitlines()[-1] == f"total  {total}"


class TestSchedule:
    def test_fixture_schedule_prints_five_blocks(self, capsys, fixture_file):
        code, out, _ = run(capsys, "schedule", fixture_file)
        assert code == 0
        assert out.count("123456789/1250") == 10  # five debit/credit pairs
        for k, year in enumerate(range(2021, 2026), 1):
            assert f"expenses:interest:y{k} dr 123456789/1250" in out
            assert f"{year}-01-04" in out

    def test_output_is_valid_journal_syntax(self, capsys, fixture_file, tmp_path):
        _, out, _ = run(capsys, "schedule", fixture_file)
        declarations = "\n".join(
            f"account {name}"
            for name in (
                ["assets:machine"]
                + [f"expenses:interest:y{k}" for k in range(1, 6)]
            )
        )
        f = tmp_path / "pasted.journal"
        f.write_text(declarations + "\n\n" + out, encoding="utf-8")
        code, check_out, err = run(capsys, "check", str(f))
        assert code == 0
        assert "ok: 5 transactions" in check_out

    def test_no_schedules_prints_nothing(self, capsys, tmp_path):
        f = tmp_path / "plain.journal"
        f.write_text(
            'account a\naccount b\n\n2020-01-01 "x"\n    a dr 1\n    b cr 1\n',
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "schedule", str(f))
        assert code == 0
        assert out == ""

    def test_contra_schedule_credits_sibling(self, capsys):
        code, out, _ = run(
            capsys, "schedule", "tests/fixtures/machine_purchase_contra.journal"
        )
        assert code == 0
        assert "assets:accumulated-depreciation cr 123456789/1250" in out


class TestRenderOptions:
    @pytest.mark.parametrize("places", ["13", "-1"])
    def test_out_of_range_decimal_flag_is_a_usage_error(self, capsys, fixture_file, places):
        code, out, err = run(capsys, "balance", fixture_file, "--decimal", places)
        assert (code, out) == (2, "")
        assert "--decimal" in err

    def test_non_integer_decimal_flag_is_a_usage_error(self, capsys, fixture_file):
        code, out, err = run(capsys, "balance", fixture_file, "--decimal", "abc")
        assert (code, out) == (2, "")
        assert "argument --decimal: not an integer: 'abc'" in err

    @pytest.mark.parametrize(
        "command, flag",
        [("balance", "--at"), ("equation", "--at"), ("flows", "--from"), ("flows", "--to")],
    )
    @pytest.mark.parametrize(
        "text", ["notadate", "20200101", "2020-W01-1", "2020-1-01", "2020-02-30"]
    )
    def test_date_flags_take_the_journal_date_form(self, capsys, fixture_file, command, flag, text):
        """Only the grammar's YYYY-MM-DD, on the calendar, whatever else the
        interpreter's fromisoformat accepts."""
        code, out, err = run(capsys, command, fixture_file, flag, text)
        assert (code, out) == (2, "")
        assert f"argument {flag}: not a YYYY-MM-DD date: {text!r}" in err

    def test_asset_side_sums_to_exactly_one_basis_at_opening(self, fixture_text):
        from fractions import Fraction

        from tledger import parse_journal

        journal, _ = parse_journal(fixture_text)
        stock = journal.stock_at(dt.date(2020, 1, 1)).scaled(
            journal.basis.reciprocal()
        )
        debit_side = sum(
            (entry.balance() for _, entry in stock.nonzero_items()
             if entry.debit),
            Fraction(0),
        )
        assert debit_side == 1  # renders as exactly 100%


class TestLargeRationals:
    """Balances whose terms run past the interpreter's int-string limit."""

    def test_balance_renders_exactly(self, capsys, tmp_path):
        primes = first_primes(1300)
        blocks = [
            f'2020-01-01 "t{i}"\n    a dr 1/{q}\n    b cr 1/{q}\n'
            for i, q in enumerate(primes)
        ]
        f = tmp_path / "coprime.journal"
        f.write_text("account a\naccount b\n\n" + "\n".join(blocks), encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "balance", str(f))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        [line] = [ln for ln in out.splitlines() if ln.startswith("  a  ")]
        want = sum((Fraction(1, q) for q in primes), Fraction(0))
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(want.denominator)) > limit
            assert line == f"  a  {want}"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_huge_residual_is_a_diagnostic(self, capsys, tmp_path):
        from tledger import ImbalanceError, parse_journal, validate_file

        primes = first_primes(1300)
        postings = "".join(f"    a dr 1/{q}\n" for q in primes)
        text = f'account a\naccount b\n\n2020-01-01 "x"\n{postings}    b cr 1\n'
        limit = sys.get_int_max_str_digits()
        residual = sum((Fraction(1, q) for q in primes), Fraction(-1))
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(residual.numerator)) > limit
            message = f"unbalanced transaction: residual +{residual}"
        finally:
            sys.set_int_max_str_digits(limit)

        report = validate_file(text)
        assert report.status == "invalid"
        [diag] = report.diagnostics
        assert diag.message == message
        assert (diag.span.line, diag.span.column) == (4, 1)

        f = tmp_path / "huge.journal"
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", str(f))
        assert (code, out) == (1, "")
        assert err == f"{f}:4:1: error: {message}\n"
        assert sys.get_int_max_str_digits() == limit

        journal, _ = parse_journal(text)
        with pytest.raises(ImbalanceError) as raised:
            journal.stock_at(dt.date(2020, 1, 1))
        assert raised.value.residual == residual
        assert raised.value.span.line == 4

    def test_over_long_literal_is_still_a_parse_error(self, capsys, tmp_path):
        f = tmp_path / "long.journal"
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        f.write_text(
            f'account a\naccount b\n\n2020-01-01 "x"\n    a dr {digits}\n    b cr 1\n',
            encoding="utf-8",
        )
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "balance", str(f))
        assert code == 2
        assert "Exceeds the limit" in err
        assert sys.get_int_max_str_digits() == limit


class TestInterpreterLimitUntouched:
    """Reports render exactly without ever lifting the int-string limit."""

    def test_every_command_renders_past_the_limit(self, capsys, monkeypatch, tmp_path):
        from decimal import ROUND_HALF_EVEN, Decimal, localcontext

        primes = first_primes(1300)
        blocks = [
            f'2020-01-01 "t{i}"\n    a dr 1/{q}\n    b cr 1/{q}\n'
            for i, q in enumerate(primes)
        ]
        f = tmp_path / "coprime.journal"
        f.write_text("account a\naccount b\n\n" + "\n".join(blocks), encoding="utf-8")
        want = sum((Fraction(1, q) for q in primes), Fraction(0))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            x = str(want)
            assert len(str(want.denominator)) > limit
            with localcontext() as ctx:
                ctx.prec = 50
                exact = Decimal(want.numerator) / Decimal(want.denominator)
            d = str(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))
        finally:
            sys.set_int_max_str_digits(limit)

        def refuse(digits):
            raise AssertionError("the int-string limit must stay as it is")

        # every module-level alias too, so a copy taken at import is caught
        original = sys.set_int_max_str_digits
        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        for name, module in list(sys.modules.items()):
            if name == "tledger" or name.startswith("tledger."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)

        expected = {
            ("check",): "ok: 1300 transactions, root ≡ 0\n",
            ("schedule",): "",
            ("equation",): f"0 = ({x}, 0)_a + (0, {x})_b\ntotal  ({x}, {x})  = 0  ok\n",
            ("flows",): (
                f"flows from 2019-12-31 to 2020-01-01\n  a  dr {x}\n  b  cr {x}\n"
                f"total  ({x}, {x})  = 0  ok\n"
            ),
            ("balance",): (
                f"balance as of 2020-01-01\n  a  {x}\n  b  -{x}\n"
                f"total  ({x}, {x})  = 0  ok\n"
            ),
            ("balance", "--decimal", "2"): (
                f"balance as of 2020-01-01\n  a  {d}\n  b  -{d}\n"
                f"total  ({d}, {d})  = 0  ok\n"
            ),
        }
        for command, want_out in expected.items():
            code, out, err = run(capsys, command[0], str(f), *command[1:])
            assert (code, err) == (0, ""), command
            assert out == want_out, command
            assert sys.get_int_max_str_digits() == limit


class TestOnePassBalanceTree:
    def test_no_per_node_chart_queries(self, capsys, monkeypatch, tmp_path):
        import random

        from journalgen import random_chart, random_transaction
        from tledger import AccountPath, Chart, Journal, Ledger, serialize_journal

        rng = random.Random(707)
        chart, leaves = random_chart(rng, 120)
        txs = [
            random_transaction(rng, leaves, dt.date(2020, 1, 1 + i % 28), i)
            for i in range(40)
        ]
        f = tmp_path / "wide.journal"
        f.write_text(serialize_journal(Journal(chart, tuple(txs))), encoding="utf-8")

        calls = {"aggregate": 0, "children": 0, "leaves_under": 0, "paths": 0}

        def counted(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(Ledger, "aggregate", "aggregate")
        counted(Chart, "children", "children")
        counted(Chart, "leaves_under", "leaves_under")
        counted(AccountPath, "__post_init__", "paths")

        assert run(capsys, "check", str(f))[0] == 0
        parse_and_replay = calls["paths"]
        calls["paths"] = 0
        code, out, _ = run(capsys, "balance", str(f), "--show-zero")
        assert code == 0
        assert len(out.splitlines()) == len(chart.nodes) + 2
        assert calls["aggregate"] == calls["children"] == calls["leaves_under"] == 0
        # the report itself builds at most one path per node: its parent
        assert calls["paths"] - parse_and_replay <= len(chart.nodes)


class TestDeepPaths:
    def test_1200_segment_path(self, capsys, tmp_path):
        spine = [f"s{k}" for k in range(1200)]
        deep = ":".join(spine)
        f = tmp_path / "deep.journal"
        f.write_text(
            f"account {deep}\naccount other\n\n"
            f'2020-01-01 "deep"\n    {deep} dr 5/2\n    other cr 5/2\n',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "balance", str(f))
        assert (code, err) == (0, "")
        assert out.splitlines() == (
            ["balance as of 2020-01-01", "  other  -5/2"]
            + [f"{'  ' * (k + 1)}s{k}  5/2" for k in range(1200)]
            + ["total  (5/2, 5/2)  = 0  ok"]
        )
        for command in ("check", "equation", "flows"):
            code, out, err = run(capsys, command, str(f))
            assert (code, err) == (0, ""), command
            assert out


class TestEntryPoint:
    def test_console_script(self, fixture_file):
        # The child imports tledger from where this process did: the
        # pytest pythonpath setting does not reach a subprocess.
        import os

        import tledger

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(tledger.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tledger.cli"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 2  # usage error: no command

    def test_usage_error_code(self, capsys):
        assert main(["balance"]) == 2
        capsys.readouterr()
