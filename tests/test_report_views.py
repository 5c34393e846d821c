"""The equation and flows reports against the public views.

The reports print from the replay's integer pairs. The references below
are the earlier path, kept here: the public view (stock_at or
flow_between), scaled by the basis reciprocal under --percent, read
through nonzero_items() or reduce(), and a total line from the TAccount
sum of the view. Through cli.main the reports must match them byte for
byte, on stdout, stderr and exit code.
"""

import datetime as dt
import random

import pytest

from journalgen import prime_journal, random_journal
from tledger import Ledger, TAccount, parse_journal, serialize_journal
from tledger.algebra import _signed
from tledger.cli import RenderOptions, _fmt_fraction, _fmt_value, main

NO_BASIS = "error: --percent requires a basis declaration\n"
DAY = dt.timedelta(days=1)


def reference_total_line(total: TAccount, places) -> str:
    """The total line from the TAccount sum of a view."""
    debit = _fmt_fraction(total.debit.as_fraction, places)
    credit = _fmt_fraction(total.credit.as_fraction, places)
    if total.is_zero:
        return f"total  ({debit}, {credit})  = 0  ok"
    return f"total  ({debit}, {credit})  IMBALANCED residual {_signed(total.balance())}"


def percent_scaled(journal, ledger: Ledger, opts: RenderOptions) -> Ledger | None:
    if not opts.percent:
        return ledger
    if journal.basis is None:
        return None
    return ledger.scaled(journal.basis.reciprocal())


def reference_equation(journal, at, opts: RenderOptions) -> tuple[int, str, str]:
    _, txs = journal.expand()
    cutoff = at if at is not None else (txs[-1].date if txs else dt.date.min)
    ledger = percent_scaled(journal, journal.stock_at(cutoff), opts)
    if ledger is None:
        return 1, "", NO_BASIS
    terms = " + ".join(
        f"({_fmt_fraction(entry.debit.as_fraction, opts.places)},"
        f" {_fmt_fraction(entry.credit.as_fraction, opts.places)})_{account}"
        for account, entry in ledger.nonzero_items()
    )
    total = reference_total_line(ledger.total(), opts.places)
    return 0, f"0 = {terms or '(0, 0)'}\n{total}\n", ""


def reference_flows(journal, start, end, opts: RenderOptions) -> tuple[int, str, str]:
    _, txs = journal.expand()
    if start is None:
        start = txs[0].date - DAY if txs else dt.date.min
    if end is None:
        end = txs[-1].date if txs else dt.date.min
    if start > end:
        return 1, "", f"error: inverted interval: {start} > {end}\n"
    ledger = percent_scaled(journal, journal.flow_between(start, end), opts)
    if ledger is None:
        return 1, "", NO_BASIS
    lines = [f"flows from {start.isoformat()} to {end.isoformat()}"]
    for account, entry in ledger.items():
        net = entry.reduce()
        if net.is_zero and not opts.show_zero:
            continue
        side, amount = ("cr", net.credit) if net.credit else ("dr", net.debit)
        lines.append(f"  {account}  {side} {_fmt_value(amount.as_fraction, opts)}")
    lines.append(reference_total_line(ledger.total(), opts.places))
    return 0, "\n".join(lines) + "\n", ""


def journals():
    """Seeded journals with a direct or a contra schedule, with and
    without a basis, and a prime-denominator journal with and without one."""
    rng = random.Random(1313)
    found = {}
    while len(found) < 4:
        journal = random_journal(rng, 20, 30)
        if journal.schedules:
            found.setdefault((journal.schedules[0].mode.value, journal.basis is None), journal)
    texts = [(f"{mode}-{'nobasis' if bare else 'basis'}", serialize_journal(j))
             for (mode, bare), j in sorted(found.items())]
    prime = prime_journal(random.Random(29), n_tx=25)
    return texts + [("prime", prime), ("prime-basis", "basis 1000003/7\n" + prime)]


RENDERINGS = [[], ["--percent"], ["--decimal", "0"], ["--decimal", "2"], ["--decimal", "12"],
              ["--show-zero"]]


def options(flags) -> RenderOptions:
    places = int(flags[-1]) if "--decimal" in flags else None
    return RenderOptions(places, "--percent" in flags, "--show-zero" in flags)


def probe_dates(journal):
    """Three transaction dates, with the day before and after each."""
    _, txs = journal.expand()
    dates = sorted({tx.date for tx in txs})
    picked = [dates[0], dates[len(dates) // 2], dates[-1]]
    return sorted({d + k * DAY for d in picked for k in (-1, 0, 1)})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(params=journals(), ids=lambda item: item[0])
def journal_file(request, tmp_path):
    name, text = request.param
    path = tmp_path / f"{name}.journal"
    path.write_text(text, encoding="utf-8")
    journal, _ = parse_journal(text)
    return str(path), journal


def test_equation_matches_the_view(capsys, journal_file):
    path, journal = journal_file
    for at in [None, *probe_dates(journal)]:
        at_flags = [] if at is None else ["--at", at.isoformat()]
        for flags in RENDERINGS:
            got = run(capsys, ["equation", path, *flags, *at_flags])
            assert got == reference_equation(journal, at, options(flags)), (flags, at)


def test_flows_match_the_view(capsys, journal_file):
    path, journal = journal_file
    dates = probe_dates(journal)
    middle = dates[len(dates) // 2]
    intervals = [(None, None), (None, middle), (middle, None)]
    intervals += [(start, end) for start in dates[::3] for end in dates[1::3]]
    for start, end in intervals:
        interval = [] if start is None else ["--from", start.isoformat()]
        interval += [] if end is None else ["--to", end.isoformat()]
        for flags in RENDERINGS:
            got = run(capsys, ["flows", path, *flags, *interval])
            want = reference_flows(journal, start, end, options(flags))
            assert got == want, (flags, start, end)


class TestReportsBuildNoViews:
    """The reports print from the integer pairs: no Ledger, and no
    TAccount beyond those that loading the journal builds, as check does."""

    @staticmethod
    def constructions(monkeypatch, capsys, argv):
        counts = {TAccount: 0, Ledger: 0}
        for cls in counts:
            real = cls.__init__

            def counted(self, *args, _cls=cls, _real=real, **kwargs):
                counts[_cls] += 1
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        code, out, _ = run(capsys, argv)
        monkeypatch.undo()
        assert code == 0 and out
        return counts

    @pytest.mark.parametrize("command", ["balance", "equation", "flows"])
    @pytest.mark.parametrize("flags", [[], ["--percent"], ["--decimal", "2"]])
    def test_no_ledger_and_no_extra_taccounts(
        self, monkeypatch, capsys, fixture_path, command, flags
    ):
        check = self.constructions(monkeypatch, capsys, ["check", str(fixture_path)])
        report = self.constructions(monkeypatch, capsys, [command, str(fixture_path), *flags])
        assert report[Ledger] == 0
        assert report[TAccount] <= check[TAccount]


class TestErrorOrder:
    """Each command's errors come in the order they did before one load
    in main served every command."""

    @pytest.fixture
    def bare_file(self, tmp_path):
        path = tmp_path / "bare.journal"
        path.write_text('account a\naccount b\n\n2020-01-01 "x"\n    a dr 1\n    b cr 1\n')
        return str(path)

    def test_inverted_interval_before_missing_basis(self, capsys, bare_file):
        argv = ["flows", bare_file, "--percent", "--from", "2020-02-01", "--to", "2020-01-01"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: inverted interval: 2020-02-01 > 2020-01-01\n"

    def test_balance_percent_without_basis(self, capsys, bare_file):
        assert run(capsys, ["balance", bare_file, "--percent"]) == (1, "", NO_BASIS)

    def test_missing_file_with_render_flags(self, capsys, tmp_path):
        path = tmp_path / "absent.journal"
        code, out, err = run(capsys, ["equation", str(path), "--percent", "--decimal", "2"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ")

    def test_decimal_13_is_a_usage_error_before_the_read(self, capsys, tmp_path):
        path = str(tmp_path / "absent.journal")
        code, out, err = run(capsys, ["balance", path, "--decimal", "13"])
        assert (code, out) == (2, "")
        assert "decimal places must be between 0 and 12" in err
        assert "cannot read" not in err
