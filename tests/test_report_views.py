"""The equation and flows reports against the public views.

The reports print from the replay's integer pairs. The references below
are the earlier path, kept here: the public view (stock_at or
flow_between), scaled by the basis reciprocal under --percent, read
through nonzero_items() or reduce(), and a total line from the TAccount
sum of the view, every number printed by oracles.fmt. Through cli.main
the reports must match them byte for byte, on stdout, stderr and exit
code.
"""

import datetime as dt
import random
from collections import namedtuple

import pytest

from journalgen import prime_journal, random_journal
from oracles import fmt
from tledger import Ledger, TAccount, parse_journal, serialize_journal
from tledger.cli import main
from tledger.ledger import _Replay

NO_BASIS = "error: --percent requires a basis declaration\n"
DAY = dt.timedelta(days=1)

# The render flags, as the references read them: --decimal, --percent, --show-zero.
Render = namedtuple("Render", "places percent show_zero")


def reference_pair(entry: TAccount, opts: Render) -> str:
    sides = (entry.debit, entry.credit)
    debit, credit = (fmt(side.as_fraction, opts.places, opts.percent) for side in sides)
    return f"({debit}, {credit})"


def reference_total_line(total: TAccount, opts: Render) -> str:
    """The total line from the TAccount sum of a view, which is zero."""
    assert total.is_zero
    return f"total  {reference_pair(total, opts)}  = 0  ok"


def percent_scaled(journal, ledger: Ledger, opts: Render) -> Ledger | None:
    if not opts.percent:
        return ledger
    if journal.basis is None:
        return None
    return ledger.scaled(journal.basis.reciprocal())


def reference_equation(journal, at, opts: Render) -> tuple[int, str, str]:
    _, txs = journal.expand()
    cutoff = at if at is not None else (txs[-1].date if txs else dt.date.min)
    ledger = percent_scaled(journal, journal.stock_at(cutoff), opts)
    if ledger is None:
        return 1, "", NO_BASIS
    terms = " + ".join(
        f"{reference_pair(entry, opts)}_{account}" for account, entry in ledger.nonzero_items()
    )
    total = reference_total_line(ledger.total(), opts)
    return 0, f"0 = {terms or '(0, 0)'}\n{total}\n", ""


def reference_flows(journal, start, end, opts: Render) -> tuple[int, str, str]:
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
        lines.append(f"  {account}  {side} {fmt(amount.as_fraction, opts.places, opts.percent)}")
    lines.append(reference_total_line(ledger.total(), opts))
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


def options(flags) -> Render:
    places = int(flags[-1]) if "--decimal" in flags else None
    return Render(places, "--percent" in flags, "--show-zero" in flags)


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

    @pytest.mark.parametrize(
        "command, flags",
        [("check", []), ("balance", []), ("equation", []), ("flows", []),
         ("flows", ["--from", "2020-01-02", "--to", "2021-01-04"])],  # a short window
    )
    def test_no_window_count_and_no_kept_taccounts(
        self, monkeypatch, capsys, fixture_path, command, flags
    ):
        """A command's one lookup reads the final pairs over the whole
        journal, summing no step, and sums a window's steps inside it onto
        zero; it keeps no TAccount and makes none through the replay."""
        replays, steps, made = [], [], []
        post_init, taccount, summed = _Replay.__post_init__, _Replay.taccount, _Replay._summed

        def recorded(self):
            replays.append(self)
            post_init(self)

        def counted(self, *pair):
            made.append(pair)
            return taccount(self, *pair)

        def counted_summed(self, i, j):
            steps.extend(self._steps[i:j])
            return summed(self, i, j)

        monkeypatch.setattr(_Replay, "__post_init__", recorded)
        monkeypatch.setattr(_Replay, "taccount", counted)
        monkeypatch.setattr(_Replay, "_summed", counted_summed)
        code, out, _ = run(capsys, [command, str(fixture_path), *flags])
        assert code == 0 and out
        assert replays and not made
        _, txs = parse_journal(fixture_path.read_text(encoding="utf-8"))[0].expand()
        start, end = (dt.date.fromisoformat(flags[i]) for i in (1, 3)) if flags else (None, None)
        inside = sum(1 for tx in txs if start < tx.date <= end) if flags else len(txs)
        assert len(steps) == (0 if inside == len(txs) else inside)
        for replay in replays:
            assert all(taccounts is None for _, _, taccounts in replay._recent)


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
