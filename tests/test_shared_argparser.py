"""One argument parser per process, against a fresh parser per call.

cli.main builds its argparse parser on its first call and reuses it for
every later one. The reference is main as it was: the same function with
the undecorated builder patched in, so that every call builds a fresh
parser. On valid commands and usage errors, interleaved and repeated,
and on --help under two terminal widths, both must give the same exit
code, stdout and stderr, byte for byte. Four threads parsing through the
shared parser must get the fresh parser's namespaces. Importing the CLI
builds no parser.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

from tledger import cli

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE = str(Path(__file__).parent / "fixtures" / "machine_purchase.journal")

ARGVS = [
    [],
    ["frobnicate", FIXTURE],
    ["balance"],
    ["check", FIXTURE],
    ["balance", FIXTURE, "--decimal", "13"],
    ["balance", FIXTURE, "--at", "2020-13-01"],
    ["balance", FIXTURE, "--at", "2020-01-04", "--percent", "--decimal", "2"],
    ["--help"],
    ["flows", FIXTURE, "--from", "2020-01-01", "--to", "2021-01-01", "--show-zero"],
    ["balance", "--help"],
    ["equation", FIXTURE, "--percent"],
    ["check"],
    ["schedule", FIXTURE, "--loose"],
    ["flows", FIXTURE, "--from", "2020-1-1"],
    ["check", FIXTURE, "--decimal", "2"],
]
VALID = [
    ["check", FIXTURE],
    ["balance", FIXTURE, "--at", "2020-01-04", "--percent", "--decimal", "2"],
    ["flows", FIXTURE, "--from", "2020-01-01", "--to", "2021-01-01", "--show-zero"],
    ["equation", FIXTURE, "--percent"],
    ["schedule", FIXTURE, "--loose"],
]


def fresh_main(monkeypatch):
    def main(argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            return cli.main(argv)

    return main


def outcome(capsysbinary, main, argv):
    code = main(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def test_the_shared_parser_answers_as_a_fresh_one(capsysbinary, monkeypatch):
    fresh = fresh_main(monkeypatch)
    helps = set()
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for turn in range(2):
            for argv in ARGVS:
                mains = (cli.main, fresh) if turn == 0 else (fresh, cli.main)
                first, second = (outcome(capsysbinary, main, argv) for main in mains)
                assert first == second, argv
            helps.add(outcome(capsysbinary, cli.main, ["balance", "--help"]))
    assert len(helps) == 2  # the width is read when help is formatted, not when built
    assert cli._build_parser() is cli._build_parser()


def test_main_builds_its_parser_once(capsys):
    cli.main(["check", FIXTURE])
    built = cli._build_parser.cache_info().misses
    for argv in ARGVS:
        cli.main(argv)
    capsys.readouterr()
    assert cli._build_parser.cache_info().misses == built == 1


def test_threads_share_one_parser():
    want = [vars(cli._build_parser.__wrapped__().parse_args(argv)) for argv in VALID]
    shared = cli._build_parser()
    start = threading.Barrier(4)
    got = [None] * 4

    def parse(k):
        start.wait()
        got[k] = [vars(shared.parse_args(argv)) for argv in VALID * 50]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [want * 50] * 4


def test_importing_the_cli_builds_no_parser():
    code = "import tledger.cli as cli; print(cli._build_parser.cache_info().misses)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
