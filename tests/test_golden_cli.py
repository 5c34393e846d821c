"""Byte-exact CLI transcripts on the fixture journals.

golden/cli.json holds, for every invocation below, the exit code,
standard output and standard error of `tledger`, run in the fixtures
directory. It sits outside fixtures/, whose every file is a journal. The
journals in fixtures/invalid/ each fail in their own way, so their cases
pin every diagnostic's text and source span. Regenerate it only for an
intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tledger.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "cli.json"
JOURNALS = (
    "empty.journal",
    "machine_purchase.journal",
    "machine_purchase_contra.journal",
    "negative_zero.journal",
)
RENDER_FLAGS = (
    [],
    ["--decimal", "0"],
    ["--decimal", "2"],
    ["--decimal", "12"],
    ["--percent"],
    ["--show-zero"],
    ["--percent", "--decimal", "2", "--show-zero"],
    ["--decimal", "0", "--show-zero"],
)
# 2020-01-03 is an authored transaction, 2021-01-04 the first schedule period.
WINDOWS = {
    "balance": ["--at", "2020-01-03"],
    "equation": ["--at", "2020-01-03"],
    "flows": ["--from", "2020-01-02", "--to", "2021-01-04"],
}
WINDOW_FLAGS = ([], ["--percent"], ["--decimal", "2"])
INVALID = (
    "invalid/unbalanced.journal",
    "invalid/undeclared.journal",
    "invalid/interior.journal",
    "invalid/malformed_posting.journal",
)


def invocations() -> list[list[str]]:
    out = []
    for journal in JOURNALS:
        for command in ("check", "schedule"):
            out += [[command, journal], [command, journal, "--loose"]]
        for command, window in WINDOWS.items():
            out += [[command, journal, *flags] for flags in RENDER_FLAGS]
            out += [[command, journal, *window, *flags] for flags in WINDOW_FLAGS]
    for journal in INVALID:
        for command in ("check", "balance", "schedule"):
            out += [[command, journal], [command, journal, "--loose"]]
    return out


def transcript(argv: list[str]) -> dict:
    """Run the CLI in-process, in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_the_golden_set_covers_every_invocation():
    assert [case["argv"] for case in RECORDED] == invocations()


@pytest.mark.parametrize("case", RECORDED, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_byte_identical(case, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    got = transcript(case["argv"])
    assert got["exit"] == case["exit"]
    assert got["stdout"].encode("utf-8") == case["stdout"].encode("utf-8")
    assert got["stderr"].encode("utf-8") == case["stderr"].encode("utf-8")


if __name__ == "__main__":
    os.chdir(FIXTURES)
    cases = [transcript(argv) for argv in invocations()]
    text = json.dumps(cases, ensure_ascii=False, indent=1) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
