"""Importing the CLI stays cheap: no dataclasses, inspect, typing or pathlib.

dataclasses alone pulls in inspect, dis, ast, tokenize and linecache.
The records do without it: each record's __init__ is generated once,
when its class is made, from a short source text, and only Posting and
Chart write their own. This runs a fresh interpreter without site,
which on some installs preloads typing and pathlib, and checks what
`import tledger.cli` loaded. It measures no time.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KEPT_OUT = ("dataclasses", "inspect", "typing", "pathlib")


def test_cli_import_loads_none_of_the_heavy_modules():
    code = (
        "import sys, tledger.cli; "
        f"print(' '.join(m for m in {KEPT_OUT!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
