"""The benchmark's tracer patches engine names from outside; they must exist.

perfbench/tracing.py lists every (module, attribute path) it wraps. A
refactor that renames or drops one of them should fail here, not only
in a traced benchmark run. A refactor that keeps the name but stops
calling it, such as an __init__ that binds __post_init__ when its class
is made, should fail here too: the counter would read 0 without error.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import tledger.cli  # noqa: F401  install() patches every traced module, the CLI's too
from tledger import validate_file

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _tracing_tables():
    tracing = _tracing()
    return [(module, path) for module, path, _ in tracing.SPANS + tracing.COUNTERS]


@pytest.mark.parametrize("module, path", _tracing_tables())
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_tracer_counts_every_checked_path_built(fixture_path, fixture_text):
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        journal = validate_file(fixture_text, file=fixture_path.name).journal
        journal.stock_at(journal.transactions[-1].date)
    finally:
        tracer.uninstall()
    assert tracer.counters["chart.path_constructions"] == 14
