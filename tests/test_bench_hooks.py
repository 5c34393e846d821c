"""The benchmark's tracer patches engine names from outside; they must exist.

perfbench/tracing.py lists every (module, attribute path) it wraps. A
refactor that renames or drops one of them should fail here, not only
in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, path) for module, path, _ in tracing.SPANS + tracing.COUNTERS]


@pytest.mark.parametrize("module, path", _tracing_tables())
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
