"""The public surface: each module's __all__ is the one list of its names.

The package re-exports its modules' __all__s and nothing else, so a
name removed from a module but left in an __all__ breaks
`from tledger import *` for users; this catches it first, and pins the
surface so a name cannot join or leave it unnoticed.
"""

import importlib
import pkgutil

import pytest

import tledger

MODULES = ["tledger"] + [
    f"tledger.{info.name}" for info in pkgutil.iter_modules(tledger.__path__)
]

PUBLIC = {
    "Amount",
    "TAccount",
    "AccountPath",
    "Chart",
    "ParseDiagnostic",
    "Severity",
    "SourceSpan",
    "LedgerError",
    "DuplicateAccountError",
    "UnknownAccountError",
    "NonLeafPostingError",
    "ImbalanceError",
    "PartitionMismatchError",
    "ChildCollisionError",
    "IntervalError",
    "Posting",
    "Transaction",
    "Journal",
    "Ledger",
    "ReconcileRow",
    "ReconciliationReport",
    "IncomeReport",
    "validate_transaction",
    "MatchingSchedule",
    "ScheduleMode",
    "build_schedule",
    "contra_account",
    "emit_schedule_transactions",
    "net_book_value",
    "parse_journal",
    "serialize_journal",
    "format_transaction_block",
    "validate_file",
    "FileReport",
    "__version__",
}


def test_package_exports_exactly_the_public_names():
    assert len(tledger.__all__) == len(PUBLIC) == 35
    assert set(tledger.__all__) == PUBLIC


def test_star_import_binds_exactly_the_package_names():
    namespace = {}
    exec("from tledger import *", namespace)
    assert namespace.keys() - {"__builtins__"} == PUBLIC


def test_package_names_are_its_modules_names():
    """Every module but cli, which the package does not import, is re-exported whole."""
    union = {"__version__"}
    for name in MODULES[1:]:
        if name != "tledger.cli":
            union |= set(importlib.import_module(name).__all__)
    assert union == set(tledger.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    for attr in exported:
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr}"
