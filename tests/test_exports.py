"""Every exported name resolves, and no export list repeats a name.

A name removed from a module but left in an __all__ breaks
`from tledger import *` for users; this catches it first.
"""

import importlib
import pkgutil

import pytest

import tledger

MODULES = ["tledger"] + [
    f"tledger.{info.name}" for info in pkgutil.iter_modules(tledger.__path__)
]


def test_star_import_resolves_every_package_name():
    namespace = {}
    exec("from tledger import *", namespace)
    assert set(tledger.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    for attr in exported:
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr}"
