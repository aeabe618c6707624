"""Each module's __all__ against its namespace and the package re-exports.
The benchmark's span recorder wraps every __all__ name through getattr, so a
stale entry would break a traced run."""
import ast
import importlib
import inspect
import pkgutil

import pytest

import sparsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(sparsim.__path__)
                 if not m.name.startswith("_"))


def _reexports():
    """(module, name) for every `from .module import name` in the package."""
    tree = ast.parse(inspect.getsource(sparsim))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_name_resolves(module):
    mod = importlib.import_module(f"sparsim.{module}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_reexports_are_in_their_module_all():
    reexports = _reexports()
    assert reexports
    stray = [f"{m}.{n}" for m, n in reexports
             if n not in getattr(importlib.import_module(f"sparsim.{m}"), "__all__", ())]
    assert stray == []
