"""The package's export list against its ``__init__`` imports, and the order
its submodules may be imported in."""

import ast
import inspect
import os
import subprocess
import sys

import pytest

import modend

SUBMODULES = ("blocks", "fusioncat", "modcat", "modfunct", "endengine", "theorems", "cli")


def test_all_names_exactly_what_the_package_imports():
    """``modend.__all__`` lists each name ``__init__`` imports from a submodule
    once, and nothing else, and every listed name resolves on the package."""
    tree = ast.parse(inspect.getsource(modend))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert len(modend.__all__) == len(set(modend.__all__))
    assert len(imported) == len(set(imported))
    assert sorted(modend.__all__) == sorted(imported)
    for name in modend.__all__:
        assert hasattr(modend, name), name


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_first(name):
    """``modend.<name>`` imports first in a fresh ``python -S`` process, and the
    other submodules after it, so an import cycle among them fails whichever
    module a caller imports first.  The package's ``__init__`` imports its
    submodules in one fixed order, so a bare module with the package's
    ``__path__`` stands in for it."""
    code = ("import importlib, sys, types\n"
            "pkg = sys.modules['modend'] = types.ModuleType('modend')\n"
            f"pkg.__path__ = [{os.path.dirname(modend.__file__)!r}]\n"
            f"for sub in {(name, *SUBMODULES)!r}:\n"
            "    importlib.import_module('modend.' + sub)\n")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
