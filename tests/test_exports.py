"""The package's export list against its ``__init__`` imports."""

import ast
import inspect

import modend


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
