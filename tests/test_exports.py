"""Every module's ``__all__`` matches what it defines and what the package
re-exports: a deleted name cannot linger as a stale export."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import nlkg

MODULES = [importlib.import_module(f"nlkg.{info.name}")
           for info in pkgutil.iter_modules(nlkg.__path__)]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_is_defined(mod):
    assert hasattr(mod, "__all__"), mod.__name__
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_every_public_definition_is_listed(mod):
    # cli's cmd_* handlers are dispatched (and timed) by name, not imported
    defined = [name for name, obj in vars(mod).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__ and not name.startswith("_")
               and not (mod.__name__ == "nlkg.cli" and name.startswith("cmd_"))]
    assert [n for n in defined if n not in mod.__all__] == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(nlkg.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"nlkg.{node.module}")
        assert [a.name for a in node.names if a.name not in mod.__all__] == [], node.module
