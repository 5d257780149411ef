"""Every module's ``__all__`` matches what it defines, and the package
re-exports exactly those lists: a deleted name cannot linger as a stale export."""

import importlib
import inspect
import pkgutil

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


PACKAGED = ("blowup", "cones", "conslaws", "errors", "grid", "norms", "profiles", "solver")


def test_package_exports_the_union_of_the_packaged_modules_names():
    public = {name for name, obj in vars(nlkg).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    listed = {name for m in PACKAGED for name in importlib.import_module(f"nlkg.{m}").__all__}
    assert public == listed


def test_no_name_is_listed_by_two_packaged_modules():
    # the package star-imports these modules: a name in two lists would be
    # shadowed by the later import without a word
    owners = {}
    for m in PACKAGED:
        for name in importlib.import_module(f"nlkg.{m}").__all__:
            owners.setdefault(name, []).append(m)
    assert {name: ms for name, ms in owners.items() if len(ms) > 1} == {}
