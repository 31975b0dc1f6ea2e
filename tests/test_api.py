"""Each library module's ``__all__`` is its public surface: every listed name
exists, and every public function or class the module defines is listed."""

import importlib
import inspect
import pkgutil

import pytest

import grassdeg

# the command line's surface is its subcommands, not importable names
MODULES = sorted(info.name for info in pkgutil.iter_modules(grassdeg.__path__)
                 if info.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_the_public_definitions(name):
    module = importlib.import_module(f"grassdeg.{name}")
    listed = module.__all__
    assert [n for n in listed if not hasattr(module, n)] == []
    assert len(set(listed)) == len(listed)
    defined = {
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(listed)) == []
