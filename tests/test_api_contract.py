"""The public names of sburgers.

Every name listed in the package's __all__, and in the __all__ of each
of its modules, must resolve.  A trimmed function, class or re-export
that stays listed would otherwise fail only at a user's import.
"""

import importlib
import pkgutil

import sburgers


def _unresolved(module) -> list:
    return [f"{module.__name__}.{name}" for name in module.__all__
            if not hasattr(module, name)]


def test_package_all_resolves():
    assert sburgers.__all__ and _unresolved(sburgers) == []


def test_module_all_resolves():
    names = [info.name for info in pkgutil.iter_modules(sburgers.__path__)]
    modules = [importlib.import_module(f"sburgers.{name}") for name in names]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert listed
    assert [name for m in listed for name in _unresolved(m)] == []
