"""The public names of sburgers and the shape of its dataclasses.

Every name listed in the package's __all__, and in the __all__ of each
of its modules, must resolve.  A trimmed function, class or re-export
that stays listed would otherwise fail only at a user's import.
"""

import dataclasses
import importlib
import pkgutil

import sburgers


def _unresolved(module) -> list:
    return [f"{module.__name__}.{name}" for name in module.__all__
            if not hasattr(module, name)]


def test_package_all_resolves():
    assert sburgers.__all__ and _unresolved(sburgers) == []


def _modules() -> list:
    names = [info.name for info in pkgutil.iter_modules(sburgers.__path__)]
    return [importlib.import_module(f"sburgers.{name}") for name in names]


def test_module_all_resolves():
    modules = _modules()
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert listed
    assert [name for m in listed for name in _unresolved(m)] == []


def test_only_compared_dataclasses_define_eq():
    # each generated method is an exec at import; the rest are eq=False
    classes = {obj for m in _modules() for obj in vars(m).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)
               and obj.__module__ == m.__name__}
    assert {c.__name__ for c in classes if "__eq__" in vars(c)} == \
        {"BlowUp", "JumpEvent"}
    for c in classes:
        assert c.__dataclass_params__.frozen, c
        assert "__repr__" in vars(c), c
