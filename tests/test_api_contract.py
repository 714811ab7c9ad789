"""The public names of sburgers and the shape of its records.

Every name listed in the package's __all__, and in the __all__ of each
of its modules, must resolve.  A trimmed function, class or re-export
that stays listed would otherwise fail only at a user's import.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sburgers
from sburgers.spectral import SpectralField


def _unresolved(module) -> list:
    return [f"{module.__name__}.{name}" for name in module.__all__
            if not hasattr(module, name)]


def test_package_all_resolves():
    assert sburgers.__all__ and _unresolved(sburgers) == []


def test_package_import_loads_no_submodule():
    # the package resolves its names on first use, from _EXPORTS
    src = str(Path(sburgers.__file__).resolve().parents[1])
    code = ("import sys, sburgers\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('sburgers.')))\n"
            "print(sorted(set(sburgers.__all__) - set(dir(sburgers))))\n")
    run = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert run.stdout.splitlines() == ["[]", "[]"]


def test_package_names_each_export_once():
    names = [n for names in sburgers._EXPORTS.values() for n in names]
    assert len(names) == len(set(names))
    assert sburgers.__all__ == ["__version__", *names]
    for module, names in sburgers._EXPORTS.items():
        mod = importlib.import_module(f"sburgers.{module}")
        assert all(getattr(sburgers, n) is getattr(mod, n) for n in names)


def _modules() -> list:
    names = [info.name for info in pkgutil.iter_modules(sburgers.__path__)]
    return [importlib.import_module(f"sburgers.{name}") for name in names]


def test_module_all_resolves():
    modules = _modules()
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert listed
    assert [name for m in listed for name in _unresolved(m)] == []


def test_records_are_frozen_and_print_their_fields():
    # every record is immutable, prints Name(field=value, ...) and compares
    # by identity; the two values compared by value, BlowUp and JumpEvent,
    # are named tuples, frozen and printed the same way
    classes = {obj for m in _modules() for obj in vars(m).values()
               if isinstance(obj, type) and hasattr(obj, "_fields")
               and obj.__module__ == m.__name__}
    assert all(c._fields for c in classes)
    assert not any("__eq__" in vars(c) for c in classes)
    tuples = {c for c in classes if issubclass(c, tuple)}
    assert {c.__name__ for c in tuples} == {"BlowUp", "JumpEvent"}

    def build(c):
        values = range(len(c._fields))
        if c in tuples:                # object.__new__ cannot build a tuple
            return c(*values)
        obj = object.__new__(c)
        obj.__dict__.update(zip(c._fields, values))
        return obj

    for c in classes:
        obj = build(c)
        assert (obj == build(c)) == (c in tuples)
        for name in c._fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, -1)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        if c is not SpectralField:
            assert repr(obj) == f"{c.__name__}(" + ", ".join(
                f"{name}={i}" for i, name in enumerate(c._fields)) + ")"
    # a field's own repr summarises its coefficients
    assert repr(SpectralField([3.0, 4.0])) == \
        "SpectralField(n_modes=2, norm_h=5)"
