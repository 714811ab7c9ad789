"""The names and configs the benchmark reaches inside sburgers.

perfbench/tracing.py patches the functions of its SPANS and HOT tables by
module and name, and perfbench/launch.py and perfbench/probe.py import from
the package.  A name deleted from sburgers would break every benchmark run,
a traced one or the probe without failing any other test.  Likewise every
workload's config must still parse, or each run of that workload would
fail.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from sburgers.harness import parse_config

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    # tracing.py and workloads.py import nothing from sburgers, so loading
    # them patches nothing
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_workload_config_parses(name):
    # a key the config layer rejects would fail every run of the workload
    workload = _load("workloads").WORKLOADS[name]
    assert parse_config(workload.config(ROOT)).sim.n_modes >= 1


def _resolves(module: str, name: str) -> bool:
    if callable(getattr(importlib.import_module(module), name, None)):
        return True
    try:                        # a submodule, as in "from sburgers import cli"
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _missing(pairs) -> list:
    return [f"{module}.{name}" for module, name in pairs
            if not _resolves(module, name)]


def test_traced_names_resolve():
    tracing = _load("tracing")
    pairs = [(f"sburgers.{m}", f) for m, names in tracing.SPANS.items()
             for f in names]
    pairs += [(f"sburgers.{m}", f) for targets in tracing.HOT.values()
              for m, f, _ in targets]
    assert pairs and _missing(pairs) == []


def _package_imports(script: str) -> list:
    """(module, name) of each "from sburgers... import name" in script,
    nested ones included."""
    tree = ast.parse((PERFBENCH / script).read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "sburgers"
            for alias in node.names]


def test_probe_imports_resolve():
    pairs = _package_imports("probe.py")
    assert pairs and _missing(pairs) == []


def test_launch_imports_resolve():
    # launch.py imports the CLI and the config loader inside main(); a
    # moved name would fail every benchmark run
    pairs = _package_imports("launch.py")
    assert ("sburgers", "cli") in pairs and _missing(pairs) == []
