"""The names the benchmark reaches inside sburgers.

perfbench/tracing.py patches the functions of its SPANS and HOT tables by
module and name, and perfbench/probe.py imports from the package.  A name
deleted from sburgers would break a traced benchmark run or the probe
without failing any other test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    # tracing.py imports nothing from sburgers, so loading it patches nothing
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _missing(pairs) -> list:
    out = []
    for module, name in pairs:
        mod = importlib.import_module(module)
        if not callable(getattr(mod, name, None)):
            out.append(f"{module}.{name}")
    return out


def test_traced_names_resolve():
    tracing = _load_tracing()
    pairs = [(f"sburgers.{m}", f) for m, names in tracing.SPANS.items()
             for f in names]
    pairs += [(f"sburgers.{m}", f) for targets in tracing.HOT.values()
              for m, f, _ in targets]
    assert pairs and _missing(pairs) == []


def test_probe_imports_resolve():
    tree = ast.parse((PERFBENCH / "probe.py").read_text())
    pairs = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "sburgers"
             for alias in node.names]
    assert pairs and _missing(pairs) == []
