"""Guards on how the code is laid out: the test oracles stay independent of
the package, and every binding the benchmark tracer wraps still exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_oracles_import_nothing_from_snchar():
    # an oracle that shared code with the package could not catch its faults
    tree = ast.parse((ROOT / "tests" / "_oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in imported if name.split(".")[0] in ("snchar", "")] == []


def test_tracer_hooks_resolve_on_the_package():
    # the tracer reports a per-layer metric as absent when its binding is gone
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS
    missing = [
        f"{hook.module}.{hook.attr}"
        for hook in tracer.HOOKS
        if getattr(importlib.import_module(f"snchar.{hook.module}"), hook.attr, None) is None
    ]
    assert missing == []
