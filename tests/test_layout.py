"""Guards on how the code is laid out: the test oracles stay independent of
the package, every binding the benchmark tracer wraps still exists, and the
README's flag table matches the parser.  That each command loads only the
modules it runs is checked in test_cli."""

import argparse
import ast
import importlib
import importlib.util
import re
from pathlib import Path

from snchar.cli import build_parser

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


def test_readme_flag_table_matches_the_parser():
    # each row of the "subcommand | its own flags" table lists exactly the
    # options its subparser takes, --help and the shared --format aside
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| subcommand | its own flags |"):].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines()[2:]:
        name, flags = re.fullmatch(r"\| `([\w-]+)` \| (.*) \|", line).groups()
        documented[name] = set(re.findall(r"`(--[\w-]+)`", flags))
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")}
        - {"--help", "--format"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == parsed
