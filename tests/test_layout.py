"""Guards on how the code is laid out: the test oracles stay independent of
the package, every binding the benchmark tracer wraps still exists, every
public name has a use outside the tests, and the README's flag table matches
the parser."""

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


def test_every_exported_name_has_a_non_test_use():
    # a public name that only the tests read is API kept alive for the tests
    init = ast.parse((ROOT / "src" / "snchar" / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = [path for path in (ROOT / "src" / "snchar").glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert exported
    assert sorted(exported - used) == []


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
