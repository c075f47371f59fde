"""Smoke tests for the experiment scripts under scripts/."""

import csv
import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bound_diagnostics_output_unchanged(capsys):
    code = load_script("bound_diagnostics").main(["--max-m", "20", "--decay-n", "2", "40", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 + 20 + 1 + (2 + 40 + 60)
    # pins the CSV bytes, so reusing core_density_report changed no ratio
    digest = "871114c1590d76e6ce391f68a708ae5cbf6859443f5d24b03afcb561fd6a279a"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bound_diagnostics_rejects_decay_n_below_2():
    with pytest.raises(SystemExit) as excinfo:
        load_script("bound_diagnostics").main(["--decay-n", "1", "40"])
    assert excinfo.value.code == 2


def test_census_sweep_rows(capsys):
    code = load_script("census_sweep").main(["--p", "2", "--max-n", "4"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["n", "p", "divisible", "table_size", "ratio", "ratio_float", "seconds"]
    assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--max-n", "0"),
        ("--min-n", "5", "--max-n", "3"),
        ("--min-n", "-1", "--max-n", "2"),
        ("--p", "4", "--max-n", "2"),
        ("--jobs", "0", "--max-n", "2"),
    ],
    ids=["max-n-0", "min-above-max", "min-n-negative", "p-not-prime", "jobs-0"],
)
def test_census_sweep_rejects_bad_input(argv):
    with pytest.raises(SystemExit) as excinfo:
        load_script("census_sweep").main(list(argv))
    assert excinfo.value.code == 2
