"""Smoke tests for the experiment scripts under scripts/."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_census_sweep_rejects_a_prime_too_large_to_decide(capsys):
    with pytest.raises(SystemExit) as excinfo:
        load_script("census_sweep").main(["--p", str(2 ** 89 - 1), "--max-n", "2"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "cannot decide whether 618970019642690137449562111 is prime" in err
    assert "Traceback" not in err


def test_census_sweep_rejects_store_it_cannot_use(tmp_path, capsys):
    # a regular file where the store directory should be: exit 2 before the
    # CSV header, as `snchar census` does on the same store
    cache = tmp_path / "store"
    cache.write_text("")
    code = load_script("census_sweep").main(["--max-n", "3", "--cache-dir", str(cache)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: cannot use ") and "Traceback" not in err


def test_census_sweep_rejects_output_path_it_cannot_use(tmp_path, capsys):
    out_path = tmp_path / "missing" / "census.csv"
    code = load_script("census_sweep").main(["--max-n", "3", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: ") and str(out_path) in err
    assert not out_path.parent.exists()
