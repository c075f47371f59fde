import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import inject_column_fault
from snchar import bounds
from snchar.cli import main
from snchar.partitions import Partition

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_column_csv(capsys):
    code, out, _ = run(capsys, "column", "--n", "4", "--p", "2", "--mu", "4")
    assert code == 0
    header, row = list(csv.reader(out.splitlines()))
    fields = dict(zip(header, row))
    assert fields["zero_count"] == "1"
    assert fields["proportion"] == "1/5"
    assert fields["core_floor"] == "1"
    assert fields["qualifies_threshold"] == "true"
    assert fields["regular_label"] == "1,1,1,1"


def test_column_csv_quotes_partitions(capsys):
    code, out, _ = run(capsys, "column", "--n", "4", "--p", "2", "--mu", "3,1")
    assert code == 0
    assert '"3,1"' in out


def test_column_json(capsys):
    code, out, _ = run(capsys, "column", "--n", "4", "--p", "2", "--mu", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {
            "n": 4,
            "p": 2,
            "mu": "4",
            "regular_label": "1,1,1,1",
            "zero_count": 1,
            "total": 5,
            "proportion": "1/5",
            "proportion_float": 0.2,
            "qualifies_threshold": True,
            "witness_index": 1,
            "witness_exponent": 2,
            "qualifies_few_parts": True,
            "core_floor": 1,
        }
    ]


def test_column_theorem_point_at_n_80(capsys):
    # a column costs its nonzero rows (11 520 here), not the p(80) rows
    mu = ",".join(["20"] + ["3"] * 20)
    code, out, _ = run(capsys, "column", "--n", "80", "--p", "2", "--mu", mu, "--format", "json")
    assert code == 0
    [record] = json.loads(out)
    assert record["zero_count"] == 15784956
    assert record["total"] == 15796476
    assert record["core_floor"] == 15395724
    assert record["qualifies_threshold"] is True


def test_column_invalid_inputs(capsys):
    assert run(capsys, "column", "--n", "4", "--p", "4", "--mu", "4")[0] == 2
    assert run(capsys, "column", "--n", "5", "--p", "2", "--mu", "4")[0] == 2
    assert run(capsys, "column", "--n", "4", "--p", "2", "--mu", "1,4")[0] == 2


def test_census_output(capsys):
    code, out, err = run(capsys, "census", "--n", "6", "--p", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# census n=6 p=2 divisible=")
    assert lines[1].split(",")[:4] == ["n", "p", "label", "fiber_size"]
    assert "cache: hits=0" in err


def test_census_deterministic_and_job_independent(capsys):
    runs = [
        run(capsys, "census", "--n", "10", "--p", "2")[1],
        run(capsys, "census", "--n", "10", "--p", "2")[1],
        run(capsys, "census", "--n", "10", "--p", "2", "--jobs", "2")[1],
    ]
    assert runs[0] == runs[1] == runs[2]


def test_census_cache_dir(tmp_path, capsys):
    first = run(capsys, "census", "--n", "8", "--p", "3", "--cache-dir", str(tmp_path))
    second = run(capsys, "census", "--n", "8", "--p", "3", "--cache-dir", str(tmp_path))
    assert first[1] == second[1]
    assert "misses=0" in second[2]


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--n", "4", "--p", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["record"]["divisible_count"] == 6
    assert payload["record"]["table_size"] == 25
    # two odd-part labels: 3,1 (fiber size 1) and 1,1,1,1 (fiber size 4)
    assert len(payload["columns"]) == 2
    assert sum(col["fiber_size"] for col in payload["columns"]) == 5


def test_fibers_all_labels(capsys):
    code, out, _ = run(capsys, "fibers", "--n", "6", "--p", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p,label,fiber_size,congruent"
    assert all(line.endswith("true") for line in lines[1:])
    # fiber sizes over all labels cover the 11 classes of degree 6
    assert sum(int(line.split(",")[-2]) for line in lines[1:]) == 11


def test_fibers_single_label(capsys):
    code, out, _ = run(capsys, "fibers", "--n", "3", "--p", "2",
                       "--lambda", "1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p,label,mu,fiber_size,congruent"
    assert len(lines) == 3  # two fiber members


@pytest.mark.parametrize("lam", [None, "1,1,1,1,1"], ids=["all-labels", "one-label"])
def test_fibers_exits_1_on_a_congruence_failure(monkeypatch, capsys, lam):
    inject_column_fault(monkeypatch, Partition((2, 2, 1)), modulus=None)
    argv = ["fibers", "--n", "5", "--p", "2"] + (["--lambda", lam] if lam else [])
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert [line for line in out.splitlines() if line.endswith("false")]


def test_column_rejects_a_class_int_would_read(capsys):
    # int("4_1") is 41, so --mu 4_1 once printed the column of the class (41)
    code, out, err = run(capsys, "column", "--n", "41", "--p", "2", "--mu", "4_1")
    assert (code, out) == (2, "")
    assert err == "invalid input: cannot parse partition from '4_1'\n"


def test_census_decides_a_large_prime_and_rejects_a_larger_one(capsys):
    # 2**61 - 1 took trial division minutes; 2**89 - 1 is past the bound
    # below which Miller-Rabin on the bases up to 41 is exact
    assert run(capsys, "census", "--n", "6", "--p", str(2 ** 61 - 1))[0] == 0
    code, out, err = run(capsys, "census", "--n", "6", "--p", str(2 ** 89 - 1))
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: cannot decide whether 618970019642690137449562111 is prime")


def test_fibers_rejects_irregular_label(capsys):
    assert run(capsys, "fibers", "--n", "4", "--p", "2", "--lambda", "2,2")[0] == 2


def test_theorem_check_single_label(capsys):
    code, out, _ = run(capsys, "theorem-check", "--n", "4", "--p", "2",
                       "--c", "0.4", "--lambda", "1,1,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)[0]
    assert payload["qualifies_threshold"] is True
    assert payload["witness_exponent"] == 2
    assert payload["representative"] == "4"


def test_theorem_check_rejects_a_label_of_another_size(capsys):
    # the column functions and the predicates take n from the class, so each
    # command checks --mu or --lambda against --n itself, with one message
    for argv, err in [
        (("theorem-check", "--n", "5", "--p", "2", "--c", "0.4", "--lambda", "3,3"),
         "|3,3| = 6 does not match n = 5"),
        (("column", "--n", "6", "--p", "2", "--mu", "3,2"), "|3,2| = 5 does not match n = 6"),
        (("fibers", "--n", "5", "--p", "3", "--lambda", "2,2"), "|2,2| = 4 does not match n = 5"),
        # the size is checked before p
        (("column", "--n", "5", "--p", "4", "--mu", "4"), "|4| = 4 does not match n = 5"),
    ]:
        assert run(capsys, *argv) == (2, "", f"invalid input: {err}\n"), argv


def test_column_below_its_core_floor_exits_1(monkeypatch, capsys):
    # with p(n) k-cores counted, every column falls below its floor
    from snchar import census

    monkeypatch.setattr(census, "count_k_cores", lambda n, k: census.partition_count(n))
    code, out, err = run(capsys, "column", "--n", "8", "--p", "2", "--mu", "4,2,2")
    assert (code, out) == (1, "")
    assert err.startswith("check failed: zero count 14 fell below core floor 22 ")


def test_theorem_check_survey(capsys):
    code, out, _ = run(capsys, "theorem-check", "--n", "12", "--p", "2", "--c", "0.4")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) > 1
    zero_idx = rows[0].index("zero_count")
    floor_idx = rows[0].index("core_floor")
    for row in rows[1:]:
        assert int(row[zero_idx]) >= int(row[floor_idx])


def test_theorem_check_empty_survey(capsys):
    # no label of 3 qualifies at c = 5: CSV prints nothing, JSON an empty list
    argv = ("theorem-check", "--n", "3", "--p", "2", "--c", "5")
    assert run(capsys, *argv) == (0, "", "")
    assert run(capsys, *argv, "--format", "json") == (0, "[]\n", "")


def test_theorem_check_rejects_small_c(capsys):
    assert run(capsys, "theorem-check", "--n", "10", "--p", "2", "--c", "0.3")[0] == 2


def test_verify_bounds_growth_grid(capsys):
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "1",
                       "--max-k", "4", "--max-m", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,k,m,lhs,rhs,relation,holds,slack,slack_float"
    assert len(lines) == 1 + 4 * 6
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "1", "--max-m", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 10 * 2  # --max-k defaults to 10


def test_verify_bounds_deficit_and_fiber(capsys):
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "2", "--max-n", "12")
    assert code == 0
    assert "core-deficit" in out
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "fiber", "--max-n", "12")
    assert code == 0
    assert "fiber-identity" in out


def test_verify_bounds_core_density(capsys):
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "3", "--max-n", "10",
                       "--c", "0.4")
    assert code == 0
    assert "k_meets_threshold" in out.splitlines()[0]


def test_boundary_c_agrees_between_verify_bounds_and_theorem_check(capsys):
    # threshold(9, c) is 3 up to float rounding: part 3 of the label qualifies,
    # and lemma 3 says k = 3 meets the same threshold
    c = "0.4551196133134187"
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "3", "--max-n", "9",
                       "--max-k", "3", "--c", c)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [row["k_meets_threshold"] for row in rows if row["n"] == "9" and row["k"] == "3"] == ["true"]
    code, out, _ = run(capsys, "theorem-check", "--n", "9", "--p", "2", "--c", c,
                       "--lambda", "3,1,1,1,1,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)[0]
    assert (payload["qualifies_threshold"], payload["witness_index"]) == (True, 1)


def test_verify_bounds_core_density_exact_beyond_sixty(capsys):
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "3", "--max-n", "70")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == sum(range(2, 71))
    assert {row["holds"] for row in rows} == {"true"}
    assert all(row["lhs"] for row in rows)


def test_verify_bounds_hr(capsys):
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "hr", "--max-m", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,count,ratio"
    assert lines[1].startswith("1,1,0.0769115160333")


def test_verify_core_vanish(capsys):
    code, out, _ = run(capsys, "verify-core-vanish", "--max-n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,core_count,class_count,pairs_checked,violations,ok"
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_core_vanish_exits_1_on_a_violation(monkeypatch, capsys):
    inject_column_fault(monkeypatch, Partition((4, 1, 1)), mu=Partition((1,) * 6))
    code, out, _ = run(capsys, "verify-core-vanish", "--max-n", "6")
    assert code == 1
    assert [line for line in out.splitlines() if line.endswith("false")] == ["6,4,3,2,6,3,false"]


def test_verify_bounds_json(capsys):
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "2", "--max-n", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["check"] == "core-deficit"
    assert all(row["holds"] is True for row in payload)
    assert all("/" in row["slack"] for row in payload if row["slack"] is not None)


def test_verify_bounds_exits_1_when_a_bound_fails(monkeypatch, capsys):
    # one multipartition too many breaks the fiber identity on every (n, k):
    # each right side has the term m = n // k, whose core count
    # c_k(n mod k) = p(n mod k) is at least 1.  The sweep still prints every row.
    real = bounds.multipartition_count
    monkeypatch.setattr(bounds, "multipartition_count", lambda k, m: real(k, m) + 1)
    code, out, _ = run(capsys, "verify-bounds", "--lemma", "fiber", "--max-n", "6")
    assert code == 1
    rows = list(csv.DictReader(out.splitlines()))
    assert [(row["n"], row["k"]) for row in rows] == [
        (str(n), str(k)) for n in range(1, 7) for k in range(1, n + 1)]
    assert {row["holds"] for row in rows} == {"false"}


def test_corrupt_cache_store_exits_2(tmp_path, capsys):
    assert run(capsys, "census", "--n", "6", "--p", "2",
               "--cache-dir", str(tmp_path))[0] == 0
    victim = next(tmp_path.iterdir())
    victim.write_text(victim.read_text().replace("checksum=", "checksum=ff", 1))
    code, _, err = run(capsys, "census", "--n", "6", "--p", "2",
                       "--cache-dir", str(tmp_path))
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("target", ["file", "file/x"], ids=["a-file", "below-a-file"])
def test_census_cache_dir_that_cannot_be_a_directory_exits_2(tmp_path, capsys, target):
    (tmp_path / "file").write_text("not a directory\n")
    code, out, err = run(capsys, "census", "--n", "6", "--p", "2",
                         "--cache-dir", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: ")


def test_census_store_path_that_is_a_directory_exits_2(tmp_path, capsys):
    (tmp_path / "census_n6_p2.txt").mkdir()
    code, out, err = run(capsys, "census", "--n", "6", "--p", "2",
                         "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: ")


def test_census_store_file_with_a_non_ascii_byte_exits_2(tmp_path, capsys):
    assert run(capsys, "census", "--n", "6", "--p", "2", "--cache-dir", str(tmp_path))[0] == 0
    path = tmp_path / "census_n6_p2.txt"
    path.write_bytes(path.read_bytes().replace(b"p=2", b"p=\xff", 1))
    code, out, err = run(capsys, "census", "--n", "6", "--p", "2", "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"invalid input: cannot read {path}: ")


def _bare_python(code: str) -> subprocess.CompletedProcess:
    # a fresh interpreter without site-packages that imports snchar from src/
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=True)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_quietly(tmp_path, unbuffered):
    # about 240 kB, far more than a pipe holds, so the command is still
    # writing when the reader goes after the first line
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "snchar.cli", "verify-bounds", "--lemma", "fiber", "--max-n", "100"]
    with open(tmp_path / "stderr", "wb") as err, \
            subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env) as proc:
        assert proc.stdout.readline() == b"check,n,k,lhs,rhs,relation,holds,slack,slack_float\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
    assert (tmp_path / "stderr").read_bytes() == b""


def test_cli_import_loads_no_pool_store_or_dataclass_modules(tmp_path):
    # each costs every process start-up time: none loads at import, and no
    # census loads a pool or hashlib, serial, with forked --jobs workers (two
    # CPUs are claimed, so it forks) or with a store (checksummed by zlib)
    heavy = ("concurrent.futures", "multiprocessing", "hashlib", "dataclasses")
    result = _bare_python(f"import sys, snchar.cli; print([m for m in {heavy!r} if m in sys.modules])")
    assert result.stdout == "[]\n"
    runs = [
        _bare_python(
            "import os, sys, snchar.cli; os.cpu_count = lambda: 2; "
            f"snchar.cli.main(['census', '--n', '6', '--p', '2', *{extra!r}]); "
            f"print([m for m in {heavy[:3]!r} if m in sys.modules], file=sys.stderr)"
        )
        for extra in ([], ["--jobs", "2"], ["--cache-dir", str(tmp_path)])
    ]
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert [run.stderr.rsplit("\n", 2)[-2] for run in runs] == ["[]"] * 3
    assert any(tmp_path.iterdir())


def test_commands_load_only_the_modules_they_run():
    # snchar re-exports nothing, so the command line loads a module only when
    # a command runs it: bound sweeps never load the census kernel, a census
    # never loads the bound checkers, and json loads only for --format json
    watched = ("snchar.census", "snchar.characters", "snchar.bounds", "json")
    probe = f"print(sorted(m for m in {watched!r} if m in sys.modules), file=sys.stderr)"
    sweeps = [["--lemma", "1"], ["--lemma", "hr"]]
    sweeps += [["--lemma", lemma, "--max-n", "8"] for lemma in ("2", "fiber", "3")]
    runs = {
        "import": [],
        "verify-bounds": [["verify-bounds", *argv] for argv in sweeps],
        "census": [["census", "--n", "6", "--p", "2"]],
    }
    loaded = {}
    for name, argvs in runs.items():
        calls = "".join(f"snchar.cli.main({argv!r}); " for argv in argvs)
        result = _bare_python(f"import sys, snchar, snchar.cli; {calls}{probe}")
        loaded[name] = result.stderr.splitlines()[-1]
    assert loaded == {
        "import": "[]",
        "verify-bounds": "['snchar.bounds']",
        "census": "['snchar.census', 'snchar.characters']",
    }


# stdout digests taken from the code before the k-core series were kept per
# k; the sweeps at n = 200 are where those series do most of their work.  The
# hr digests come from the code before its rows were the reports' own fields,
# the lemma 1 digests from the code that powered the partition series by
# squaring instead of the divisor-sum recurrence, and the JSON lemma 2 and 3
# digests from the code that built each row from a report object.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--lemma", "2", "--max-n", "200"),
         "35804313342a14aab425eac6faa4a7f1a3e8f9f04a5d35dcdbcfe4c413169d05"),
        (("--lemma", "fiber", "--max-n", "200"),
         "89028915d21f40d61224c279a3578cabc5c0b94e69a434bd90213368f44399ff"),
        (("--lemma", "3", "--max-n", "200", "--c", "0.4"),
         "515bf6b769fc53ffaa846faa54aee5cfe371234b33edccce355274ff1a424758"),
        (("--lemma", "fiber", "--max-n", "60", "--format", "json"),
         "77e436fc0d91a27a2f2afeab3f20e9abc0d72c336d8cd165f2e246370a6baf47"),
        (("--lemma", "hr", "--max-m", "40"),
         "d57a62f6a13b5691582b078b6fddd7c92b0b6e0a3807790fd2ac20a14852cda1"),
        (("--lemma", "hr", "--max-m", "40", "--format", "json"),
         "afcc4987800b12e045e1a4ad2696d2c9baa1f6d23cc91e4ee48cb83e88192241"),
        (("--lemma", "1", "--max-k", "40", "--max-m", "60"),
         "43170401d73b9feb177d72e473ecf6ad3757a04fc76605a909f3e29355a43fb9"),
        (("--lemma", "1", "--max-k", "12", "--max-m", "120", "--format", "json"),
         "15bb006ff3b2b006472caf3a8560036480751b7956c67f6311d2bf00330346ae"),
        (("--lemma", "2", "--max-n", "60", "--format", "json"),
         "ba6fe07104b64f23cd0945b14e80ac5de36829e261845dc40a273743233ab767"),
        (("--lemma", "3", "--max-n", "60", "--c", "0.4", "--format", "json"),
         "8d4be5f7f5bea72b93ca89d4b222f22600028098f7f81dd645b790fb936912f6"),
    ],
    ids=["lemma2-200", "fiber-200", "lemma3-200", "fiber-60-json", "hr-40", "hr-40-json",
         "lemma1-40-60", "lemma1-12-120-json", "lemma2-60-json", "lemma3-60-json"],
)
def test_verify_bounds_sweep_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "verify-bounds", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout digests taken from the code that decoded every row of each column
# before checking it; the checks now read the kernel's bead masks.  The
# fibers --lambda JSON digest comes from the code that built its rows apart.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("verify-core-vanish", "--max-n", "14"),
         "e779f25008368a86e5e2b35dfd8fc638a6252617bf4e6e1738c5092b53c6a9f7"),
        (("verify-core-vanish", "--max-n", "10", "--format", "json"),
         "6ffd8bb8908bc2e234a11f06bac2bf524164c9e167bf686e62530971b56484e8"),
        (("fibers", "--n", "14", "--p", "2"),
         "235b726eead7d0714e8a37c7c559096b4644a8042c26eedfc68a74e5cbedbb15"),
        (("fibers", "--n", "12", "--p", "3", "--format", "json"),
         "46933679247da24286ee046f52746de96c0a2c727df989755d4bd0a987917972"),
        (("fibers", "--n", "12", "--p", "2", "--lambda", "3,3,1,1,1,1,1,1"),
         "624a398fc0f631d326fd671854f36277ef11baa74b3e87bd2b5f5ba31f125031"),
        (("fibers", "--n", "12", "--p", "2", "--lambda", "3,3,1,1,1,1,1,1", "--format", "json"),
         "5d545582d99e83673721ac5a4992d9a680fec3f379aabdfb919523d029c1a3ab"),
    ],
    ids=["core-vanish-14", "core-vanish-10-json", "fibers-14-2", "fibers-12-3-json",
         "fibers-12-2-label", "fibers-12-2-label-json"],
)
def test_check_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout digests taken from the code before the threshold predicates shared
# one threshold test, and the census JSON one from the code before it went
# through _emit; the JSON column and theorem-check digests from the code that
# built each row from a record with a nested witness.  A census point gives the
# same bytes at --jobs 1 and 2
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("census", "--n", "30", "--p", "2"),
         "a993d15384ca55360c9a29b27c67f968367677742d2a6ac06418f71c161a5ed4"),
        (("census", "--n", "28", "--p", "3"),
         "e8603f9a9c7a1a6ceac7ff3890ceeba788515300b32b9697817cc51c397d8060"),
        (("census", "--n", "24", "--p", "5"),
         "78e0c5d46c53e7b5523c88e2195593cb13bf642e58a32abbb6dae6381c6424f3"),
        (("census", "--n", "22", "--p", "7"),
         "30f38de85569a369822458db36f7e100bc12bef45011768ff58eedb0c9334392"),
        (("census", "--n", "12", "--p", "3", "--format", "json"),
         "919aec88306256830bc9d3689c6ab93ed204230ff599344fbcdeab9b09531ebc"),
        (("theorem-check", "--n", "30", "--p", "2", "--c", "0.4"),
         "5b464f03b467addad22468f4f11c1bd806895e61e053820cb0f787d0113ac757"),
        (("theorem-check", "--n", "26", "--p", "3", "--c", "1.0"),
         "bbc4dafc8ff0255631b59814a973ad4252f009d71a4b0cf0d1165d7e1742f9fd"),
        (("theorem-check", "--n", "9", "--p", "2", "--c", "0.4551196133134187"),
         "0df618b0bbfc2a18e398ba272668f19765112345e332787d4c16c2751be33a85"),
        (("column", "--n", "9", "--p", "2", "--mu", "3,1,1,1,1,1,1",
          "--c", "0.4551196133134187"),
         "7eed5d08f748fd2f2b93a4a8d6f83f6e6cca2b43c924083a1886c22ca81b3831"),
        (("theorem-check", "--n", "30", "--p", "2", "--c", "0.4", "--format", "json"),
         "06436952b60d50f56772a5308b4b558bb99d1aa26fdd30ffe42a667e81039dd9"),
        (("column", "--n", "9", "--p", "2", "--mu", "3,1,1,1,1,1,1",
          "--c", "0.4551196133134187", "--format", "json"),
         "7de11dea2ecac4e6b8937c286b13415ff804ab6cedd5a0ee7d5e9e6834ca53df"),
    ],
    ids=["census-30-2", "census-28-3", "census-24-5", "census-22-7", "census-12-3-json",
         "theorem-30-2", "theorem-26-3", "theorem-9-2-boundary", "column-9-2-boundary",
         "theorem-30-2-json", "column-9-2-boundary-json"],
)
def test_census_and_theorem_check_bytes_pinned(capsys, argv, digest):
    for jobs in (("--jobs", "1"), ("--jobs", "2")) if argv[0] == "census" else ((),):
        code, out, _ = run(capsys, *argv, *jobs)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, jobs


@pytest.mark.parametrize(
    "argv",
    [
        ("theorem-check", "--n", "12", "--p", "2", "--c", "inf"),
        ("theorem-check", "--n", "12", "--p", "2", "--c", "inf", "--lambda", "11,1"),
        ("verify-bounds", "--lemma", "3", "--max-n", "6", "--c", "inf"),
        ("column", "--n", "6", "--p", "2", "--mu", "3,3", "--c", "inf"),
        ("column", "--n", "1", "--p", "2", "--mu", "1", "--c", "inf"),
    ],
    ids=["theorem-check", "theorem-check-lambda", "verify-bounds", "column", "column-n1"],
)
def test_infinite_c_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_unknown_subcommand_exits_2():
    for argv in (["frobnicate"], ["verify-cores", "--max-n", "3"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv


@pytest.mark.parametrize(
    "argv",
    [
        ("column", "--n", "4", "--p", "2", "--mu", "4", "--jobs", "4"),
        ("theorem-check", "--n", "12", "--p", "2", "--c", "0.4", "--cache-dir", "x"),
        ("census", "--n", "6", "--p", "2", "--seed", "1"),
    ],
    ids=["column-jobs", "theorem-check-cache-dir", "census-seed"],
)
def test_flag_of_another_subcommand_exits_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-bounds", "--lemma", "fiber", "--max-n", "-4"),
        ("verify-bounds", "--lemma", "2", "--max-n", "5", "--max-k", "-3"),
        ("verify-bounds", "--lemma", "1", "--max-k", "3", "--max-m", "-1"),
        ("verify-core-vanish", "--max-n", "-1"),
        ("verify-bounds", "--lemma", "3", "--max-n", "1"),
    ],
    ids=["fiber-max-n", "lemma2-max-k", "lemma1-max-m", "core-vanish-max-n", "lemma3-max-n-1"],
)
def test_empty_sweep_bounds_exit_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("--lemma", "hr", "--max-m", "2", "--max-n", "5", "--max-k", "7", "--c", "9"),
        ("--lemma", "1", "--max-n", "5"),
        ("--lemma", "1", "--max-k", "0"),
        ("--lemma", "2", "--max-m", "3"),
        ("--lemma", "fiber", "--c", "0.4"),
        ("--lemma", "3", "--max-m", "3"),
        ("--lemma", "hr", "--max-k", "3"),
    ],
    ids=["hr-all", "lemma1-max-n", "lemma1-max-k-0", "lemma2-max-m", "fiber-c",
         "lemma3-max-m", "hr-max-k"],
)
def test_verify_bounds_flag_its_lemma_does_not_read_exits_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-bounds", *argv])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--lemma", "3", "--max-n", "1"), "--lemma 3 needs --max-n of at least 2"),
        (("--lemma", "2", "--max-m", "3"), "--lemma 2 does not read --max-m"),
    ],
    ids=["lemma3-max-n-1", "lemma2-max-m"],
)
def test_verify_bounds_lemma_errors_show_its_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-bounds", *argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: snchar verify-bounds ")
    assert err.endswith(f"snchar verify-bounds: error: {message}\n")
