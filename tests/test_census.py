import hashlib
import os
import re
import zlib
from collections import Counter
from fractions import Fraction

import pytest

from _oracles import dimension, mn_character, naive_is_core, square_root_count
from conftest import dense, inject_column_fault, partitions_of
from snchar import census, characters
from snchar.census import (
    CACHE_VERSION,
    ColumnCacheError,
    ColumnStore,
    check_core_vanishing,
    check_fiber_congruence,
    column_divisibility,
    table_census,
    threshold_experiment,
)
from snchar.characters import compute_column, zero_counts
from snchar.cores import count_k_cores
from snchar.padic import digit_representative, fiber_partitions, fiber_size, p_regular_partitions
from snchar.cli import main
from snchar.partitions import Partition, partition_count


def P(*parts):
    return Partition(parts)


def test_column_record_s4_four_cycle():
    rec = column_divisibility(P(4), 2)
    assert rec.zero_count == 1
    assert rec.total == 5
    assert rec.proportion == Fraction(1, 5)
    assert rec.proportion_float == 0.2
    assert rec.regular_label == (1, 1, 1, 1)
    # digit representative of 1^4 at p=2 is (4); c_4(4) counts (2,2) only
    assert rec.core_floor == count_k_cores(4, 4) == 1
    assert rec.qualifies_threshold is True
    assert (rec.witness_index, rec.witness_exponent) == (1, 2)


def test_column_record_identity_class():
    rec = column_divisibility(P(1, 1, 1, 1), 2)
    # dimensions 1,3,2,3,1: exactly one even entry
    assert rec.zero_count == 1
    assert rec.proportion == Fraction(1, 5)


def test_column_validation():
    with pytest.raises(ValueError):
        column_divisibility(P(4), 4)


def test_column_record_checks_its_core_floor(monkeypatch):
    # with p(n) k-cores counted, every record falls below its floor: the one
    # record constructor raises for column_divisibility and the survey alike
    monkeypatch.setattr(census, "count_k_cores", lambda n, k: partition_count(n))
    with pytest.raises(RuntimeError, match=r"zero count 14 fell below core floor 22 on label 1,1,"):
        column_divisibility(P(4, 2, 2), 2)
    with pytest.raises(RuntimeError, match="fell below core floor"):
        threshold_experiment(8, 2, 0.4)


def test_column_small_n_has_no_threshold_fields():
    rec = column_divisibility(P(1), 2)
    assert rec.qualifies_threshold is None
    assert rec.witness_index is None and rec.witness_exponent is None
    assert rec.qualifies_few_parts is None
    assert rec.zero_count == 0


def test_core_floor_invariant():
    for n in range(1, 13):
        for p in (2, 3):
            for lam in p_regular_partitions(n, p):
                rep = digit_representative(lam, p)
                rec = column_divisibility(rep, p, c=0.4)
                assert rec.zero_count >= rec.core_floor


def test_fiber_congruence_singleton_vacuous():
    assert check_fiber_congruence(P(5), 2) is None
    assert fiber_size(P(5), 2) == 1


def test_fiber_congruence_s3():
    assert fiber_size(P(1, 1, 1), 2) == 2
    assert check_fiber_congruence(P(1, 1, 1), 2) is None
    col_a = dense(compute_column(P(1, 1, 1), 2), 3)
    col_b = dense(compute_column(P(2, 1), 2), 3)
    assert col_a == col_b == (1, 0, 1)


def test_fiber_congruence_exhaustive_small():
    for n in range(1, 11):
        for p in (2, 3):
            for lam in p_regular_partitions(n, p):
                assert check_fiber_congruence(lam, p) is None


@pytest.mark.parametrize("n", [5, 6])
def test_fiber_congruence_reports_first_differing_row(monkeypatch, n):
    # the second member of the fiber of 1^n at p = 2 comes back exact, not
    # reduced: its column differs in one row at n = 5 (chi^(3,1,1) = -2 on
    # (2,2,1)) and in four at n = 6; the first in enumeration order is named
    lam = P(*[1] * n)
    reference_mu, mu = list(fiber_partitions(lam, 2))[:2]
    inject_column_fault(monkeypatch, mu, modulus=None)
    alpha = next(
        a for a in partitions_of(n) if mn_character(a, reference_mu, 2) != mn_character(a, mu)
    )
    assert check_fiber_congruence(lam, 2) == (reference_mu, mu, alpha)


def test_fiber_congruence_validation():
    with pytest.raises(ValueError):
        check_fiber_congruence(P(2, 2), 2)


def test_core_vanishing_k1_vacuous():
    for n in (1, 4, 7):
        report = check_core_vanishing(n, 1)
        assert report.core_count == 0
        assert report.pairs_checked == 0
        assert report.ok


def test_core_vanishing_example():
    report = check_core_vanishing(5, 3)
    assert report.ok
    assert report.core_count == 1  # the 3-core (3,1,1)
    assert report.class_count == 2  # (3,2) and (3,1,1)


def test_core_vanishing_sweep_small():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert check_core_vanishing(n, k).ok


def test_core_vanishing_lists_nonzero_core_rows(monkeypatch):
    # the class (4,1,1) gets the identity column, so each 4-core of 6 shows
    # its dimension there; violations keep enumeration order
    inject_column_fault(monkeypatch, P(4, 1, 1), mu=P(1, 1, 1, 1, 1, 1))
    report = check_core_vanishing(6, 4)
    assert not report.ok
    assert report.violations == tuple(
        (alpha, P(4, 1, 1), dimension(alpha))
        for alpha in partitions_of(6)
        if alpha in (P(4, 1, 1), P(3, 2, 1), P(3, 1, 1, 1))
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_core_vanishing_probe_flags_exactly_the_k_cores(monkeypatch, n):
    # every class's column comes back as every row with value 1, so each
    # report lists exactly the rows the one-shift probe takes for k-cores
    rows = dict.fromkeys(characters._row_masks(n), 1)
    monkeypatch.setattr(census, "_forward_column", lambda parts, modulus: rows)
    for k in range(1, n + 1):
        cores = [alpha for alpha in partitions_of(n) if naive_is_core(alpha, k)]
        classes = [mu for mu in partitions_of(n) if mu[0] == k]
        report = check_core_vanishing(n, k)
        assert report.violations == tuple((alpha, mu, 1) for mu in classes for alpha in cores)
        assert report.core_count == len(cores)


def test_core_vanishing_sees_a_wrong_leg_sign(monkeypatch):
    # with every move counted +, the k-core rows no longer cancel; a check
    # that added the largest part k last would never reach them
    real = characters._hooks
    monkeypatch.setattr(characters, "_hooks", lambda mask, t: (sum(real(mask, t), []), []))
    assert any(not check_core_vanishing(n, k).ok for n in range(1, 9) for k in range(1, n + 1))


def test_core_vanishing_validation():
    with pytest.raises(ValueError):
        check_core_vanishing(4, 5)
    with pytest.raises(ValueError):
        check_core_vanishing(4, 0)


def test_census_degenerate_sizes():
    assert table_census(0, 2).record.divisible_count == 0
    record = table_census(1, 3).record
    assert record.divisible_count == 0
    assert record.table_size == 1
    assert record.ratio == 0


def test_census_s4():
    result = table_census(4, 2)
    assert result.record.divisible_count == 6
    assert result.record.table_size == 25
    assert result.record.ratio == Fraction(6, 25)
    assert result.record.ratio_float == 0.24
    assert [col.label for col in result.columns] == list(p_regular_partitions(4, 2))


def test_census_matches_direct_per_class_count():
    # no fiber shortcut: reduce every class column separately
    for n in range(11):
        for p in (2, 3):
            direct = 0
            for mu in partitions_of(n):
                direct += dense(compute_column(mu, p), n).count(0)
            assert table_census(n, p).record.divisible_count == direct


def test_census_zero_counts_match_backward_recursion():
    # the census walks a trie with compute_column's step; the backward
    # recursion shares no code with it
    for n in range(13):
        for p in (2, 3, 5):
            for col in table_census(n, p).columns:
                zeros = sum(mn_character(alpha, col.label, p) == 0 for alpha in partitions_of(n))
                assert col.zero_count == zeros, (n, p, col.label)


def test_census_representative_walk_matches_label_walk():
    # the census walks the labels' digit representatives and relies on fiber
    # congruence; walking the labels themselves must give the same counts
    for n in range(21):
        for p in (2, 3, 5):
            columns = table_census(n, p).columns
            labels = [col.label for col in columns]
            assert tuple(col.zero_count for col in columns) == zero_counts(labels, p), (n, p)


def test_census_parallel_matches_serial():
    serial = table_census(12, 2, jobs=1)
    parallel = table_census(12, 2, jobs=2)
    assert serial == parallel


def test_census_validation():
    with pytest.raises(ValueError):
        table_census(4, 6)
    with pytest.raises(ValueError):
        table_census(-1, 2)
    with pytest.raises(ValueError):
        table_census(4, 2, jobs=0)


def _rechecksum(path, body):
    # rewrite a store file with the given body and a checksum that fits it:
    # CRC-32 then Adler-32 of the body, 8 hex digits each
    data = body.encode("ascii")
    path.write_text(f"{body}\nchecksum={zlib.crc32(data):08x}{zlib.adler32(data):08x}\n")


def test_cache_round_trip(tmp_path):
    zeros = tuple(col.zero_count for col in table_census(6, 2).columns)
    path = ColumnStore(tmp_path).save(6, 2, zeros)
    assert path == ColumnStore(tmp_path).path_for(6, 2)
    assert ColumnStore(tmp_path).load(6, 2) == zeros


def test_cache_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ColumnStore(tmp_path).load(4, 2)


def test_cache_detects_tampering(tmp_path):
    store = ColumnStore(tmp_path)
    path = store.save(4, 2, (1, 2))
    text = path.read_text()
    path.write_text(text.replace("values=1,2", "values=0,2", 1))
    with pytest.raises(ColumnCacheError, match="failed its checksum"):
        store.load(4, 2)
    path.write_text(text.replace("n=4\n", "", 1))
    with pytest.raises(ColumnCacheError, match="failed its checksum"):
        store.load(4, 2)
    _rechecksum(path, text.replace("n=4\n", "", 1).rpartition("\nchecksum=")[0])
    with pytest.raises(ColumnCacheError, match="not a census file"):
        store.load(4, 2)


def test_cache_rejects_unknown_version(tmp_path):
    store = ColumnStore(tmp_path)
    path = store.save(4, 2, (1, 2))
    text = path.read_text()
    path.write_text(text.replace(f"census {CACHE_VERSION}", f"census {CACHE_VERSION + 1}", 1))
    with pytest.raises(ColumnCacheError, match="unsupported header"):
        store.load(4, 2)


def test_census_rejects_version_2_store_file(tmp_path, capsys):
    # version 2 checksummed with SHA-256; it is an unknown version now
    body = "snchar-census 2\nn=4\np=2\nlabels=3,1;1,1,1,1\nvalues=1,1"
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()[:16]
    ColumnStore(tmp_path).path_for(4, 2).write_text(f"{body}\nchecksum={digest}\n")
    assert main(["census", "--n", "4", "--p", "2", "--cache-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unsupported header 'snchar-census 2'" in captured.err


@pytest.mark.parametrize(
    "counts, problem",
    [((1,), "counts for"), ((1, 2, 0), "counts for"), ((1, 6), "outside"), ((1, -1), "outside")],
    ids=["short", "long", "above-pn", "negative"],
)
def test_cache_rejects_checksummed_bad_values(tmp_path, counts, problem):
    # the file passes its own checksum; its length or range gives it away
    # (n = 4, p = 2 has the labels (3,1) and (1,1,1,1), and p(4) = 5)
    store = ColumnStore(tmp_path)
    store.save(4, 2, counts)
    with pytest.raises(ColumnCacheError, match=problem):
        store.load(4, 2)


def test_census_cache_rejects_swapped_file(tmp_path):
    # a valid, checksummed census filed under another key
    first = table_census(6, 2, cache_dir=tmp_path)
    assert first.record.divisible_count == 44
    store = ColumnStore(tmp_path)
    store.path_for(6, 3).write_bytes(store.path_for(6, 2).read_bytes())
    with pytest.raises(ColumnCacheError, match="holds n=6 p=2"):
        table_census(6, 3, cache_dir=tmp_path)
    # the right key, checksummed, but a wrong label line
    body = store.path_for(6, 2).read_text().rpartition("\nchecksum=")[0]
    _rechecksum(store.path_for(6, 2), body.replace("labels=5,1;", "labels=4,2;", 1))
    with pytest.raises(ColumnCacheError, match="regular partitions"):
        table_census(6, 2, cache_dir=tmp_path)


def test_census_ignores_version_1_column_files(tmp_path):
    (tmp_path / "col_n6_mod2_mu5-1.txt").write_text(
        "snchar-column 1\nn=6\nmu=5,1\nmodulus=2\nvalues=1,1,0,0,1,1,0,1,1,1,1\n"
        "checksum=0123456789abcdef\n"
    )
    result = table_census(6, 2, cache_dir=tmp_path)
    assert (result.cache_hits, result.cache_misses) == (0, len(result.columns))
    assert result.record == table_census(6, 2).record


def test_census_jobs_clamped_to_pending_and_cpus(monkeypatch):
    # never fork: a stand-in runs the shares serially and records how many
    sizes = []

    def serial(task, shares):
        sizes.append(len(shares))
        return [task(share) for share in shares]

    monkeypatch.setattr(census, "_in_forks", serial)
    serial_result = table_census(6, 2)
    # a unit is the group of digit representatives that share their largest
    # part; the odd-part labels of 6 give (5,1), (6), (3,2,1) and (4,2), so
    # 4 groups
    representatives = [digit_representative(col.label, 2) for col in serial_result.columns]
    assert representatives == [P(5, 1), P(6), P(3, 2, 1), P(4, 2)]
    groups = len({rep[0] for rep in representatives})
    assert groups == 4
    for cpus, jobs, expected in ((64, 64, [groups]), (2, 64, [2]), (64, 2, [2]), (1, 64, [])):
        sizes.clear()
        monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
        assert table_census(6, 2, jobs=jobs) == serial_result
        assert sizes == expected
    # without os.fork, --jobs runs the serial path
    monkeypatch.delattr(census.os, "fork", raising=False)
    sizes.clear()
    assert table_census(6, 2, jobs=64) == serial_result
    assert sizes == []


def test_census_shares_balanced_by_cost(monkeypatch):
    # a group of representatives with largest part t costs p(n - t) each;
    # groups are never split, and dealing the heaviest first to the lightest
    # share leaves the shares within one group's cost of each other
    shares_seen = []

    def serial(task, shares):
        shares_seen.extend(shares)
        return [task(share) for share in shares]

    monkeypatch.setattr(census, "_in_forks", serial)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
    result = table_census(14, 3, jobs=3)
    assert result == table_census(14, 3)
    representatives = [digit_representative(col.label, 3) for col in result.columns]
    assert sorted(rep for share in shares_seen for rep in share) == sorted(representatives)
    tops = [{rep[0] for rep in share} for share in shares_seen]
    assert len(tops) == 3 and sum(map(len, tops)) == len(set().union(*tops))
    group_costs = Counter()
    for rep in representatives:
        group_costs[rep[0]] += partition_count(14 - rep[0])
    loads = sorted(sum(partition_count(14 - rep[0]) for rep in share) for share in shares_seen)
    assert loads[-1] - loads[0] <= max(group_costs.values())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize(
    "in_worker, message",
    [(True, r"check failed: census worker \d+ failed"), (False, "check failed: injected fault")],
    ids=["worker", "census-process"],
)
def test_census_worker_failure_fails_the_census(monkeypatch, capsys, in_worker, message):
    # a forked worker that raises, or the census process's own share, makes
    # the census exit 1 with a message, and every worker is reaped
    census_pid = os.getpid()
    real = census.zero_counts

    def faulty(labels, p):
        if (os.getpid() != census_pid) == in_worker:
            raise RuntimeError("injected fault")
        return real(labels, p)

    monkeypatch.setattr(census, "zero_counts", faulty)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    code = main(["census", "--n", "12", "--p", "2", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.match(message, captured.err)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_census_checks_macdonalds_count(monkeypatch, capsys, jobs):
    # one zero too many on the label 1^n breaks Macdonald's count of the
    # degrees prime to p, whichever process computed it
    real = census.zero_counts
    ones = digit_representative(P(*[1] * 12), 2)

    def off_by_one(labels, p):
        return tuple(z + (rep == ones) for rep, z in zip(labels, real(labels, p)))

    monkeypatch.setattr(census, "zero_counts", off_by_one)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    code = main(["census", "--n", "12", "--p", "2", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("check failed: ") and "Macdonald" in captured.err


def test_column_sums_count_square_roots():
    # the census's p = 2 certificate: every character of S_n is real with
    # Frobenius-Schur indicator 1, so a column sums to r(mu), the number of
    # square roots of a permutation of type mu, which is odd exactly when
    # mu's parts are odd and distinct
    for n in range(8):
        for mu in partitions_of(n):
            roots = square_root_count(mu)
            assert roots == sum(mn_character(alpha, mu) for alpha in partitions_of(n)), mu
            assert roots % 2 == (all(a % 2 for a in mu) and len(set(mu)) == len(mu)), mu


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_census_checks_frobenius_schur_parity(monkeypatch, capsys, jobs):
    # the label (11, 1) of n = 12 is its own digit representative; a zero
    # more there flips the parity of its odd entries but leaves Macdonald's
    # count, which reads the label 1^12, as it is
    real = census.zero_counts

    def off_by_one(labels, p):
        return tuple(z + (rep == (11, 1)) for rep, z in zip(labels, real(labels, p)))

    monkeypatch.setattr(census, "zero_counts", off_by_one)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    code = main(["census", "--n", "12", "--p", "2", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("check failed: ") and "Frobenius" in captured.err
    assert "column of 11,1 in S_12 has 10 odd entries" in captured.err


def test_census_checks_frobenius_schur_parity_of_a_stored_file(tmp_path):
    # a stored count one too high on (11, 1), under a checksum that fits
    table_census(12, 2, cache_dir=tmp_path)
    path = ColumnStore(tmp_path).path_for(12, 2)
    body = path.read_text().rpartition("\nchecksum=")[0]
    head, _, values = body.rpartition("values=")
    labels = re.search(r"^labels=(.*)$", head, re.M).group(1).split(";")
    counts = values.split(",")
    at = labels.index("11,1")
    counts[at] = str(int(counts[at]) + 1)
    _rechecksum(path, head + "values=" + ",".join(counts))
    with pytest.raises(RuntimeError, match="column of 11,1 in S_12 has 10 odd entries, but Frobenius-Schur asks for an odd"):
        table_census(12, 2, cache_dir=tmp_path)


def test_census_store_that_cannot_be_written_exits_2(monkeypatch, tmp_path, capsys):
    def refuse(src, dst):
        raise OSError(30, "Read-only file system")

    monkeypatch.setattr(census.os, "replace", refuse)
    code = main(["census", "--n", "6", "--p", "2", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    path = ColumnStore(tmp_path).path_for(6, 2)
    assert captured.err.startswith(f"invalid input: cannot write {path}: ")
    assert list(tmp_path.iterdir()) == []


def test_census_cache_hits_on_second_run(tmp_path):
    first = table_census(10, 2, cache_dir=tmp_path)
    assert first.cache_hits == 0
    assert first.cache_misses == len(first.columns)
    second = table_census(10, 2, cache_dir=tmp_path)
    assert second.cache_misses == 0
    assert second.cache_hits == len(second.columns)
    assert second.record == first.record
    assert second.columns == first.columns


def test_census_cache_corruption_is_not_silent(tmp_path):
    table_census(6, 2, cache_dir=tmp_path)
    victim = next(tmp_path.iterdir())
    victim.write_text(victim.read_text().replace("checksum=", "checksum=00", 1))
    with pytest.raises(ColumnCacheError, match="failed its checksum"):
        table_census(6, 2, cache_dir=tmp_path)


def test_census_store_non_ascii_byte_is_cache_error(tmp_path):
    table_census(6, 2, cache_dir=tmp_path)
    path = ColumnStore(tmp_path).path_for(6, 2)
    path.write_bytes(path.read_bytes().replace(b"n=6", b"n=\xff", 1))
    with pytest.raises(ColumnCacheError, match=f"cannot read {re.escape(str(path))}"):
        table_census(6, 2, cache_dir=tmp_path)


def test_threshold_experiment_all_floors_hold():
    for p in (2, 3):
        records = threshold_experiment(16, p, 0.4)
        assert records, "some label must qualify at n=16"
        for rec in records:
            assert rec.zero_count >= rec.core_floor
            assert 0 <= rec.proportion <= 1
            assert rec.qualifies_threshold


@pytest.mark.parametrize("n, p", [(16, 2), (20, 3), (24, 2)])
def test_threshold_experiment_matches_column_divisibility(n, p):
    # one trie walk over all representatives against one column each
    records = threshold_experiment(n, p, 0.4)
    assert records
    for rec in records:
        assert rec == column_divisibility(rec.mu, p, c=0.4)


def test_threshold_experiment_validation():
    with pytest.raises(ValueError):
        threshold_experiment(1, 2, 0.4)
    with pytest.raises(ValueError):
        threshold_experiment(10, 2, 0.1)
