"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here: the checks are exact (integer or rational
equality/inequality) except where a wall-clock budget is stated.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction

from _oracles import (
    brute_multipartitions,
    centralizer_order,
    dimension,
    enumerated_core_count,
    greedy_core,
    k_core,
    node_addition_cover,
)
from conftest import dense, partitions_of
from snchar.census import check_core_vanishing, check_fiber_congruence, column_divisibility, table_census
from snchar.characters import compute_column
from snchar.cli import main
from snchar.cores import multipartition_count
from snchar.padic import digit_representative, p_regular_partitions
from snchar.partitions import Partition, partition_count


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_column_orthogonality():
    # for all n <= 10 and all class pairs, sum over rows of the product of the
    # two columns equals the centralizer order on the diagonal, 0 off it
    failures = 0
    pairs = 0
    for n in range(1, 11):
        labels = partitions_of(n)
        columns = {mu: dense(compute_column(mu), n) for mu in labels}
        for i, mu in enumerate(labels):
            for nu in labels[i:]:
                pairs += 1
                dot = sum(x * y for x, y in zip(columns[mu], columns[nu]))
                expected = centralizer_order(mu) if mu == nu else 0
                if dot != expected:
                    failures += 1
    ok = failures == 0
    _report("01", ok, f"orthogonality over {pairs} class pairs, n <= 10, exact")
    assert ok


def test_criterion_02_dimension_suite():
    ok = True
    for n in range(1, 15):
        ones = Partition((1,) * n)
        column = list(dense(compute_column(ones), n))
        dims = [dimension(alpha) for alpha in partitions_of(n)]
        ok = ok and column == dims and sum(d * d for d in dims) == math.factorial(n)
    _report("02", ok, "first column = hook-length dimensions and sum dim^2 = n!, n <= 14")
    assert ok


def test_criterion_03_fiber_identity():
    bad = []
    for n in range(1, 61):
        pn = partition_count(n)
        for k in range(1, n + 1):
            lhs = pn - enumerated_core_count(n, k)
            rhs = sum(
                enumerated_core_count(n - m * k, k) * multipartition_count(k, m)
                for m in range(1, n // k + 1)
            )
            if lhs != rhs:
                bad.append((n, k))
    ok = not bad
    _report("03", ok, f"p(n) - c_k(n) = sum of c_k(n-mk) p_k(m), n <= 60, exact{bad or ''}")
    assert ok


def test_criterion_04_growth_and_deficit_bounds():
    growth_ok = all(
        multipartition_count(k, m) <= (k + 1) * multipartition_count(k, m - 1)
        for k in range(1, 11)
        for m in range(1, 41)
    )
    deficit_ok = all(
        partition_count(n) - enumerated_core_count(n, k) <= (k + 1) * partition_count(n - k)
        for n in range(1, 61)
        for k in range(1, n + 1)
    )
    cover_ok = True
    for k in range(1, 5):
        for m in range(1, 9):
            covered = set()
            for mp in brute_multipartitions(k, m - 1):
                image = node_addition_cover(mp)
                cover_ok = cover_ok and len(image) <= k + 1
                covered |= image
            cover_ok = cover_ok and covered == set(brute_multipartitions(k, m))
    ok = growth_ok and deficit_ok and cover_ok
    _report(
        "04",
        ok,
        f"growth bound (k<=10, m<=40): {growth_ok}; deficit bound (n<=60): "
        f"{deficit_ok}; node-addition cover (k<=4, m<=8): {cover_ok}",
    )
    assert ok


def test_criterion_05_fiber_congruence():
    violations = 0
    fibers = 0
    for n in range(1, 13):
        for p in (2, 3, 5):
            for lam in p_regular_partitions(n, p):
                fibers += 1
                if not check_fiber_congruence(lam, p).congruent:
                    violations += 1
    ok = violations == 0
    _report("05", ok, f"{fibers} fibers congruent mod p, n <= 12, p in {{2,3,5}}")
    assert ok


def test_criterion_06_core_vanishing():
    violations = 0
    pairs = 0
    for n in range(1, 15):
        for k in range(1, n + 1):
            report = check_core_vanishing(n, k)
            pairs += report.pairs_checked
            violations += len(report.violations)
    ok = violations == 0
    _report("06", ok, f"{pairs} (core row, class) pairs all exactly zero, n <= 14")
    assert ok


def test_criterion_07_core_floor():
    violations = []
    checked = 0
    for n in range(1, 15):
        for p in (2, 3):
            for lam in p_regular_partitions(n, p):
                rep = digit_representative(lam, p)
                record = column_divisibility(rep, p)
                checked += 1
                if record.zero_count < record.core_floor:
                    violations.append((n, p, lam))
    ok = not violations
    _report("07", ok, f"zero count >= core floor on {checked} labels, n <= 14, p in {{2,3}}")
    assert ok


def test_criterion_08_census_values_and_reproducibility(capsys, tmp_path):
    spot_ok = table_census(4, 2).record.divisible_count == 6
    spot_ok = spot_ok and table_census(4, 2).record.table_size == 25
    for p in (2, 3, 5):
        spot_ok = spot_ok and table_census(1, p).record.divisible_count == 0

    def census_bytes(*extra):
        code = main(["census", "--n", "20", "--p", "2", *extra])
        captured = capsys.readouterr()
        return code, captured.out

    start = time.monotonic()
    code_a, out_a = census_bytes()
    elapsed = time.monotonic() - start
    code_b, out_b = census_bytes()
    code_c, out_c = census_bytes("--jobs", "2")
    code_d, out_d = census_bytes("--cache-dir", str(tmp_path / "store"))
    code_e, out_e = census_bytes("--cache-dir", str(tmp_path / "store"))
    runs_ok = (
        code_a == code_b == code_c == code_d == code_e == 0
        and out_a == out_b == out_c == out_d == out_e
    )
    time_ok = elapsed < 300.0
    ok = spot_ok and runs_ok and time_ok
    _report(
        "08",
        ok,
        f"E_2(4)=6/25, E_p(1)=0; n=20 census in {elapsed:.2f}s, "
        f"byte-identical across runs, job counts, and cache states",
    )
    assert ok


def test_criterion_09_order_independence():
    rng = random.Random(1729)
    mismatches = 0
    runs = 0
    for n in range(1, 15):
        for lam in partitions_of(n):
            for trial in range(20):
                k = trial % (n + 2) + 1  # cycle k so every hook length gets hit
                runs += 1
                if greedy_core(lam, k, rng) != k_core(lam, k)[0]:
                    mismatches += 1
    ok = mismatches == 0
    _report("09", ok, f"{runs} randomized greedy runs agree with the abacus, n <= 14")
    assert ok


def test_criterion_10a_deficit_bound_rearranged():
    bad = []
    for n in range(2, 61):
        pn = partition_count(n)
        for k in range(1, n + 1):
            lhs = 1 - Fraction(enumerated_core_count(n, k), pn)
            rhs = Fraction((k + 1) * partition_count(n - k), pn)
            if lhs > rhs:
                bad.append((n, k))
    ok = not bad
    _report("10a", ok, "1 - c_k(n)/p(n) <= (k+1) p(n-k)/p(n) exactly, k <= n <= 60")
    assert ok


def test_criterion_10b_decay_ratio_trend():
    # The stated expectation: (k+1) p(n-k)/p(n) at k = ceil(0.4 sqrt(n) ln n)
    # decreases over n in {100, 200, 400} (exact rational comparison).
    # Computed faithfully, the sequence INCREASES at these sizes: with
    # c = 0.4 the decay exponent c*pi/sqrt(6) - 1/2 is only ~0.013, so the
    # ln(n) factor dominates until astronomically large n.  The check is
    # implemented exactly as stated and left honest.
    ratios = []
    for n in (100, 200, 400):
        k = math.ceil(0.4 * math.sqrt(n) * math.log(n))
        ratios.append(Fraction((k + 1) * partition_count(n - k), partition_count(n)))
    ok = ratios[0] > ratios[1] > ratios[2]
    _report(
        "10b",
        ok,
        "decay ratio at n=100,200,400: " + ", ".join(f"{float(r):.6f}" for r in ratios),
    )
    assert ok
