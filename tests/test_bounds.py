import math
from fractions import Fraction

import pytest

from _oracles import brute_multipartitions, naive_is_core
from conftest import partitions_of
from snchar.bounds import (
    check_core_deficit,
    check_core_fiber_identity,
    check_multipartition_growth,
    core_density_report,
    growth_envelope_report,
)
from snchar.cores import count_k_cores
from snchar.padic import C_MIN
from snchar.partitions import partition_count


def test_multipartition_growth_base_case():
    for k in range(1, 11):
        report = check_multipartition_growth(k, 1)
        assert report.lhs == k and report.rhs == k + 1 and report.holds


def test_multipartition_growth_example():
    report = check_multipartition_growth(2, 2)
    assert report.lhs == len(brute_multipartitions(2, 2)) == 5
    assert report.rhs == 6
    assert report.holds and report.slack == Fraction(5, 6)


def test_multipartition_growth_sweep_small():
    for k in range(1, 7):
        for m in range(1, 16):
            assert check_multipartition_growth(k, m).holds


def test_multipartition_growth_validation():
    with pytest.raises(ValueError):
        check_multipartition_growth(0, 1)
    with pytest.raises(ValueError):
        check_multipartition_growth(1, 0)


def test_core_deficit_full_weight_case():
    # at k = n the non-cores are exactly the n hook shapes
    for n in (4, 6, 9):
        report = check_core_deficit(n, n)
        hooked = sum(1 for lam in partitions_of(n) if not naive_is_core(tuple(lam), n))
        assert report.lhs == hooked == n
        assert report.rhs == (n + 1) * partition_count(0)
        assert report.holds


def test_core_deficit_example():
    report = check_core_deficit(5, 3)
    assert report.lhs == partition_count(5) - count_k_cores(5, 3) == 7 - 1
    assert report.rhs == 4 * partition_count(2)
    assert report.holds


def test_core_deficit_range_validation():
    with pytest.raises(ValueError):
        check_core_deficit(5, 6)
    with pytest.raises(ValueError):
        check_core_deficit(5, 0)


def test_core_deficit_sweep_small():
    for n in range(1, 26):
        for k in range(1, n + 1):
            assert check_core_deficit(n, k).holds


def test_fiber_identity_trivial_when_k_exceeds_n():
    for n in (3, 7):
        report = check_core_fiber_identity(n, n + 2)
        assert report.lhs == 0 and report.rhs == 0 and report.holds


def test_fiber_identity_example():
    report = check_core_fiber_identity(6, 3)
    assert report.relation == "=="
    assert report.lhs == report.rhs
    # oracle recomputation of the right side from raw filters
    rhs = sum(
        sum(1 for lam in partitions_of(6 - 3 * m) if naive_is_core(tuple(lam), 3))
        * len(brute_multipartitions(3, m))
        for m in range(1, 3)
    )
    assert report.rhs == rhs


def test_fiber_identity_sweep_small():
    for n in range(1, 26):
        for k in range(1, n + 1):
            assert check_core_fiber_identity(n, k).holds


def test_core_density_full_weight_case():
    for n in (5, 12, 30):
        report = core_density_report(n, n, 0.4)
        assert report.lhs == 1 - Fraction(count_k_cores(n, n), partition_count(n))
        assert report.rhs == Fraction(n + 1, partition_count(n))
        assert report.holds


def test_core_density_matches_deficit_rearranged():
    for n in range(2, 41):
        for k in range(1, n + 1):
            report = core_density_report(n, k, 0.4)
            assert report.holds
            deficit = check_core_deficit(n, k)
            assert report.lhs == Fraction(deficit.lhs, partition_count(n))
            assert report.rhs == Fraction(deficit.rhs, partition_count(n))


def test_core_density_decay_scan_fixed_n():
    # for fixed n the decay side (k+1) p(n-k) / p(n) falls below any fixed
    # threshold once k grows past sqrt(n) * ln(n)
    n = 50
    start = math.ceil(math.sqrt(n) * math.log(n))
    ratios = [core_density_report(n, k, 0.4).rhs for k in range(start, n + 1)]
    assert ratios[-1] == Fraction(n + 1, partition_count(n))
    assert min(ratios) < Fraction(1, 1000)
    assert ratios[-1] <= Fraction(1, 1000)


def test_core_density_threshold_flag():
    n = 40  # 0.4 * sqrt(40) * ln(40) ~ 9.33
    assert core_density_report(n, 25, 0.4).params["k_meets_threshold"]
    assert not core_density_report(n, 5, 0.4).params["k_meets_threshold"]


def test_core_density_threshold_flag_on_the_boundary():
    # c = k / (sqrt(n) ln n) puts threshold(n, c) on k up to float rounding;
    # the flag uses the predicates' tolerance-biased rule, so k always meets it
    for n in range(2, 61):
        for k in range(1, n + 1):
            c = k / (math.sqrt(n) * math.log(n))
            if c > C_MIN:
                assert core_density_report(n, k, c).params["k_meets_threshold"], (n, k)


def test_core_density_exact_beyond_sixty():
    report = core_density_report(100, 48, 0.4)
    assert report.holds is True
    assert report.lhs == 1 - Fraction(count_k_cores(100, 48), partition_count(100))
    assert report.rhs == Fraction(49 * partition_count(52), partition_count(100))


def test_core_density_validation():
    with pytest.raises(ValueError):
        core_density_report(1, 1, 0.4)
    with pytest.raises(ValueError):
        core_density_report(10, 0, 0.4)
    with pytest.raises(ValueError):
        core_density_report(10, 3, 0.2)
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError):
            core_density_report(10, 3, c)


def test_growth_envelope_first_value():
    report = growth_envelope_report(1)
    assert report.count == 1
    assert report.ratio == pytest.approx(math.exp(-math.pi * math.sqrt(2 / 3)), rel=1e-12)


def test_growth_envelope_known_count():
    report = growth_envelope_report(100)
    assert report.count == 190569292
    expected = 190569292 * 100 / math.exp(math.pi * math.sqrt(200 / 3))
    assert report.ratio == pytest.approx(expected, rel=1e-9)


def test_growth_envelope_sweep_bounded():
    ratios = [growth_envelope_report(m).ratio for m in range(1, 201)]
    assert all(0.01 < r < 1.0 for r in ratios)
    # the envelope drifts upward toward its limiting constant 1/(4*sqrt(3))
    assert ratios[-1] > ratios[0]
    assert max(ratios) < 1 / (4 * math.sqrt(3))


def test_growth_envelope_validation():
    with pytest.raises(ValueError):
        growth_envelope_report(0)
