import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partitions_of, partitions_st
from snchar.padic import (
    C_MIN,
    ThresholdParams,
    digit_representative,
    few_distinct_parts,
    fiber_partitions,
    fiber_size,
    is_p_regular,
    is_prime,
    p_adic_digits,
    p_prime_part,
    p_regular_partitions,
    power_block_witness,
)
from snchar.partitions import Partition, partition_count


def P(*parts):
    return Partition(parts)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {m for m in range(31) if is_prime(m)} == primes


def test_p_prime_part_examples():
    assert p_prime_part(P(4, 3), 2) == (3, 1, 1, 1, 1)
    assert p_prime_part(P(6, 2), 3) == (2, 2, 2, 2)


def test_p_prime_part_fixes_regular_partitions():
    for n in range(11):
        for p in (2, 3):
            for lam in p_regular_partitions(n, p):
                assert p_prime_part(lam, p) == lam


def test_p_prime_part_idempotent_and_regular():
    for n in range(21):
        for p in (2, 3, 5):
            for mu in partitions_of(n):
                image = p_prime_part(mu, p)
                assert image.n == mu.n
                assert is_p_regular(image, p)
                assert p_prime_part(image, p) == image


def test_is_p_regular_examples():
    assert is_p_regular(P(1, 1, 1), 2)
    assert not is_p_regular(P(4, 3), 2)
    assert not is_p_regular(P(6, 2), 3)


def test_p_regular_partitions_match_filtered_enumeration():
    # generated from the parts prime to p, in canonical order
    for n in range(31):
        for p in (2, 3, 5, 7):
            expected = [lam for lam in partitions_of(n) if all(a % p for a in lam)]
            assert list(p_regular_partitions(n, p)) == expected, (n, p)
    assert list(p_regular_partitions(0, 2)) == [P()]
    with pytest.raises(ValueError):
        list(p_regular_partitions(-1, 3))


def test_requires_prime():
    with pytest.raises(ValueError):
        p_prime_part(P(2, 1), 6)
    with pytest.raises(ValueError):
        is_p_regular(P(2, 1), 1)


def test_fiber_singleton():
    for a in (1, 3, 5):
        assert list(fiber_partitions(P(a), 2)) == [P(a)]


def test_fiber_example():
    assert set(fiber_partitions(P(1, 1, 1), 2)) == {P(1, 1, 1), P(2, 1)}


def test_fiber_rejects_irregular():
    with pytest.raises(ValueError):
        list(fiber_partitions(P(2, 1), 2))
    with pytest.raises(ValueError):
        fiber_size(P(2, 1), 2)


def test_fibers_partition_all_classes():
    # grouping every partition of n by its p'-part label matches the fibers
    for n in range(13):
        for p in (2, 3):
            grouped: dict[Partition, set] = {}
            for mu in partitions_of(n):
                grouped.setdefault(p_prime_part(mu, p), set()).add(mu)
            labels = list(p_regular_partitions(n, p))
            assert set(grouped) == set(labels)
            total = 0
            for lam in labels:
                members = list(fiber_partitions(lam, p))
                assert len(set(members)) == len(members)  # duplicate-free
                assert set(members) == grouped[lam]
                assert fiber_size(lam, p) == len(members)
                assert lam in members  # the label is its own fiber member
                total += len(members)
            assert total == partition_count(n)


def test_fiber_sizes_sum_up_to_n14():
    for n in (13, 14):
        for p in (2, 3, 5):
            assert sum(fiber_size(lam, p) for lam in p_regular_partitions(n, p)) == (
                partition_count(n)
            )


def test_p_adic_digits():
    assert p_adic_digits(0, 2) == ()
    assert p_adic_digits(6, 2) == (0, 1, 1)
    assert p_adic_digits(5, 2) == (1, 0, 1)
    for value in (1, 2, 6, 2024, 3 ** 10 + 1):
        for p in (2, 3, 7):
            digits = p_adic_digits(value, p)
            assert sum(d * p ** t for t, d in enumerate(digits)) == value
            assert all(0 <= d < p for d in digits)
            assert digits[-1] != 0
    with pytest.raises(ValueError):
        p_adic_digits(-1, 3)
    with pytest.raises(ValueError):
        p_adic_digits(5, 4)


def test_digit_representative_examples():
    # all multiplicities below p: fixed
    assert digit_representative(P(5, 3, 1), 2) == (5, 3, 1)
    assert digit_representative(P(2, 2, 1), 3) == (2, 2, 1)
    # 5 copies of 3 at p=2: 5 = 101 in base 2 -> parts 12 and 3
    assert digit_representative(P(3, 3, 3, 3, 3), 2) == (12, 3)
    # 6 copies of 1 at p=2: 6 = 110 in base 2 -> parts 4 and 2
    assert digit_representative(P(1, 1, 1, 1, 1, 1), 2) == (4, 2)


def test_digit_representative_lies_in_fiber():
    for n in range(21):
        for p in (2, 3):
            for lam in p_regular_partitions(n, p):
                rep = digit_representative(lam, p)
                assert rep.n == n
                assert p_prime_part(rep, p) == lam


def test_threshold_params_validation():
    ThresholdParams(p=2, c=0.39, n=5)
    with pytest.raises(ValueError):
        ThresholdParams(p=2, c=C_MIN, n=5)  # boundary is invalid (strict)
    with pytest.raises(ValueError):
        ThresholdParams(p=2, c=0.3, n=5)
    with pytest.raises(ValueError):
        ThresholdParams(p=4, c=0.5, n=5)
    with pytest.raises(ValueError):
        ThresholdParams(p=2, c=0.5, n=0)
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ThresholdParams(p=2, c=c, n=5)


def test_predicates_require_n_at_least_2():
    params = ThresholdParams(p=2, c=0.4, n=1)
    with pytest.raises(ValueError):
        power_block_witness(P(1), params)
    with pytest.raises(ValueError):
        few_distinct_parts(P(1), params)


def test_predicates_validate_label():
    params = ThresholdParams(p=2, c=0.4, n=4)
    with pytest.raises(ValueError):
        power_block_witness(P(4), params)  # part divisible by 2
    with pytest.raises(ValueError):
        power_block_witness(P(2, 1, 1), params)  # part divisible by 2
    with pytest.raises(ValueError):
        few_distinct_parts(P(1, 1, 1), params)  # wrong size


def test_power_block_witness_single_huge_part():
    # a single part n is far beyond 0.4 * sqrt(n) * ln(n) at these sizes
    for n in (9, 17, 31):
        witness = power_block_witness(P(n), ThresholdParams(p=2, c=0.4, n=n))
        assert witness == (1, 0)


def test_power_block_witness_worked_example():
    # p=2, c=0.4, n=4, all-ones label: s=2 gives 2**2 = 4 <= 4 and 4 >= 0.4*2*ln 4
    witness = power_block_witness(P(1, 1, 1, 1), ThresholdParams(p=2, c=0.4, n=4))
    assert witness == (1, 2)


def test_witness_matches_representative_largest_part():
    # the predicate holds exactly when the digit representative's first part
    # reaches the threshold
    for n in range(2, 21):
        for p in (2, 3):
            for c in (0.39, 0.5, 1.0):
                params = ThresholdParams(p=p, c=c, n=n)
                for lam in p_regular_partitions(n, p):
                    rep = digit_representative(lam, p)
                    expected = rep[0] >= params.threshold * (1 - 1e-9)
                    assert (power_block_witness(lam, params) is not None) == expected


def test_few_distinct_parts_examples():
    # h = 1 <= sqrt(9) / (0.4 * 2 * ln 9) ~ 1.707
    assert few_distinct_parts(P(9), ThresholdParams(p=2, c=0.4, n=9))
    # h = 3 with a tiny budget fails
    assert not few_distinct_parts(
        P(4, 2, 2, 1), ThresholdParams(p=3, c=1.0, n=9)
    )


def test_few_parts_implies_witness():
    for n in range(2, 21):
        for p in (2, 3):
            for c in (0.39, 0.5):
                params = ThresholdParams(p=p, c=c, n=n)
                for lam in p_regular_partitions(n, p):
                    if few_distinct_parts(lam, params):
                        assert power_block_witness(lam, params) is not None


@given(partitions_st(24), st.sampled_from((2, 3, 5)))
@settings(max_examples=80)
def test_p_prime_part_properties_random(mu, p):
    image = p_prime_part(mu, p)
    assert image.n == mu.n
    assert is_p_regular(image, p)
    assert p_prime_part(image, p) == image
