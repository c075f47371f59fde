import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_partitions, trial_division_is_prime
from snchar import padic
from conftest import partitions_of, partitions_st
from snchar.census import table_census
from snchar.padic import (
    C_MIN,
    _meets_threshold,
    _power_partitions,
    _regular_label,
    digit_representative,
    few_distinct_parts,
    fiber_partitions,
    fiber_size,
    is_prime,
    p_adic_digits,
    p_prime_part,
    p_regular_partitions,
    power_block_witness,
    threshold,
)
from snchar.partitions import Partition, partition_count


def P(*parts):
    return Partition(parts)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {m for m in range(31) if is_prime(m)} == primes


def test_is_prime_against_trial_division():
    assert [m for m in range(200_000) if is_prime(m) != trial_division_is_prime(m)] == []


def test_is_prime_rejects_strong_pseudoprimes():
    # they pass Miller-Rabin on the first 4, 11 and 12 prime bases, so a test
    # on fewer bases would call each of them prime
    for m in (3_215_031_751, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461):
        assert not is_prime(m), m


def test_is_prime_decides_a_large_prime_at_once():
    is_prime.cache_clear()
    start = time.perf_counter()
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)
    assert time.perf_counter() - start < 1.0


def test_is_prime_refuses_what_it_cannot_decide():
    # the 13 bases decide primality exactly below 3 317 044 064 679 887 385 961 981,
    # the least composite that passes all of them; ...813 is the last prime below it
    assert is_prime(3_317_044_064_679_887_385_961_813)
    assert not is_prime(3_317_044_064_679_887_385_961_979)  # 17 * 1709 * 1366183751 * 83570142193
    for m in (3_317_044_064_679_887_385_961_981, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="cannot decide"):
            is_prime(m)


def test_is_prime_trial_division_runs_once_per_p():
    # every label of a census checks p again; a census makes one cached
    # Miller-Rabin decision per p, however many labels ask
    is_prime.cache_clear()
    table_census(12, 10007)
    assert is_prime.cache_info().misses <= 3


def test_is_prime_cache_keeps_types_apart():
    # an untyped cache keys an int subclass and a float of equal value alike,
    # and would then answer 2.0 with the entry of the prime Two(2)
    class Two(int):
        pass

    is_prime.cache_clear()
    assert is_prime(Two(2)) and is_prime(2) and not is_prime(1)
    assert not is_prime(2.0) and not is_prime(True)
    assert is_prime.cache_info().currsize == 5


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
                assert _regular_label(image, p) == image
                assert p_prime_part(image, p) == image


def test_regular_label_examples():
    assert _regular_label((1, 1, 1), 2) == P(1, 1, 1)
    for lam, p in ((P(4, 3), 2), (P(6, 2), 3)):
        with pytest.raises(ValueError, match=f"{lam} has a part divisible by {p}"):
            _regular_label(lam, p)


def test_p_regular_partitions_match_filtered_enumeration():
    # the labels step over the parts prime to p and the fibers over the
    # powers of p; both in canonical order, against the oracle's own listing
    for n in range(31):
        everything = brute_partitions(n)
        for p in (2, 3, 5, 7):
            expected = [lam for lam in everything if all(a % p for a in lam)]
            assert list(p_regular_partitions(n, p)) == expected, (n, p)
        for p in (2, 3, 5):
            powers = {p ** e for e in range(n + 1)}
            expected = [lam for lam in everything if all(a in powers for a in lam)]
            assert list(_power_partitions(n, p)) == expected, (n, p)
    assert list(p_regular_partitions(0, 2)) == [P()]
    with pytest.raises(ValueError):
        list(p_regular_partitions(-1, 3))


def test_requires_prime():
    with pytest.raises(ValueError):
        p_prime_part(P(2, 1), 6)
    with pytest.raises(ValueError, match="p must be prime, got 1"):
        _regular_label(P(2, 1), 1)


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


def test_fiber_sizes_do_not_depend_on_call_order():
    # the power-partition counts behind fiber_size are grown in place per p,
    # so no order of requests may change a value
    keys = [(Partition((1,) * b), p) for b in range(41) for p in (2, 3, 5)]
    keys += [(lam, p) for p in (2, 3) for lam in p_regular_partitions(12, p)]

    def sweep(order):
        padic._power_partition_counts.clear()
        return {key: fiber_size(*key) for key in order}

    ascending = sweep(keys)
    for b in range(41):
        for p in (2, 3, 5):
            assert ascending[Partition((1,) * b), p] == len(_power_partitions(b, p))
    assert sweep(keys[::-1]) == ascending
    rng = random.Random(29)
    for _ in range(3):
        rng.shuffle(keys)
        assert sweep(keys) == ascending


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
    # each predicate checks p and c itself; n is the label's own size
    assert threshold(5, 0.39) == 0.39 * math.sqrt(5) * math.log(5)
    for predicate in (power_block_witness, few_distinct_parts):
        predicate(P(3, 1, 1), 2, 0.39)
        for p, c in ((2, C_MIN), (2, 0.3), (4, 0.5), (2, math.inf), (2, math.nan)):
            with pytest.raises(ValueError):  # C_MIN itself is invalid (strict)
                predicate(P(3, 1, 1), p, c)


def test_predicates_require_n_at_least_2():
    for lam, message in ((P(), "n must be positive"), (P(1), "n >= 2")):
        with pytest.raises(ValueError, match=message):
            power_block_witness(lam, 2, 0.4)
        with pytest.raises(ValueError, match=message):
            few_distinct_parts(lam, 2, 0.4)


def test_predicates_validate_label():
    for lam in (P(4), P(2, 1, 1)):  # a part divisible by 2
        with pytest.raises(ValueError, match="divisible by 2"):
            power_block_witness(lam, 2, 0.4)
        with pytest.raises(ValueError, match="divisible by 2"):
            few_distinct_parts(lam, 2, 0.4)


def test_power_block_witness_single_huge_part():
    # a single part n is far beyond 0.4 * sqrt(n) * ln(n) at these sizes
    for n in (9, 17, 31):
        witness = power_block_witness(P(n), 2, 0.4)
        assert witness == (1, 0)


def test_power_block_witness_worked_example():
    # p=2, c=0.4, n=4, all-ones label: s=2 gives 2**2 = 4 <= 4 and 4 >= 0.4*2*ln 4
    witness = power_block_witness(P(1, 1, 1, 1), 2, 0.4)
    assert witness == (1, 2)


# 0.4551196133134187 puts threshold(9, c) on 3
BOUNDARY_SCALES = (0.39, 0.4, 0.5, 1.0, 0.4551196133134187)


def test_witness_matches_representative_largest_part():
    # one threshold test and one digit rule: a witness exists exactly when the
    # digit representative's first part meets the threshold
    for n in range(2, 31):
        for p in (2, 3, 5, 7):
            for lam in p_regular_partitions(n, p):
                rep = digit_representative(lam, p)
                for c in BOUNDARY_SCALES:
                    witness = power_block_witness(lam, p, c)
                    assert (witness is not None) == _meets_threshold(rep[0], n, c), (lam, p, c)


def test_few_parts_implies_witness():
    for n in range(2, 31):
        for p in (2, 3, 5, 7):
            for lam in p_regular_partitions(n, p):
                for c in BOUNDARY_SCALES:
                    if few_distinct_parts(lam, p, c):
                        assert power_block_witness(lam, p, c) is not None, (lam, p, c)


def test_few_distinct_parts_examples():
    # h = 1 <= sqrt(9) / (0.4 * 2 * ln 9) ~ 1.707
    assert few_distinct_parts(P(9), 2, 0.4)
    # h = 3 with a tiny budget fails
    assert not few_distinct_parts(P(4, 2, 2, 1), 3, 1.0)


@given(partitions_st(24), st.sampled_from((2, 3, 5)))
@settings(max_examples=80)
def test_p_prime_part_properties_random(mu, p):
    image = p_prime_part(mu, p)
    assert image.n == mu.n
    assert _regular_label(image, p) == image
    assert p_prime_part(image, p) == image
