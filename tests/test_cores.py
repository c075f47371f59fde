import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_multipartitions,
    enumerated_core_row,
    naive_core_terminals,
    naive_is_core,
    naive_rim_hook_removals,
)
from conftest import partitions_of, partitions_st
from snchar.cores import (
    Multipartition,
    count_k_cores,
    enumerate_multipartitions,
    from_core_and_quotient,
    is_k_core,
    k_core,
    k_quotient,
    multipartition_count,
    node_addition_cover,
    random_greedy_core,
    remove_rim_hook,
)
from snchar.partitions import Partition, partition_count


def P(*parts):
    return Partition(parts)


def test_remove_rim_hook_examples():
    assert remove_rim_hook(P(2, 2), 4) == set()
    assert remove_rim_hook(P(3, 1), 4) == {(P(), 1)}
    assert remove_rim_hook(P(1), 1) == {(P(), 0)}


def test_remove_rim_hook_rejects_bad_length():
    with pytest.raises(ValueError):
        remove_rim_hook(P(2, 1), 0)


@pytest.mark.parametrize("n", range(11))
def test_remove_rim_hook_against_border_strips(n):
    for lam in partitions_of(n):
        for t in range(1, n + 2):
            got = {(tuple(child), leg) for child, leg in remove_rim_hook(lam, t)}
            assert got == naive_rim_hook_removals(tuple(lam), t)


def test_k_core_examples():
    result = k_core(P(4, 1), 3)
    assert (result.core, result.weight) == ((1, 1), 1)
    assert k_core(P(2, 2), 2).core == ()
    assert k_core(P(2, 2), 2).weight == 2


def test_k_core_large_k_is_identity():
    for lam in partitions_of(6):
        for k in range(7, 10):
            result = k_core(lam, k)
            assert result.core == lam and result.weight == 0


def test_k_core_size_law_and_core_property():
    for n in range(15):
        for lam in partitions_of(n):
            for k in range(1, n + 2):
                result = k_core(lam, k)
                assert lam.n == result.core.n + k * result.weight
                assert is_k_core(result.core, k)


def test_k_core_idempotent():
    for n in range(21):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                core = k_core(lam, k).core
                assert k_core(core, k).core == core


@pytest.mark.parametrize("n", range(1, 13))
def test_k_core_matches_exhaustive_stripping(n):
    for lam in partitions_of(n):
        for k in range(1, n + 1):
            terminals = naive_core_terminals(tuple(lam), k)
            assert len(terminals) == 1
            assert next(iter(terminals)) == tuple(k_core(lam, k).core)


def test_greedy_random_order_independence_small():
    rng = random.Random(2024)
    for n in range(1, 11):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                expected = k_core(lam, k).core
                for _ in range(5):
                    assert random_greedy_core(lam, k, rng) == expected


def test_is_k_core_against_hook_multiset():
    for n in range(15):
        for lam in partitions_of(n):
            for k in range(1, n + 2):
                assert is_k_core(lam, k) == naive_is_core(tuple(lam), k)


def test_k_quotient_weight_and_core_cases():
    # a k-core has an all-empty quotient
    for lam in partitions_of(8):
        for k in range(2, 9):
            if is_k_core(lam, k):
                assert k_quotient(lam, k).total == 0
    q = k_quotient(P(2, 2), 2)
    assert q.total == k_core(P(2, 2), 2).weight == 2


def test_quotient_total_equals_weight():
    for n in range(16):
        for lam in partitions_of(n):
            for k in (1, 2, 3, 5):
                assert k_quotient(lam, k).total == k_core(lam, k).weight


def test_core_quotient_reconstruction_bijection():
    for n in range(16):
        seen = set()
        for lam in partitions_of(n):
            for k in (2, 3, 4):
                result = k_core(lam, k)
                quotient = k_quotient(lam, k)
                rebuilt = from_core_and_quotient(result.core, quotient)
                assert rebuilt == lam
                seen.add((k, result.core, quotient.components))
        # distinct partitions gave distinct (core, quotient) pairs
        assert len(seen) == 3 * partition_count(n)


def test_from_core_and_quotient_rejects_non_core():
    with pytest.raises(ValueError):
        from_core_and_quotient(P(2), Multipartition((P(), P())))


def test_fiber_sizes_match_multipartition_count():
    # partitions of n with a given k-core, grouped, against p_k(weight)
    for n in range(21):
        for k in range(2, n + 1):
            groups: dict = {}
            for lam in partitions_of(n):
                result = k_core(lam, k)
                groups.setdefault((result.core, result.weight), 0)
                groups[(result.core, result.weight)] += 1
            for (core, weight), size in groups.items():
                assert size == multipartition_count(k, weight)


def test_count_k_cores_examples():
    assert count_k_cores(0, 1) == 1
    for n in range(1, 8):
        assert count_k_cores(n, 1) == 0
    assert count_k_cores(2, 3) == 2
    assert count_k_cores(3, 2) == 1


def test_count_k_cores_against_filter_oracle():
    for n in range(15):
        for k in range(1, n + 3):
            expected = sum(1 for lam in partitions_of(n) if naive_is_core(tuple(lam), k))
            assert count_k_cores(n, k) == expected


def test_count_k_cores_matches_enumeration():
    # the generating function against the enumeration oracle, k = 1 and
    # k = n + 1 (every partition is a core) included
    for n in range(61):
        row = enumerated_core_row(n)
        for k in range(1, n + 2):
            assert count_k_cores(n, k) == row[k], (n, k)
        assert count_k_cores(n, n + 5) == row[n + 1] == partition_count(n)


def test_count_2_cores_closed_form():
    # the 2-cores are the staircases (m, m-1, ..., 1), of triangular size
    triangular = {m * (m + 1) // 2 for m in range(21)}
    for n in range(201):
        assert count_k_cores(n, 2) == (1 if n in triangular else 0), n


def test_count_3_cores_closed_form():
    # Granville-Ono: c_3(n) = d_{1,3}(3n + 1) - d_{2,3}(3n + 1), divisors
    # counted by residue mod 3
    for n in range(201):
        divisors = [d for d in range(1, 3 * n + 2) if (3 * n + 1) % d == 0]
        expected = sum(1 for d in divisors if d % 3 == 1) - sum(
            1 for d in divisors if d % 3 == 2
        )
        assert count_k_cores(n, 3) == expected, n


def test_count_k_cores_validation():
    with pytest.raises(ValueError):
        count_k_cores(-1, 2)
    with pytest.raises(ValueError):
        count_k_cores(3, 0)


def test_multipartition_count_examples():
    for k in (1, 2, 5, 9):
        assert multipartition_count(k, 0) == 1
        assert multipartition_count(k, 1) == k
    assert multipartition_count(2, 2) == 5


def test_multipartition_count_against_enumeration():
    for k in (1, 2, 3, 4):
        for m in range(11):
            assert multipartition_count(k, m) == len(brute_multipartitions(k, m))


def test_enumerate_multipartitions_matches_count_and_brute():
    for k in (1, 2, 3):
        for m in range(7):
            listed = list(enumerate_multipartitions(k, m))
            assert len(listed) == multipartition_count(k, m)
            as_tuples = {tuple(tuple(c) for c in mp.components) for mp in listed}
            assert as_tuples == set(brute_multipartitions(k, m))
            assert len(as_tuples) == len(listed)


def test_multipartition_serialization():
    mp = Multipartition((P(2, 1), P(), P(3)))
    assert mp.to_text() == "2,1|-|3"
    assert Multipartition.from_text("2,1|-|3") == mp
    assert mp.total == 6 and mp.k == 3


def test_node_addition_cover_examples():
    one = Multipartition((P(1),))
    assert node_addition_cover(one) == {Multipartition((P(2),)), Multipartition((P(1, 1),))}
    empty2 = Multipartition((P(), P()))
    assert node_addition_cover(empty2) == {
        Multipartition((P(1), P())),
        Multipartition((P(), P(1))),
    }


def test_node_addition_cover_at_k2_m3():
    covered = set()
    for mp in enumerate_multipartitions(2, 2):
        image = node_addition_cover(mp)
        assert len(image) <= 3
        covered |= image
    assert covered == set(enumerate_multipartitions(2, 3))
    assert len(covered) == 10


def test_node_addition_cover_bound_and_cover():
    for k in range(1, 5):
        for m in range(1, 9):
            covered = set()
            for mp in enumerate_multipartitions(k, m - 1):
                image = node_addition_cover(mp)
                assert len(image) <= k + 1
                for grown in image:
                    assert grown.total == m
                covered |= image
            assert covered == set(enumerate_multipartitions(k, m))


@given(partitions_st(20), st.integers(1, 8))
@settings(max_examples=80)
def test_core_size_law_random(lam, k):
    result = k_core(lam, k)
    assert lam.n == result.core.n + k * result.weight
    assert is_k_core(result.core, k)
    assert k_quotient(lam, k).total == result.weight


@given(partitions_st(14, min_n=1), st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_greedy_agrees_with_abacus_random(lam, k, rng):
    assert random_greedy_core(lam, k, rng) == k_core(lam, k).core
