import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_multipartitions,
    enumerated_core_row,
    k_core,
    naive_core_terminals,
    naive_is_core,
    naive_rim_hook_removals,
    node_addition_cover,
)
from conftest import partitions_of, partitions_st
from snchar.cores import _rim_hook_options, count_k_cores, is_k_core, multipartition_count
from snchar.partitions import partition_count


def test_remove_rim_hook_examples():
    assert _rim_hook_options((2, 2), 4) == []
    assert _rim_hook_options((3, 1), 4) == [((), 1)]
    assert _rim_hook_options((1,), 1) == [((), 0)]


@pytest.mark.parametrize("n", range(11))
def test_remove_rim_hook_against_border_strips(n):
    for lam in partitions_of(n):
        for t in range(1, n + 2):
            got = _rim_hook_options(tuple(lam), t)
            assert len(set(got)) == len(got)
            assert set(got) == naive_rim_hook_removals(tuple(lam), t)


# k_core is the oracle's abacus push-down; these tests check it against the
# size law, exhaustive stripping, and the package's is_k_core and
# multipartition_count.


def test_k_core_examples():
    assert k_core((4, 1), 3) == ((1, 1), 1)
    assert k_core((2, 2), 2) == ((), 2)


def test_k_core_large_k_is_identity():
    for lam in partitions_of(6):
        for k in range(7, 10):
            assert k_core(lam, k) == (lam, 0)


def test_k_core_size_law_and_core_property():
    for n in range(15):
        for lam in partitions_of(n):
            for k in range(1, n + 2):
                core, weight = k_core(lam, k)
                assert n == sum(core) + k * weight
                assert is_k_core(core, k)


def test_k_core_idempotent():
    for n in range(21):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                core = k_core(lam, k)[0]
                assert k_core(core, k) == (core, 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_k_core_matches_exhaustive_stripping(n):
    for lam in partitions_of(n):
        for k in range(1, n + 1):
            assert naive_core_terminals(tuple(lam), k) == {k_core(lam, k)[0]}


def test_is_k_core_against_hook_multiset():
    for n in range(15):
        for lam in partitions_of(n):
            for k in range(1, n + 2):
                assert is_k_core(lam, k) == naive_is_core(tuple(lam), k)


def test_fiber_sizes_match_multipartition_count():
    # partitions of n with a given k-core, grouped, against p_k(weight): the
    # core-quotient bijection, counted
    for n in range(21):
        for k in range(2, n + 1):
            groups: dict = {}
            for lam in partitions_of(n):
                result = k_core(lam, k)
                groups[result] = groups.get(result, 0) + 1
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


def test_node_addition_cover_examples():
    assert node_addition_cover(((1,),)) == {((2,),), ((1, 1),)}
    assert node_addition_cover(((), ())) == {((1,), ()), ((), (1,))}


def test_node_addition_cover_at_k2_m3():
    covered = set()
    for mp in brute_multipartitions(2, 2):
        image = node_addition_cover(mp)
        assert len(image) <= 3
        covered |= image
    assert covered == set(brute_multipartitions(2, 3))
    assert len(covered) == 10


def test_node_addition_cover_bound_and_cover():
    for k in range(1, 5):
        for m in range(1, 9):
            covered = set()
            for mp in brute_multipartitions(k, m - 1):
                image = node_addition_cover(mp)
                assert len(image) <= k + 1
                for grown in image:
                    assert sum(map(sum, grown)) == m
                covered |= image
            assert covered == set(brute_multipartitions(k, m))


@given(partitions_st(20), st.integers(1, 8))
@settings(max_examples=80)
def test_core_size_law_random(lam, k):
    core, weight = k_core(lam, k)
    assert lam.n == sum(core) + k * weight
    assert is_k_core(core, k)
