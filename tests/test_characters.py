import math
import random

import pytest

from conftest import partitions_of
from snchar.characters import (
    MemoCache,
    _mn_eval,
    compute_column,
    dimension,
    mn_character,
    zero_counts,
)
from snchar.cores import _rim_hook_options, is_k_core, multipartition_count
from snchar.padic import p_adic_digits
from snchar.partitions import (
    Partition,
    centralizer_order,
    enumerate_partitions,
    partition_count,
)


def P(*parts):
    return Partition(parts)


def test_trivial_character_is_one():
    for n in range(1, 9):
        for beta in partitions_of(n):
            assert mn_character(P(n), beta) == 1


def test_sign_character():
    for n in range(1, 9):
        sign_label = P(*([1] * n))
        for beta in partitions_of(n):
            assert mn_character(sign_label, beta) == (-1) ** (n - len(beta))


def test_single_hook_examples():
    assert mn_character(P(3, 1), P(4)) == -1
    assert mn_character(P(2, 2), P(4)) == 0


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        mn_character(P(3, 1), P(3))
    with pytest.raises(ValueError):
        mn_character(P(3, 1), P(3), p=2)


def test_mod_requires_prime():
    with pytest.raises(ValueError):
        mn_character(P(2, 1), P(1, 1, 1), p=4)
    with pytest.raises(ValueError):
        compute_column(3, P(2, 1), modulus=6)


def test_mod_examples():
    assert mn_character(P(2, 2), P(4), p=2) == 0
    for n in (2, 5, 8):
        ones = P(*([1] * n))
        assert mn_character(ones, ones, p=2) == 1
    assert mn_character(P(3, 1), P(2, 1, 1)) in (-1, 1)
    assert mn_character(P(3, 1), P(2, 1, 1), p=2) == 1


def test_mod_matches_exact_reduction():
    for n in range(10):
        for beta in partitions_of(n):
            exact = compute_column(n, beta, None)
            for p in (2, 3, 5, 7):
                reduced = compute_column(n, beta, p)
                assert reduced.values == tuple(v % p for v in exact.values)
                assert all(0 <= v < p for v in reduced.values)


def test_mod_matches_exact_on_samples():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 9)
        alpha = rng.choice(partitions_of(n))
        beta = rng.choice(partitions_of(n))
        p = rng.choice((2, 3, 5, 7))
        assert mn_character(alpha, beta, p=p) == mn_character(alpha, beta) % p


def test_compute_column_examples():
    col = compute_column(4, P(4))
    assert col.values == (1, -1, 0, 1, -1)
    assert sum(v * v for v in col.values) == centralizer_order(P(4))
    assert compute_column(1, P(1)).values == (1,)
    assert compute_column(4, P(1, 1, 1, 1)).values == (1, 3, 2, 3, 1)


def test_compute_column_validation():
    with pytest.raises(ValueError):
        compute_column(5, P(3, 1))


def test_column_keys_canonical_order():
    # values[i] is the row of the i-th partition in enumeration order
    col = compute_column(6, P(3, 2, 1), modulus=3)
    assert col.values == tuple(
        mn_character(alpha, P(3, 2, 1), p=3) for alpha in enumerate_partitions(6)
    )


def test_column_reduced_matches_mod_column():
    # an exact column reduced afterwards equals the column computed mod p
    exact = compute_column(12, P(5, 4, 3))
    assert tuple(v % 3 for v in exact.values) == compute_column(12, P(5, 4, 3), 3).values


@pytest.mark.parametrize("p", [None, 2, 3, 5], ids=["exact", "mod2", "mod3", "mod5"])
def test_forward_column_matches_backward_recursion(p):
    # compute_column adds rim hooks forward over a whole column; mn_character
    # strips them backward one entry at a time, so the routes share no code.
    for n in range(11):
        for mu in partitions_of(n):
            assert compute_column(n, mu, p).values == tuple(
                mn_character(alpha, mu, p=p) for alpha in partitions_of(n)
            )


def test_forward_column_matches_backward_on_random_pairs():
    rng = random.Random(1902)
    for _ in range(200):
        n = rng.randint(14, 18)
        row = rng.randrange(partition_count(n))
        mu = rng.choice(partitions_of(n))
        p = rng.choice((2, 3, 5))
        expected = mn_character(partitions_of(n)[row], mu, p=p)
        assert compute_column(n, mu, p).values[row] == expected


@pytest.mark.parametrize("p, max_n", [(2, 40), (3, 40), (5, 30)])
def test_identity_column_counts_p_prime_degrees(p, max_n):
    # Macdonald (1971): S_n has prod_i multipartition_count(p**i, a_i)
    # irreducible characters of degree prime to p, over the base-p digits a_i
    # of n; those are the nonzero rows of the identity column mod p.
    for n in range(max_n + 1):
        nonzero = partition_count(n) - compute_column(n, (1,) * n, p).zero_count()
        assert nonzero == math.prod(
            multipartition_count(p**i, a) for i, a in enumerate(p_adic_digits(n, p))
        )


def test_dimension_examples():
    for n in range(1, 10):
        assert dimension(P(n)) == 1
    assert dimension(P(2, 2)) == 2
    assert dimension(P(3, 1)) == 3


def test_first_column_is_dimensions():
    for n in range(1, 15):
        ones = P(*([1] * n))
        col = compute_column(n, ones)
        dims = [dimension(alpha) for alpha in partitions_of(n)]
        assert list(col.values) == dims
        assert sum(d * d for d in dims) == math.factorial(n)


def test_column_orthogonality():
    for n in range(1, 9):
        columns = {mu: compute_column(n, mu).values for mu in partitions_of(n)}
        labels = partitions_of(n)
        for i, mu in enumerate(labels):
            for nu in labels[i:]:
                dot = sum(x * y for x, y in zip(columns[mu], columns[nu]))
                assert dot == (centralizer_order(mu) if mu == nu else 0)


def test_core_rows_vanish():
    for n in range(1, 11):
        for k in range(1, n + 1):
            cores = [a for a in partitions_of(n) if is_k_core(a, k)]
            for mu in partitions_of(n):
                if mu[0] != k:
                    continue
                col = compute_column(n, mu)
                for alpha, value in zip(partitions_of(n), col.values):
                    if alpha in cores:
                        assert value == 0


def _count_paths(alpha, beta):
    # number of leaves the uncached recursion would visit
    memo = {}

    def rec(parts, stage):
        if stage == len(beta):
            return 1
        key = (parts, stage)
        if key not in memo:
            memo[key] = sum(rec(c, stage + 1) for c, _ in _rim_hook_options(parts, beta[stage]))
        return memo[key]

    return rec(alpha, 0)


def test_cache_soundness_on_random_pairs():
    rng = random.Random(424242)
    checked = 0
    shared_by_beta: dict[tuple, MemoCache] = {}  # stage keys are only valid per beta
    while checked < 1000:
        n = rng.randint(1, 18)
        alpha = tuple(rng.choice(partitions_of(n)))
        beta = tuple(rng.choice(partitions_of(n)))
        if _count_paths(alpha, beta) > 20000:
            continue  # keep the uncached run feasible
        uncached = _mn_eval(alpha, beta, None, None)
        assert uncached == _mn_eval(alpha, beta, None, MemoCache())
        shared = shared_by_beta.setdefault(beta, MemoCache())
        assert uncached == _mn_eval(alpha, beta, None, shared)
        checked += 1


def test_memo_cache_statistics():
    cache = MemoCache()
    beta = (3, 2, 1)
    for alpha in partitions_of(6):
        _mn_eval(tuple(alpha), beta, None, cache)
    assert len(cache.table) == cache.misses
    assert cache.hits > 0
    before = (cache.hits, cache.misses)
    # replaying the column only produces hits at the top level
    for alpha in partitions_of(6):
        _mn_eval(tuple(alpha), beta, None, cache)
    assert cache.misses == before[1]
    assert cache.hits > before[0]


def test_zero_counts_any_classes_in_given_order():
    # every class, not only p-regular ones, in reverse order with repeats
    for n in range(9):
        classes = list(reversed(partitions_of(n))) + [partitions_of(n)[0]]
        for p in (2, 3):
            expected = tuple(compute_column(n, mu, p).zero_count() for mu in classes)
            assert zero_counts(n, classes, p) == expected


def test_zero_counts_move_tables_match_mask_step_on_random_pairs():
    # zero_counts steps through rank-indexed move tables; compute_column adds
    # the same hooks on bead masks
    rng = random.Random(2019)
    for _ in range(200):
        n = rng.randint(14, 24)
        mu = rng.choice(partitions_of(n))
        p = rng.choice((2, 3, 5))
        assert zero_counts(n, [mu], p) == (compute_column(n, mu, p).zero_count(),), (mu, p)


def test_zero_counts_validation():
    with pytest.raises(ValueError):
        zero_counts(4, [(3, 1)], 4)
    with pytest.raises(ValueError):
        zero_counts(4, [(3, 1), (2, 1)], 2)
    with pytest.raises(ValueError):
        zero_counts(4, [(1, 3)], 2)
