import math
import random

import pytest

from _oracles import centralizer_order, dimension, mn_character
from conftest import dense, partitions_of
from snchar import characters
from snchar.characters import compute_column, zero_counts
from snchar.cores import is_k_core, multipartition_count
from snchar.padic import p_adic_digits
from snchar.partitions import Partition, enumerate_partitions, partition_count


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


def test_mod_requires_prime():
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
            exact = dense(compute_column(n, beta, None), n)
            for p in (2, 3, 5, 7):
                reduced = dense(compute_column(n, beta, p), n)
                assert reduced == tuple(v % p for v in exact)
                assert all(0 <= v < p for v in reduced)


def test_mod_matches_exact_on_samples():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 9)
        alpha = rng.choice(partitions_of(n))
        beta = rng.choice(partitions_of(n))
        p = rng.choice((2, 3, 5, 7))
        assert mn_character(alpha, beta, p=p) == mn_character(alpha, beta) % p


def test_compute_column_examples():
    col = dense(compute_column(4, P(4)), 4)
    assert col == (1, -1, 0, 1, -1)
    assert sum(v * v for v in col) == centralizer_order(P(4))
    assert dense(compute_column(1, P(1)), 1) == (1,)
    assert dense(compute_column(4, P(1, 1, 1, 1)), 4) == (1, 3, 2, 3, 1)


def test_compute_column_validation():
    with pytest.raises(ValueError):
        compute_column(5, P(3, 1))


def test_column_keys_canonical_order():
    # the keys are the nonzero rows, each a Partition in canonical form
    col = compute_column(6, P(3, 2, 1), modulus=3)
    assert all(type(alpha) is Partition for alpha in col)
    assert col == {
        alpha: v
        for alpha in enumerate_partitions(6)
        if (v := mn_character(alpha, P(3, 2, 1), p=3))
    }


def test_column_reduced_matches_mod_column():
    # an exact column reduced afterwards equals the column computed mod p
    exact = dense(compute_column(12, P(5, 4, 3)), 12)
    assert tuple(v % 3 for v in exact) == dense(compute_column(12, P(5, 4, 3), 3), 12)


@pytest.mark.parametrize("p", [None, 2, 3, 5], ids=["exact", "mod2", "mod3", "mod5"])
def test_forward_column_matches_backward_recursion(p):
    # compute_column adds rim hooks forward over a whole column; mn_character
    # strips them backward one entry at a time, so the routes share no code.
    for n in range(11):
        for mu in partitions_of(n):
            assert dense(compute_column(n, mu, p), n) == tuple(
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
        assert dense(compute_column(n, mu, p), n)[row] == expected


@pytest.mark.parametrize("p, max_n", [(2, 40), (3, 40), (5, 30)])
def test_identity_column_counts_p_prime_degrees(p, max_n):
    # Macdonald (1971): S_n has prod_i multipartition_count(p**i, a_i)
    # irreducible characters of degree prime to p, over the base-p digits a_i
    # of n; those are the nonzero rows of the identity column mod p.
    for n in range(max_n + 1):
        nonzero = partition_count(n) - dense(compute_column(n, (1,) * n, p), n).count(0)
        assert nonzero == math.prod(
            multipartition_count(p**i, a) for i, a in enumerate(p_adic_digits(n, p))
        )


def test_compute_column_enumerates_no_partitions(monkeypatch):
    # a column is decoded from the kernel's last bead masks, so its cost is
    # its nonzero rows, not the 966 467 partitions of 60
    def refuse(*args):
        raise AssertionError("compute_column enumerated the partitions of n")

    monkeypatch.setattr(characters, "enumerate_partitions", refuse)
    monkeypatch.setattr(characters, "_row_masks", refuse)
    column = compute_column(60, (20,) + (2,) * 20, 2)
    assert partition_count(60) - len(column) == 961347


def test_dimension_examples():
    for n in range(1, 10):
        assert dimension(P(n)) == 1
    assert dimension(P(2, 2)) == 2
    assert dimension(P(3, 1)) == 3


def test_first_column_is_dimensions():
    for n in range(1, 15):
        ones = P(*([1] * n))
        col = dense(compute_column(n, ones), n)
        dims = [dimension(alpha) for alpha in partitions_of(n)]
        assert list(col) == dims
        assert sum(d * d for d in dims) == math.factorial(n)


def test_column_orthogonality():
    for n in range(1, 9):
        columns = {mu: dense(compute_column(n, mu), n) for mu in partitions_of(n)}
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
                col = dense(compute_column(n, mu), n)
                for alpha, value in zip(partitions_of(n), col):
                    if alpha in cores:
                        assert value == 0


def test_memo_cache_statistics(monkeypatch):
    # the forward counters the benchmark tracer reads as characters.states,
    # recorded through a subclass as the tracer does
    made = []

    class Recording(characters.MemoCache):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(characters, "MemoCache", Recording)
    column = compute_column(12, P(5, 4, 3), 3)
    assert len(made) == 1
    assert len(made[0].table) == partition_count(12) - dense(column, 12).count(0)
    runs = []
    for _ in range(2):
        made.clear()
        zero_counts(12, partitions_of(12), 3)
        walk = made[-1]  # the move-table build before the walk has a cache of its own
        runs.append((walk.hits, walk.misses, len(walk.table)))
    assert runs[0][1] > 0
    assert runs[0] == runs[1]


def test_zero_counts_any_classes_in_given_order():
    # every class, not only p-regular ones, in reverse order with repeats
    for n in range(9):
        classes = list(reversed(partitions_of(n))) + [partitions_of(n)[0]]
        for p in (2, 3):
            expected = tuple(dense(compute_column(n, mu, p), n).count(0) for mu in classes)
            assert zero_counts(n, classes, p) == expected


def test_zero_counts_move_tables_match_mask_step_on_random_pairs():
    # zero_counts steps through rank-indexed move tables; compute_column adds
    # the same hooks on bead masks
    rng = random.Random(2019)
    for _ in range(200):
        n = rng.randint(14, 24)
        mu = rng.choice(partitions_of(n))
        p = rng.choice((2, 3, 5))
        assert zero_counts(n, [mu], p) == (dense(compute_column(n, mu, p), n).count(0),), (mu, p)


def test_zero_counts_validation():
    with pytest.raises(ValueError):
        zero_counts(4, [(3, 1)], 4)
    with pytest.raises(ValueError):
        zero_counts(4, [(3, 1), (2, 1)], 2)
    with pytest.raises(ValueError):
        zero_counts(4, [(1, 3)], 2)
