import math
import random
from collections import Counter

import pytest

from _oracles import (
    brute_partitions,
    centralizer_order,
    dimension,
    mn_character,
    naive_is_core,
    rectangular_character,
    rectangular_zero_count,
)
from conftest import dense, partitions_of
from snchar import characters
from snchar.characters import compute_column, zero_counts
from snchar.cores import multipartition_count
from snchar.padic import digit_representative, p_adic_digits, p_regular_partitions
from snchar.partitions import Partition, _bead_mask, _mask_partition, enumerate_partitions, partition_count


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
        compute_column(P(2, 1), modulus=6)


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
            exact = dense(compute_column(beta, None), n)
            for p in (2, 3, 5, 7):
                reduced = dense(compute_column(beta, p), n)
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
    col = dense(compute_column(P(4)), 4)
    assert col == (1, -1, 0, 1, -1)
    assert sum(v * v for v in col) == centralizer_order(P(4))
    assert dense(compute_column(P(1)), 1) == (1,)
    assert dense(compute_column(P(1, 1, 1, 1)), 4) == (1, 3, 2, 3, 1)


def test_compute_column_validation():
    # n is |mu|, so only the class and the modulus can be wrong
    for mu in ((1, 3), (2, 0), (2.0, 1)):
        with pytest.raises(ValueError):
            compute_column(mu)
    with pytest.raises(ValueError):
        compute_column(P(2, 1), modulus=1)


def test_column_keys_canonical_order():
    # the keys are the nonzero rows, each a Partition in canonical form
    col = compute_column(P(3, 2, 1), modulus=3)
    assert all(type(alpha) is Partition for alpha in col)
    assert col == {
        alpha: v
        for alpha in enumerate_partitions(6)
        if (v := mn_character(alpha, P(3, 2, 1), p=3))
    }


def test_column_reduced_matches_mod_column():
    # an exact column reduced afterwards equals the column computed mod p
    exact = dense(compute_column(P(5, 4, 3)), 12)
    assert tuple(v % 3 for v in exact) == dense(compute_column(P(5, 4, 3), 3), 12)


@pytest.mark.parametrize("p", [None, 2, 3, 5], ids=["exact", "mod2", "mod3", "mod5"])
def test_forward_column_matches_backward_recursion(p):
    # compute_column adds rim hooks forward over a whole column; mn_character
    # strips them backward one entry at a time, so the routes share no code.
    for n in range(11):
        for mu in partitions_of(n):
            assert dense(compute_column(mu, p), n) == tuple(
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
        assert dense(compute_column(mu, p), n)[row] == expected


@pytest.mark.parametrize("p, max_n", [(2, 40), (3, 40), (5, 30)])
def test_identity_column_counts_p_prime_degrees(p, max_n):
    # Macdonald (1971): S_n has prod_i multipartition_count(p**i, a_i)
    # irreducible characters of degree prime to p, over the base-p digits a_i
    # of n; those are the nonzero rows of the identity column mod p.
    for n in range(max_n + 1):
        nonzero = partition_count(n) - dense(compute_column((1,) * n, p), n).count(0)
        assert nonzero == math.prod(
            multipartition_count(p**i, a) for i, a in enumerate(p_adic_digits(n, p))
        )


@pytest.mark.parametrize("t, m", [(2, 12), (3, 10), (4, 8), (5, 6), (6, 5), (7, 4)])
def test_rectangular_class_matches_closed_form(t, m):
    # the oracle's closed form over the t-quotient, on every row, signs included
    column = compute_column((t,) * m)
    for alpha in brute_partitions(t * m):
        assert column.get(alpha, 0) == rectangular_character(alpha, t), alpha


@pytest.mark.parametrize("t, m, p", [(2, 4, 2), (2, 6, 3), (3, 4, 2), (4, 3, 3), (3, 3, 5)])
def test_rectangular_zero_count_matches_closed_form(t, m, p):
    # the mod-p count from the quotient's hook lengths, against the values
    assert rectangular_zero_count(t, m, p) == sum(
        rectangular_character(alpha, t) % p == 0 for alpha in brute_partitions(t * m)
    )


@pytest.mark.parametrize(
    "t, m, p", [(2, 15, 2), (3, 10, 2), (2, 16, 3), (4, 8, 3), (5, 6, 2), (2, 20, 2), (6, 5, 5), (5, 5, 5)]
)
def test_zero_counts_rectangular_class_matches_closed_form(t, m, p):
    # t^m among every class of n whose largest part is t, so the step
    # (n - t, t) into n runs with its lane among many
    labels = [(t,) + rest for rest in brute_partitions(t * m - t, t)]
    counts = zero_counts(labels, p)
    assert counts[labels.index((t,) * m)] == rectangular_zero_count(t, m, p)


def test_compute_column_enumerates_no_partitions(monkeypatch):
    # a column is decoded from the kernel's last bead masks, so its cost is
    # its nonzero rows, not the 966 467 partitions of 60
    def refuse(*args):
        raise AssertionError("compute_column enumerated the partitions of n")

    monkeypatch.setattr(characters, "enumerate_partitions", refuse)
    monkeypatch.setattr(characters, "_row_masks", refuse)
    column = compute_column((20,) + (2,) * 20, 2)
    assert partition_count(60) - len(column) == 961347


def test_dimension_examples():
    for n in range(1, 10):
        assert dimension(P(n)) == 1
    assert dimension(P(2, 2)) == 2
    assert dimension(P(3, 1)) == 3


def test_first_column_is_dimensions():
    for n in range(1, 15):
        ones = P(*([1] * n))
        col = dense(compute_column(ones), n)
        dims = [dimension(alpha) for alpha in partitions_of(n)]
        assert list(col) == dims
        assert sum(d * d for d in dims) == math.factorial(n)


def test_column_orthogonality():
    for n in range(1, 9):
        columns = {mu: dense(compute_column(mu), n) for mu in partitions_of(n)}
        labels = partitions_of(n)
        for i, mu in enumerate(labels):
            for nu in labels[i:]:
                dot = sum(x * y for x, y in zip(columns[mu], columns[nu]))
                assert dot == (centralizer_order(mu) if mu == nu else 0)


def test_core_rows_vanish():
    for n in range(1, 11):
        for k in range(1, n + 1):
            cores = [a for a in partitions_of(n) if naive_is_core(a, k)]
            for mu in partitions_of(n):
                if mu[0] != k:
                    continue
                col = dense(compute_column(mu), n)
                for alpha, value in zip(partitions_of(n), col):
                    if alpha in cores:
                        assert value == 0


@pytest.mark.parametrize("n", range(13))
def test_hooks_added_and_removed_agree(n):
    # the two directions of the bead rule: _rim_hook_options removes each rim
    # hook that _hooks adds to a partition of n, with a leg of the parity of
    # its sign (+ even, - odd), and removes no other
    for t in range(1, n + 2):
        sources = {}
        for source in partitions_of(n):
            for parity, targets in enumerate(characters._hooks(_bead_mask(source, n + t), t)):
                for target in targets:
                    sources.setdefault(_mask_partition(target), set()).add((source, parity))
        for target in partitions_of(n + t):
            options = characters._rim_hook_options(target, t)
            assert len({child for child, _ in options}) == len(options)
            assert {(child, leg & 1) for child, leg in options} == sources.get(target, set())


def test_core_sources_reach_their_own_targets():
    # the lemma a step (m, t) into n can rest on: on the m + t beads that
    # _lane_step uses, a t-core of m has exactly t rim hooks of length t to
    # add, one per runner, at distinct targets; each target has one removable
    # t-rim hook, which gives the core back, and no other source reaches it
    for m in range(13):
        masks = {alpha: _bead_mask(alpha, m) for alpha in partitions_of(m)}
        for t in range(1, 15):
            fill = (1 << t) - 1
            targets = {alpha: [key for keys in characters._hooks((mask << t) | fill, t) for key in keys]
                       for alpha, mask in masks.items()}
            cores = {alpha for alpha in masks if naive_is_core(alpha, t)}
            for alpha in cores:
                assert len(targets[alpha]) == len(set(targets[alpha])) == t, (m, t, alpha)
                for key in targets[alpha]:
                    (child, _), = characters._rim_hook_options(_mask_partition(key), t)
                    assert child == alpha, (m, t, alpha)
            from_cores = {key for alpha in cores for key in targets[alpha]}
            for alpha in masks.keys() - cores:
                assert from_cores.isdisjoint(targets[alpha]), (m, t, alpha)


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
    column = compute_column(P(5, 4, 3), 3)
    assert len(made) == 1
    assert len(made[0].table) == partition_count(12) - dense(column, 12).count(0)
    runs = []
    for _ in range(2):
        made.clear()
        zero_counts(partitions_of(12), 3)
        assert len(made) == 1  # one set of counters for every step of the call
        runs.append((made[0].hits, made[0].misses, len(made[0].table)))
    assert runs[0][1] > 0
    assert runs[0] == runs[1]


def test_zero_counts_any_classes_in_given_order():
    # every class, not only p-regular ones, in reverse order with repeats
    for n in range(9):
        classes = list(reversed(partitions_of(n))) + [partitions_of(n)[0]]
        for p in (2, 3):
            expected = tuple(dense(compute_column(mu, p), n).count(0) for mu in classes)
            assert zero_counts(classes, p) == expected


def test_zero_counts_one_class_steps_match_compute_column_on_random_pairs():
    # a class alone takes every step of its trie path in one unbounded int
    # and reads its vectors by partition rank; compute_column keeps bead masks
    rng = random.Random(2019)
    for _ in range(200):
        n = rng.randint(14, 24)
        mu = rng.choice(partitions_of(n))
        p = rng.choice((2, 3, 5))
        assert zero_counts([mu], p) == (dense(compute_column(mu, p), n).count(0),), (mu, p)


def test_zero_counts_lanes_match_compute_column_on_random_sets():
    # many classes per call, so classes that share their largest part take
    # their last step together in byte lanes; each is checked on its own
    rng = random.Random(1729)
    for _ in range(12):
        n = rng.randint(14, 24)
        p = rng.choice((2, 3, 5, 7))
        classes = rng.sample(partitions_of(n), min(len(partitions_of(n)), rng.randint(20, 160)))
        expected = tuple(dense(compute_column(mu, p), n).count(0) for mu in classes)
        assert zero_counts(classes, p) == expected, (n, p)


@pytest.mark.parametrize("extra", [0, 1], ids=["lanes", "lanes-plus-one"])
def test_zero_counts_lane_chunk_boundaries(extra):
    # exactly _LANES classes with one largest part fill one lane int; one
    # more starts a second int holding a single class
    lanes = characters._LANES
    n = next(n for n in range(1, 60)
             if max(Counter(mu[0] for mu in partitions_of(n)).values()) >= lanes + 1)
    t = Counter(mu[0] for mu in partitions_of(n)).most_common(1)[0][0]
    classes = [mu for mu in partitions_of(n) if mu[0] == t][:lanes + extra]
    assert len(classes) == lanes + extra
    for p in (2, 3):
        expected = tuple(dense(compute_column(mu, p), n).count(0) for mu in classes)
        assert zero_counts(classes, p) == expected, p


@pytest.mark.parametrize("extra", [0, 1], ids=["lanes", "lanes-plus-one"])
def test_zero_counts_inner_lane_chunk_boundaries(extra):
    # the classes (t, t) + alpha, for alpha a partition of m with parts at
    # most t, share the inner step (m, t) into m + t < n = m + 2t: exactly
    # _LANES of them fill one lane int, and one more starts a second
    lanes = characters._LANES
    m, t = min(((m, t) for m in range(1, 30) for t in range(1, m + 1)
                if sum(alpha[0] <= t for alpha in partitions_of(m)) >= lanes + 1),
               key=lambda step: step[0] + 2 * step[1])
    n = m + 2 * t
    classes = [P(t, t, *alpha) for alpha in partitions_of(m) if alpha[0] <= t][:lanes + extra]
    assert len(classes) == lanes + extra
    for p in (2, 3):
        expected = tuple(dense(compute_column(mu, p), n).count(0) for mu in classes)
        assert zero_counts(classes, p) == expected, p


@pytest.mark.parametrize("n, p", [(24, 2), (22, 3)])
def test_zero_counts_builds_each_sizes_masks_once(monkeypatch, n, p):
    # a size's bead masks serve every step into it and out of it in a call
    asked = Counter()
    real = characters._row_masks

    def counting(size):
        asked[size] += 1
        return real(size)

    monkeypatch.setattr(characters, "_row_masks", counting)
    representatives = [digit_representative(lam, p) for lam in p_regular_partitions(n, p)]
    for classes in (representatives, partitions_of(n)):
        asked.clear()
        zero_counts(classes, p)
        assert asked and max(asked.values()) == 1, sorted(size for size, k in asked.items() if k > 1)


def test_zero_counts_keeps_no_process_wide_state():
    # nothing a call builds outlives it: no module-level container grows, and
    # no function of the module caches its results
    def containers():
        return {name: len(value) for name, value in vars(characters).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")}

    before = containers()
    zero_counts(partitions_of(24), 2)
    assert containers() == before
    assert not [name for name, value in vars(characters).items() if hasattr(value, "cache_info")]


@pytest.mark.parametrize("p", [131, 257])
def test_zero_counts_wide_primes_match_backward_recursion(p):
    # p * (n // t) >= 256 for small t, so those classes step alone in
    # unbounded ints; 257 does not fit a byte at all
    for n in range(1, 13):
        expected = tuple(sum(mn_character(alpha, mu, p) == 0 for alpha in partitions_of(n))
                         for mu in partitions_of(n))
        assert zero_counts(partitions_of(n), p) == expected, n


def test_zero_counts_degree_zero():
    # S_0 has one class, whose one character value is 1
    assert zero_counts([()], 2) == (0,)
    assert zero_counts([(), ()], 3) == (0, 0)
    assert zero_counts([], 2) == ()


def test_zero_counts_validation():
    with pytest.raises(ValueError):
        zero_counts([(3, 1)], 4)
    # classes of more than one size, the first class the larger or smaller
    for classes in ([(3, 1), (2, 1)], [(2, 1), (3, 1)], [*partitions_of(4), (5,)]):
        with pytest.raises(ValueError, match="one n"):
            zero_counts(classes, 2)
    with pytest.raises(ValueError):
        zero_counts([], 4)
    with pytest.raises(ValueError):
        zero_counts([(1, 3)], 2)
