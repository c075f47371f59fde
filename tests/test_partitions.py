import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    bounded_count,
    brute_centralizer_order,
    brute_partitions,
    centralizer_order,
    naive_hooks,
)
from conftest import partitions_of, partitions_st
from snchar.partitions import (
    Partition,
    _bead_mask,
    _mask_partition,
    enumerate_partitions,
    exponent_form,
    partition_count,
)


def test_partition_validation():
    assert Partition(()) == ()
    assert Partition((3, 1)).n == 4
    with pytest.raises(ValueError):
        Partition((1, 3))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((3, -1))
    with pytest.raises(ValueError):
        Partition((True, True))
    with pytest.raises(ValueError):
        Partition([1, 3])


def test_partition_of_a_partition_is_itself():
    # a Partition was checked when it was made, so it is not walked again
    q = Partition((3, 1, 1))
    assert Partition(q) is q
    assert type(Partition((3, 1, 1))) is Partition and Partition([3, 1, 1]) == q


def test_pickle_round_trip():
    # the --jobs pool pickles labels; a tuple subclass unpickles by default
    # through Partition.__new__, which validates, at every protocol from 2 on
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        for lam in (Partition(()), Partition((4, 1)), Partition((3, 3, 1, 1))):
            back = pickle.loads(pickle.dumps(lam, protocol))
            assert type(back) is Partition
            assert back == lam
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(Partition._unchecked((1, 3)), protocol))


def test_text_round_trip():
    assert Partition((4, 1)).to_text() == "4,1"
    assert Partition(()).to_text() == "-"
    assert Partition.from_text("4,1") == (4, 1)
    assert Partition.from_text("-") == ()
    with pytest.raises(ValueError):
        Partition.from_text("4,x")
    with pytest.raises(ValueError):
        Partition.from_text("1,4")


@pytest.mark.parametrize("text", ["4_1", "+4,1", "\u0664,1"], ids=["underscore", "plus", "arabic-indic"])
def test_text_takes_only_ascii_digits(text):
    # int() reads all three, the last with an Arabic-Indic four, as 41 or (4, 1)
    with pytest.raises(ValueError):
        Partition.from_text(text)


@given(partitions_st(18))
def test_text_round_trip_random(lam):
    assert Partition.from_text(lam.to_text()) == lam


def test_enumerate_zero():
    assert list(enumerate_partitions(0)) == [()]


def test_enumerate_four():
    assert [tuple(p) for p in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]


def test_enumerate_ten_length():
    assert sum(1 for _ in enumerate_partitions(10)) == 42


@pytest.mark.parametrize("n", range(13))
def test_enumerate_matches_bruteforce(n):
    assert [tuple(p) for p in enumerate_partitions(n)] == brute_partitions(n)


def test_enumerate_reverse_lex_order():
    for n in (6, 9, 11):
        stream = list(enumerate_partitions(n))
        assert stream[0] == (n,)
        assert all(a > b for a, b in zip(stream, stream[1:]))


def test_enumeration_length_matches_count():
    for n in range(41):
        assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


def test_count_small_values():
    assert partition_count(0) == 1
    assert partition_count(10) == len(brute_partitions(10)) == 42


def test_count_against_bounded_recurrence():
    for n in (25, 50, 100):
        assert partition_count(n) == bounded_count(n, n)
    assert partition_count(100) == 190569292


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        partition_count(-1)


def test_count_memo_safe_under_concurrent_growth():
    import random
    import threading

    failures = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(0, 260)
            if partition_count(n) != partition_count(n):
                failures.append(n)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    assert partition_count(200) == 3972999029388


def test_centralizer_examples():
    assert centralizer_order(Partition((1, 1, 1))) == 6
    assert centralizer_order(Partition((3,))) == brute_centralizer_order((3,)) == 3
    assert centralizer_order(Partition((2, 1, 1))) == 4


def test_centralizer_against_commuting_count():
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert centralizer_order(lam) == brute_centralizer_order(tuple(lam))


def test_class_equation():
    for n in range(16):
        fact = math.factorial(n)
        sizes = [fact // centralizer_order(mu) for mu in partitions_of(n)]
        assert all(fact % centralizer_order(mu) == 0 for mu in partitions_of(n))
        assert sum(sizes) == fact


def test_exponent_form():
    assert exponent_form(Partition((3, 3, 1))) == ((3, 2), (1, 1))
    assert exponent_form(Partition(())) == ()


def _beads(lam, size):
    # the bead positions of lam on a beta-set of the given size, decreasing
    return tuple((lam[i] if i < len(lam) else 0) + size - 1 - i for i in range(size))


def _hooks_from_mask(lam):
    # the abacus route: row i's hooks are x - y over the vacant y below its
    # bead x, column 1 first; the core-vanishing check's one-shift probe of
    # the row masks tests exactly this gap rule
    mask = _bead_mask(lam, len(lam))
    beads = [x for x in reversed(range(mask.bit_length())) if mask >> x & 1]
    out = {}
    for i, x in enumerate(beads, start=1):
        gaps = (y for y in range(x) if not mask >> y & 1)
        for j, y in enumerate(gaps, start=1):
            out[(i, j)] = x - y
    return out


def test_hook_examples():
    assert naive_hooks((1,)) == _hooks_from_mask(Partition((1,))) == {(1, 1): 1}
    assert sorted(naive_hooks((2, 2)).values()) == [1, 2, 2, 3]
    assert sorted(naive_hooks((3, 1)).values()) == [1, 1, 2, 4]


@pytest.mark.parametrize("n", range(13))
def test_hooks_against_naive_oracle(n):
    for lam in partitions_of(n):
        assert _hooks_from_mask(lam) == naive_hooks(tuple(lam))


def test_beta_set_examples():
    assert _mask_partition(0b111) == ()
    assert _mask_partition(0b100010) == (4, 1)
    assert _bead_mask((4, 1), 2) == 0b100010
    assert _bead_mask((4, 1), 4) == 0b10001011
    assert _bead_mask((), 0) == 0
    assert _bead_mask((), 3) == 0b111


def test_beta_round_trip_exhaustive():
    # every bead mask is built by _bead_mask and read by _mask_partition, at
    # any number of beads
    for n in range(21):
        for lam in partitions_of(n):
            for size in range(len(lam), len(lam) + 6):
                mask = _bead_mask(lam, size)
                assert mask == sum(1 << x for x in _beads(lam, size))
                decoded = _mask_partition(mask)
                assert type(decoded) is Partition and decoded == lam


@given(partitions_st(25), st.integers(0, 7))
def test_beta_round_trip_random(lam, extra):
    assert _mask_partition(sum(1 << x for x in _beads(lam, len(lam) + extra))) == lam
    assert _mask_partition(_bead_mask(lam, len(lam) + extra)) == lam
