from functools import lru_cache

from hypothesis import strategies as st

from snchar import census
from snchar.partitions import Partition, enumerate_partitions


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(n))


def dense(column: dict, n: int) -> tuple:
    """A column's values in enumeration order, zero rows included."""
    return tuple(column.get(alpha, 0) for alpha in partitions_of(n))


def partitions_st(max_n: int, min_n: int = 0):
    """Hypothesis strategy over all partitions of sizes in [min_n, max_n]."""
    return st.integers(min_n, max_n).flatmap(lambda n: st.sampled_from(partitions_of(n)))


def inject_column_fault(monkeypatch, target, **swap):
    """Make census._forward_column answer for the class target, its parts
    given in any order, with the column of swap's mu and modulus, each
    defaulting to the one asked for."""
    real = census._forward_column

    def column(parts, modulus):
        if tuple(sorted(parts, reverse=True)) == tuple(target):
            parts, modulus = swap.get("mu", parts), swap.get("modulus", modulus)
        return real(parts, modulus)

    monkeypatch.setattr(census, "_forward_column", column)
