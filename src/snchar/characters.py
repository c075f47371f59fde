"""Character values of symmetric groups by rim-hook recursion, exact and mod p.

The value of the irreducible character indexed by alpha on the class with
cycle parts beta expands over removable rim hooks:

    chi(alpha, beta) = sum over rim hooks H of length beta_1 removable
                       from alpha of (-1)**leg(H) * chi(alpha - H, beta')

where beta' drops the consumed part and chi((), ()) = 1.  Parts of beta are
consumed largest first: if alpha has no hook of that length the whole branch
dies immediately, which is where the zeros this package censuses come from.
Rim-hook search runs on beta-sets (a hook of length t is a bead x with x - t
vacant), so each probe is linear in the number of parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cores import _rim_hook_options
from .padic import is_prime
from .partitions import Partition, enumerate_partitions, hook_lengths

_MISSING = object()


class MemoCache:
    """Memo table for (partition, parts-consumed) states of one evaluation.

    Keys are scoped to a fixed class partition, so the stage index identifies
    the remaining suffix.  Lookups never change results; the statistics exist
    for instrumentation only.
    """

    __slots__ = ("table", "hits", "misses")

    def __init__(self):
        self.table: dict = {}
        self.hits = 0
        self.misses = 0

    @property
    def entries(self) -> int:
        return len(self.table)


def _mn_eval(alpha: tuple, beta: tuple, modulus: int | None, cache: MemoCache | None) -> int:
    """Evaluate the rim-hook recursion; cache may be shared across alphas
    (same beta) or None to disable memoization entirely."""

    def rec(parts: tuple, stage: int) -> int:
        if stage == len(beta):
            return 1  # sizes track, so parts is () here
        if cache is not None:
            key = (parts, stage)
            value = cache.table.get(key, _MISSING)
            if value is not _MISSING:
                cache.hits += 1
                return value
            cache.misses += 1
        total = 0
        for child, leg in _rim_hook_options(parts, beta[stage]):
            v = rec(child, stage + 1)
            total += -v if leg & 1 else v
        if modulus is not None:
            total %= modulus
        if cache is not None:
            cache.table[key] = total
        return total

    try:
        return rec(alpha, 0)
    finally:
        # rec refers to itself; unbinding it frees the cache with its last
        # user instead of leaving it to the next full cyclic collection.
        del rec


@dataclass(frozen=True)
class CharColumn:
    """All character values on one conjugacy class.

    values holds one entry per partition of n, in enumerate_partitions(n)
    order; with a modulus set, every value lies in [0, modulus - 1].
    """

    n: int
    mu: Partition
    modulus: int | None
    values: tuple[int, ...]

    def zero_count(self) -> int:
        return self.values.count(0)


def mn_character(alpha, beta, p: int | None = None) -> int:
    """Character value chi^alpha on the class with cycle parts beta: exact, or
    reduced mod a prime p by running the recursion in modular arithmetic, so
    large values never build big integers."""
    if p is not None and not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    alpha = Partition(alpha)
    beta = Partition(beta)
    if alpha.n != beta.n:
        raise ValueError(f"|alpha| = {alpha.n} and |beta| = {beta.n} differ")
    return _mn_eval(tuple(alpha), tuple(beta), p, MemoCache())


def compute_column(n: int, mu, modulus: int | None = None) -> CharColumn:
    """Character values for every partition of n on the class mu, in canonical
    order, sharing one memo cache across the whole column."""
    mu = Partition(mu)
    if n < 0:
        raise ValueError("n must be non-negative")
    if mu.n != n:
        raise ValueError(f"{mu} is not a partition of {n}")
    if modulus is not None and not is_prime(modulus):
        raise ValueError(f"modulus must be prime, got {modulus!r}")
    cache = MemoCache()
    beta = tuple(mu)
    values = tuple(
        _mn_eval(tuple(alpha), beta, modulus, cache) for alpha in enumerate_partitions(n)
    )
    return CharColumn(n=n, mu=mu, modulus=modulus, values=values)


def dimension(alpha) -> int:
    """Dimension of the irreducible indexed by alpha: n! over the product of
    all hook lengths.  The division is asserted exact."""
    alpha = Partition(alpha)
    denom = math.prod(hook_lengths(alpha).values())
    q, r = divmod(math.factorial(alpha.n), denom)
    if r:
        raise ArithmeticError(f"hook product does not divide {alpha.n}! for {alpha}")
    return q
