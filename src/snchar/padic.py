"""p-regular class labels, fibers of the p'-part map, and threshold predicates.

A permutation factors into commuting p-part and p'-part; on cycle types this
sends mu to the p-regular partition obtained by replacing each part a * p**k
(p not dividing a) with p**k parts a.  Columns of the character table indexed
by the same fiber of that map are congruent mod p, so the p-regular label is
the natural unit for divisibility bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

# enumerate_partitions is bound here only for the benchmark tracer's hook on
# padic.enumerate_partitions, and goes when the benchmark re-points that hook.
from .partitions import Partition, enumerate_partitions, exponent_form  # noqa: F401

# Comparisons against the real-valued threshold are biased toward accepting by
# this relative tolerance, so float noise can never exclude a boundary case.
REL_TOL = 1e-9

# Validity floor for the scale constant c (strict).
C_MIN = math.sqrt(1.5) / math.pi


def is_prime(m: int) -> bool:
    if not isinstance(m, int) or m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")


def _require_scale(c: float) -> None:
    # A finite c above the floor; c = inf would put every threshold out of reach.
    if not (math.isfinite(c) and c > C_MIN):
        raise ValueError(f"c must be finite and exceed sqrt(3/2)/pi = {C_MIN:.9f}, got {c}")


def p_prime_part(mu, p: int) -> Partition:
    """Cycle type of the p'-part: each part a * p**k (p not dividing a)
    contributes p**k parts a.  Size-preserving, idempotent, lands in the
    p-regular partitions."""
    _require_prime(p)
    out: list[int] = []
    for part in mu:
        a, copies = part, 1
        while a % p == 0:
            a //= p
            copies *= p
        out.extend([a] * copies)
    out.sort(reverse=True)
    return Partition._unchecked(tuple(out))


def is_p_regular(lam, p: int) -> bool:
    """True when no part is divisible by p."""
    _require_prime(p)
    return all(a % p for a in lam)


def p_regular_partitions(n: int, p: int) -> Iterator[Partition]:
    """Partitions of n with no part divisible by p, in canonical order.

    Built from the parts prime to p alone, stepping the way
    enumerate_partitions does: lower the last part above 1 to the next
    part prime to p, then refill greedily.  1 is always such a part, so no
    remainder is ever stuck and no other partition of n is visited.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be non-negative")
    parts: list[int] = []
    rest = top = n  # size still to fill, and the largest part allowed
    while True:
        while rest:
            a = min(top, rest)
            if a % p == 0:
                a -= 1
            parts.append(a)
            rest -= a
            top = a
        yield Partition._unchecked(tuple(parts))
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        top = parts[i] - 1
        if top % p == 0:
            top -= 1
        rest = parts[i] + len(parts) - 1 - i - top
        parts[i] = top
        del parts[i + 1:]


@lru_cache(maxsize=None)
def _power_partitions(b: int, p: int) -> tuple[tuple[int, ...], ...]:
    # Partitions of b into powers of p, parts descending, largest powers first.
    powers = []
    q = 1
    while q <= b:
        powers.append(q)
        q *= p
    powers.reverse()
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, idx: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if idx == len(powers):
            return
        q = powers[idx]
        for count in range(remaining // q, -1, -1):
            rec(remaining - count * q, idx + 1, acc + [q] * count)

    rec(b, 0, [])
    return tuple(out)


@lru_cache(maxsize=None)
def _power_partition_count(b: int, p: int) -> int:
    # Coin-style DP; avoids materializing the (possibly large) enumeration.
    table = [0] * (b + 1)
    table[0] = 1
    q = 1
    while q <= b:
        for v in range(q, b + 1):
            table[v] += table[v - q]
        q *= p
    return table[b]


def fiber_partitions(lam, p: int) -> Iterator[Partition]:
    """All mu with p_prime_part(mu, p) == lam, for a p-regular lam.

    Built multiplicatively: for each distinct part a with multiplicity b,
    choose independently a partition of b into p-powers; a block of p**k
    copies of a fuses into one part a * p**k.  Duplicate-free because the
    p-adic valuation of a part recovers its block.
    """
    lam = Partition(lam)
    if not is_p_regular(lam, p):
        raise ValueError(f"{lam} has a part divisible by {p}")
    option_lists = [
        [tuple(a * q for q in combo) for combo in _power_partitions(b, p)]
        for a, b in exponent_form(lam)
    ]
    for choice in itertools.product(*option_lists):
        parts = [x for combo in choice for x in combo]
        parts.sort(reverse=True)
        yield Partition._unchecked(tuple(parts))


def fiber_size(lam, p: int) -> int:
    """Cardinality of the fiber over lam, without enumerating it."""
    lam = Partition(lam)
    if not is_p_regular(lam, p):
        raise ValueError(f"{lam} has a part divisible by {p}")
    size = 1
    for _, b in exponent_form(lam):
        size *= _power_partition_count(b, p)
    return size


def p_adic_digits(value: int, p: int) -> tuple[int, ...]:
    """Base-p digits of a non-negative integer, least significant first;
    empty for 0, top digit nonzero otherwise."""
    _require_prime(p)
    if value < 0:
        raise ValueError("value must be non-negative")
    digits = []
    while value:
        value, d = divmod(value, p)
        digits.append(d)
    return tuple(digits)


def digit_representative(lam, p: int) -> Partition:
    """The fiber member that splits each multiplicity into its base-p digits.

    Each distinct part a with multiplicity b contributes, for every base-p
    digit f_t of b, f_t parts a * p**t.  The result always lies in the fiber
    over lam, and its largest part is max over part classes of a * p**s with
    s the top digit position of the multiplicity.
    """
    lam = Partition(lam)
    if not is_p_regular(lam, p):
        raise ValueError(f"{lam} has a part divisible by {p}")
    parts: list[int] = []
    for a, b in exponent_form(lam):
        for t, digit in enumerate(p_adic_digits(b, p)):
            parts.extend([a * p ** t] * digit)
    parts.sort(reverse=True)
    return Partition._unchecked(tuple(parts))


class _ThresholdFields(NamedTuple):
    p: int
    c: float
    n: int


class ThresholdParams(_ThresholdFields):
    """Scale parameters (p, c, n) for the threshold c * sqrt(n) * ln(n).

    log means the natural logarithm throughout.  c must strictly exceed
    sqrt(3/2)/pi, the floor below which the threshold regime is vacuous.
    """

    __slots__ = ()

    def __new__(cls, p: int, c: float, n: int):
        _require_prime(p)
        _require_scale(c)
        if n < 1:
            raise ValueError("n must be positive")
        return super().__new__(cls, p, c, n)

    @property
    def threshold(self) -> float:
        return self.c * math.sqrt(self.n) * math.log(self.n)


class PowerBlockWitness(NamedTuple):
    index: int  # 1-based position among distinct parts, largest part first
    exponent: int  # s with p**s <= multiplicity of that part


def _accept_ge(value: float, bound: float) -> bool:
    return value >= bound - REL_TOL * abs(bound)


def _accept_le(value: float, bound: float) -> bool:
    return value <= bound + REL_TOL * abs(bound)


def _check_predicate_input(lam: Partition, params: ThresholdParams) -> None:
    if params.n < 2:
        raise ValueError("threshold predicates require n >= 2")
    if lam.n != params.n:
        raise ValueError(f"|{lam}| = {lam.n} does not match n = {params.n}")
    if not is_p_regular(lam, params.p):
        raise ValueError(f"{lam} has a part divisible by {params.p}")


def power_block_witness(lam, params: ThresholdParams) -> Optional[PowerBlockWitness]:
    """Witness that some distinct part reaches the threshold scale.

    Looks for a distinct part a_i (multiplicity b_i) and s >= 0 with
    p**s <= b_i and a_i * p**s >= c * sqrt(n) * ln(n); returns the first such
    i with its maximal s, or None.  Equivalent to the largest part of
    digit_representative(lam, p) reaching the threshold.
    """
    lam = Partition(lam)
    _check_predicate_input(lam, params)
    thresh = params.threshold
    for index, (a, b) in enumerate(exponent_form(lam), start=1):
        s = 0
        while params.p ** (s + 1) <= b:
            s += 1
        if _accept_ge(a * params.p ** s, thresh):
            return PowerBlockWitness(index, s)
    return None


def few_distinct_parts(lam, params: ThresholdParams) -> bool:
    """True when the number of distinct parts is at most sqrt(n)/(c * p * ln(n)).

    Implies power_block_witness(lam, params) is not None: some part class then
    carries total size a_i * b_i >= c * p * sqrt(n) * ln(n).
    """
    lam = Partition(lam)
    _check_predicate_input(lam, params)
    h = len(exponent_form(lam))
    bound = math.sqrt(params.n) / (params.c * params.p * math.log(params.n))
    return _accept_le(h, bound)
