"""p-regular class labels, fibers of the p'-part map, and threshold predicates.

A permutation factors into commuting p-part and p'-part; on cycle types this
sends mu to the p-regular partition obtained by replacing each part a * p**k
(p not dividing a) with p**k parts a.  Columns of the character table indexed
by the same fiber of that map are congruent mod p, so the p-regular label is
the natural unit for divisibility bookkeeping.  One gate, _regular_label,
checks p and the parts of every label the functions below take.

The threshold predicates power_block_witness(lam, p, c) and
few_distinct_parts(lam, p, c) take n = |lam| and the scale threshold(n, c).
They and bounds.core_density_report compare with it only by one test,
_meets_threshold, biased toward accepting by REL_TOL.  The witness is a plain
(index, exponent) pair or None, and _threshold_cells turns the two predicates
into the four cells every printed row on a label carries.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

# enumerate_partitions is bound here only for the benchmark tracer's hook on
# padic.enumerate_partitions, and goes when the benchmark re-points that hook.
from .partitions import Partition, _grow, _partitions, enumerate_partitions, exponent_form  # noqa: F401

# Comparisons against the real-valued threshold are biased toward accepting by
# this relative tolerance, so float noise can never exclude a boundary case.
REL_TOL = 1e-9

# Validity floor for the scale constant c (strict).
C_MIN = math.sqrt(1.5) / math.pi

# Scale constant used when a record needs the threshold predicates and the
# caller does not supply one.  Any value above C_MIN works; 0.4 keeps the
# threshold low, so more columns qualify.
DEFAULT_C = 0.4


# Miller-Rabin on these bases decides primality exactly below _PRIME_LIMIT
# (Sorenson and Webster, Math. Comp. 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


# Every label of a census asks again about the same p.  Typed, so that a float
# never shares the entry of an int subclass of equal value.
@lru_cache(maxsize=None, typed=True)
def is_prime(m: int) -> bool:
    """Exact primality of an int below _PRIME_LIMIT; ValueError at or above it."""
    if not isinstance(m, int) or m < 2:
        return False
    if m >= _PRIME_LIMIT:
        raise ValueError(f"cannot decide whether {m} is prime: it is not below {_PRIME_LIMIT}")
    if m <= _PRIME_BASES[-1] or any(m % a == 0 for a in _PRIME_BASES):
        return m in _PRIME_BASES
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2**s, d odd
    for a in _PRIME_BASES:
        x = pow(a, (m - 1) >> s, m)  # a**d
        # m passes base a when a**d is 1 or some a**(d * 2**t), t < s, is -1
        if x != 1 and m - 1 not in [pow(x, 1 << t, m) for t in range(s)]:
            return False
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


def _regular_label(lam, p: int) -> Partition:
    lam = Partition(lam)
    _require_prime(p)
    if not all(a % p for a in lam):
        raise ValueError(f"{lam} has a part divisible by {p}")
    return lam


def p_regular_partitions(n: int, p: int) -> Iterator[Partition]:
    """Partitions of n with no part divisible by p, in canonical order.

    Stepped over the parts prime to p alone, so no other partition of n is
    visited: the largest such part at most x is x, or x - 1 when p divides x.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be non-negative")
    return _partitions(n, [x - (x % p == 0) for x in range(n + 1)])


@lru_cache(maxsize=None)
def _power_partitions(b: int, p: int) -> tuple[Partition, ...]:
    # Partitions of b into powers of p, in canonical order: below[x] is the
    # largest power of p that is at most x.
    below = [1]
    for x in range(1, b + 1):
        below.append(below[-1] * p if below[-1] * p == x else below[-1])
    return tuple(_partitions(b, below))


# p -> [b_p(0), b_p(1), ...], b_p(m) the number of partitions of m into
# powers of p, grown in place like the series in cores.
_power_partition_counts: dict[int, list[int]] = {}


def fiber_partitions(lam, p: int) -> Iterator[Partition]:
    """All mu with p_prime_part(mu, p) == lam, for a p-regular lam.

    Built multiplicatively: for each distinct part a with multiplicity b,
    choose independently a partition of b into p-powers; a block of p**k
    copies of a fuses into one part a * p**k.  Duplicate-free because the
    p-adic valuation of a part recovers its block.
    """
    lam = _regular_label(lam, p)
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
    lam = _regular_label(lam, p)
    counts = _power_partition_counts.setdefault(p, [1])
    if len(counts) <= len(lam):  # no multiplicity exceeds the number of parts
        # a partition of m into powers of p has a part 1, or is p times one of m / p
        _grow(counts, len(lam), lambda m: counts[m - 1] + (0 if m % p else counts[m // p]))
    return math.prod(counts[b] for _, b in exponent_form(lam))


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
    lam = _regular_label(lam, p)
    parts: list[int] = []
    for a, b in exponent_form(lam):
        for t, digit in enumerate(p_adic_digits(b, p)):
            parts.extend([a * p ** t] * digit)
    parts.sort(reverse=True)
    return Partition._unchecked(tuple(parts))


def threshold(n: int, c: float) -> float:
    """c * sqrt(n) * ln(n), the scale of the predicates below (natural log throughout)."""
    return c * math.sqrt(n) * math.log(n)


def _meets_threshold(x: float, n: int, c: float) -> bool:
    bound = threshold(n, c)
    return x >= bound - REL_TOL * abs(bound)


def _check_predicate_input(lam, p: int, c: float) -> Partition:
    lam = Partition(lam)
    _require_prime(p)
    _require_scale(c)
    if lam.n < 2:
        raise ValueError("threshold predicates require n >= 2" if lam.n else "n must be positive")
    return _regular_label(lam, p)


def power_block_witness(lam, p: int, c: float) -> tuple[int, int] | None:
    """Witness that some distinct part of lam, n = |lam|, reaches the threshold.

    Looks for a distinct part a_i (multiplicity b_i) with a_i * p**s at or
    above threshold(n, c), s the top digit position of b_i in base p (the
    largest s with p**s <= b_i); returns the first such (i, s), i counting
    distinct parts from 1 largest first, or None.
    s is the rule digit_representative uses, so a witness exists exactly when
    that representative's largest part reaches the threshold.
    """
    lam = _check_predicate_input(lam, p, c)
    for index, (a, b) in enumerate(exponent_form(lam), start=1):
        s = len(p_adic_digits(b, p)) - 1
        if _meets_threshold(a * p ** s, lam.n, c):
            return index, s
    return None


def few_distinct_parts(lam, p: int, c: float) -> bool:
    """True when lam has at most sqrt(n)/(c * p * ln(n)) distinct parts, n = |lam|.

    Implies power_block_witness(lam, p, c) is not None: some part class then
    carries total size a_i * b_i >= n / h >= p * threshold(n, c).  The bound
    on h is tested in that form, n / (p * h) >= threshold(n, c).
    """
    lam = _check_predicate_input(lam, p, c)
    return _meets_threshold(lam.n / (p * len(exponent_form(lam))), lam.n, c)


def _threshold_cells(lam, p: int, c: float) -> dict:
    """The threshold cells of a row on the label lam, in printed order:
    qualifies_threshold, the witness's index and exponent (None without one)
    and qualifies_few_parts."""
    witness = power_block_witness(lam, p, c)
    index, exponent = witness or (None, None)
    return {
        "qualifies_threshold": witness is not None,
        "witness_index": index,
        "witness_exponent": exponent,
        "qualifies_few_parts": few_distinct_parts(lam, p, c),
    }
