"""k-cores on the abacus: k-core counts by generating function,
multipartition counts.

A partition becomes bead positions on k runners, and a rim hook of length k
is a bead with a vacancy k below it.  A classical consequence used
throughout: a partition has a hook of length divisible by k iff it has one of
length exactly k, so a partition is a k-core iff no bead x of its mask has
x - k vacant, a one-shift test (census.check_core_vanishing).  The partitions
of n with a given k-core and weight w are as many as the k-component
multipartitions of w (one partition per runner, the k-quotient); the tests
check that count, which is what the core fiber identity in snchar.bounds
rests on.

The k-core count of n is one dot product of the partition numbers with the
series of prod_j (1 - x^j)^k, which is built once per k by a recurrence over
the pentagonal numbers and extended in place as n grows.  Multipartition
counts come from their own recurrence over the divisor sums sigma(j), also
grown in place per k, so the fiber identity compares three routes that share
no arithmetic: pentagonal p(n), the pentagonal series, and sigma.  Every
series here grows through partitions._grow under the package's one lock, so
counts asked for from several threads agree with a single thread's.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .partitions import _grow, partition_count


# k -> [e_k(0), e_k(1), ...], e_k(m) = [x^m] prod_{j>=1} (1 - x^j)^k; each
# series is built once and extended in place when a larger n needs more terms.
_euler_powers: dict[int, list[int]] = {}


def _euler_power(k: int, top: int) -> list[int]:
    # E(x) = prod_j (1 - x^j) = sum_i e_i x^i has e_i = (-1)^j at the
    # pentagonal numbers i = j(3j -+ 1)/2 and 0 elsewhere.  F = E^k satisfies
    # x F' E = k x E' F, so m f_m = sum_{1 <= i <= m} ((k + 1) i - m) e_i f_{m-i}.
    f = _euler_powers.setdefault(k, [1])
    if len(f) > top:
        return f
    pentagonal = [(i, -1 if j & 1 else 1) for j in range(1, math.isqrt(top) + 2)
                  for i in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if i <= top]
    return _grow(f, top, lambda m: sum(
        ((k + 1) * i - m) * e * f[m - i] for i, e in pentagonal if i <= m) // m)


@lru_cache(maxsize=None)
def _core_count_row(n: int) -> tuple[int, ...]:
    # row[k] = number of k-core partitions of n, for 1 <= k <= n (row[0] unused),
    # read off C_k(q) = P(q) * prod_{j>=1} (1 - q^(kj))^k.  With x = q^k,
    # row[k] = sum_m p(n - k m) * e_k(m).
    counts = [partition_count(j) for j in range(n + 1)]
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        e = _euler_power(k, n // k)
        row[k] = sum(counts[n - k * m] * e[m] for m in range(n // k + 1))
    return tuple(row)


def count_k_cores(n: int, k: int) -> int:
    """Number of k-core partitions of n, by the generating function
    P(q) * prod_{j>=1} (1 - q^(kj))^k (Garvan-Kim-Stanton).

    Exact at any n; rows are cached per n, so sweeping k costs one row, and
    each row is one dot product per k with a series built once per k.  The
    tests check it against an enumeration of partitions by the hook criterion,
    which keeps the divisor-sum multipartition counts it is compared with in
    the fiber identity honest.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 1:
        raise ValueError("k must be positive")
    if k > n:
        return partition_count(n)  # no hook can reach length k
    return _core_count_row(n)[k]


# Divisor sums [0, sigma(1), sigma(2), ...], and k -> [p_k(0), p_k(1), ...];
# both grow in place like _euler_powers.
_divisor_sums: list[int] = [0]
_multipartitions: dict[int, list[int]] = {}


def _divisor_sum(j: int) -> int:
    # sigma(j) from the divisor pairs (d, j / d) with d <= sqrt(j)
    r = math.isqrt(j)
    total = sum(d + j // d for d in range(1, r + 1) if j % d == 0)
    return total - r if r * r == j else total


def multipartition_count(k: int, m: int) -> int:
    """Number of k-component multipartitions of m.

    Coefficient of q**m in P(q)**k, P the partition generating series.  Since
    q P'/P = sum_j sigma(j) q**j (sigma the divisor sum), the coefficients
    satisfy m f_m = k sum_{1 <= j <= m} sigma(j) f_{m-j}; exact, and grown in
    place per k.  It shares no code with p(n) or the k-core series, which
    keeps the fiber identity a cross-check of three independent routes.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if m < 0:
        raise ValueError("m must be non-negative")
    f = _multipartitions.setdefault(k, [1])
    if len(f) <= m:
        sigma = _grow(_divisor_sums, m, _divisor_sum)
        _grow(f, m, lambda i: k * sum(sigma[j] * f[i - j] for j in range(1, i + 1)) // i)
    return f[m]
