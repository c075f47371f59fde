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
counts come from a separate convolution of the partition numbers, so the
fiber identity compares two routes that share nothing but p(n).

_rim_hook_options, one rim-hook removal, has no caller in the
package; it is kept only for the benchmark tracer's hook in snchar.characters.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import _parts_from_beads, partition_count


def _rim_hook_options(parts: tuple, length: int) -> list[tuple[tuple, int]]:
    """All single rim-hook removals of the given length from a raw part tuple.

    On the beta-set: a hook of length t is a bead x with x - t vacant, and the
    leg length of that rim hook is the number of beads strictly between x - t
    and x.  Returns (child parts, leg length) pairs; empty list when no such
    hook exists.
    """
    r = len(parts)
    if r == 0 or length > parts[0] + r - 1:
        return []
    beta = [parts[i] + r - 1 - i for i in range(r)]
    occupied = set(beta)
    out = []
    for pos, x in enumerate(beta):
        y = x - length
        if y < 0 or y in occupied:
            continue
        leg = 0
        for z in beta[pos + 1:]:
            if z > y:
                leg += 1
            else:
                break
        new_beta = beta[:pos] + beta[pos + 1: pos + 1 + leg] + [y] + beta[pos + 1 + leg:]
        out.append((_parts_from_beads(tuple(new_beta)), leg))
    return out


# k -> [e_k(0), e_k(1), ...], e_k(m) = [x^m] prod_{j>=1} (1 - x^j)^k; each
# series is built once and extended in place when a larger n needs more terms.
_euler_powers: dict[int, list[int]] = {}


def _euler_power(k: int, top: int) -> list[int]:
    # E(x) = prod_j (1 - x^j) = sum_i e_i x^i has e_i = (-1)^j at the
    # pentagonal numbers i = j(3j -+ 1)/2 and 0 elsewhere.  F = E^k satisfies
    # x F' E = k x E' F, so m f_m = sum_{1 <= i <= m} ((k + 1) i - m) e_i f_{m-i}.
    f = _euler_powers.setdefault(k, [1])
    if len(f) <= top:
        pentagonal = []  # (i, e_i), ascending i <= top
        j = 1
        while (g := j * (3 * j - 1) // 2) <= top:
            sign = -1 if j & 1 else 1
            pentagonal.append((g, sign))
            if g + j <= top:
                pentagonal.append((g + j, sign))
            j += 1
        for m in range(len(f), top + 1):
            total = 0
            for i, e in pentagonal:
                if i > m:
                    break
                total += ((k + 1) * i - m) * e * f[m - i]
            f.append(total // m)
    return f


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
    which keeps the convolution-based multipartition counts it is compared
    with in the fiber identity honest.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 1:
        raise ValueError("k must be positive")
    if k > n:
        return partition_count(n)  # no hook can reach length k
    return _core_count_row(n)[k]


_pk_cache: dict[int, list[int]] = {}


def multipartition_count(k: int, m: int) -> int:
    """Number of k-component multipartitions of m.

    Coefficient of q**m in the k-th power of the partition generating series,
    by about 2 log2 k convolutions (squaring); exact, cached per k.  A series
    too short for m is rebuilt to at least twice its length, so a sweep over
    m rebuilds it a logarithmic number of times.  It shares nothing with the
    k-core series but p(n), which keeps the fiber identity an independent
    cross-check.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if m < 0:
        raise ValueError("m must be non-negative")
    series = _pk_cache.get(k)
    if series is None or len(series) <= m:
        top = max(m, 2 * len(series or ()))
        series, power = None, [partition_count(j) for j in range(top + 1)]
        for i in range(k.bit_length()):
            if i:
                power = _convolve(power, power, top)  # P**(2**i)
            if k >> i & 1:
                series = power if series is None else _convolve(series, power, top)
        _pk_cache[k] = series
    return series[m]


def _convolve(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * (m + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(m + 1 - i):
                out[i + j] += ai * b[j]
    return out

