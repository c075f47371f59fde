"""k-cores on the abacus: the k-core test, k-core counts by generating
function, multipartition counts.

A partition becomes bead positions on k runners, and a rim hook of length k
is a bead with a vacancy k below it.  A classical consequence used
throughout: a partition has a hook of length divisible by k iff it has one of
length exactly k, so is_k_core is a one-shift bitmask test.  The partitions
of n with a given k-core and weight w are as many as the k-component
multipartitions of w (one partition per runner, the k-quotient); the tests
check that count, which is what the core fiber identity in snchar.bounds
rests on.  _rim_hook_options, one rim-hook removal, has no caller in the
package; it is kept only for the benchmark tracer's hook in snchar.characters.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import _beta_mask, _parts_from_beads, partition_count


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


def is_k_core(lam, k: int) -> bool:
    """True when no hook length is divisible by k (abacus probe for a k-slide)."""
    if k < 1:
        raise ValueError("k must be positive")
    parts = tuple(lam)
    if not parts:
        return True
    mask = _beta_mask(parts)
    gaps = ((1 << (parts[0] + len(parts))) - 1) ^ mask
    return not ((mask >> k) & gaps)


@lru_cache(maxsize=None)
def _core_count_row(n: int) -> tuple[int, ...]:
    # row[k] = number of k-core partitions of n, for 1 <= k <= n (row[0] unused),
    # read off C_k(q) = P(q) * prod_{j>=1} (1 - q^(kj))^k.  With x = q^k,
    # row[k] = sum_m p(n - k m) * e_k(m), where e_k(m) = [x^m] prod_j (1 - x^j)^k.
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        top = n // k
        e = [1] + [0] * top
        for j in range(1, top + 1):
            for _ in range(k):
                for i in range(top, j - 1, -1):
                    e[i] -= e[i - j]
        row[k] = sum(partition_count(n - k * m) * e[m] for m in range(top + 1))
    return tuple(row)


def count_k_cores(n: int, k: int) -> int:
    """Number of k-core partitions of n, by the generating function
    P(q) * prod_{j>=1} (1 - q^(kj))^k (Garvan-Kim-Stanton).

    Exact at any n; rows are cached per n, so sweeping k costs one row.  The
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
    by repeated convolution; exact, cached per k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if m < 0:
        raise ValueError("m must be non-negative")
    series = _pk_cache.get(k)
    if series is None or len(series) <= m:
        base = [partition_count(j) for j in range(m + 1)]
        series = base
        for _ in range(k - 1):
            series = _convolve(series, base, m)
        _pk_cache[k] = series
    return series[m]


def _convolve(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * (m + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(m + 1 - i):
                out[i + j] += ai * b[j]
    return out

