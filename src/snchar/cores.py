"""k-hook removal, k-cores and k-quotients on the abacus, multipartition counts.

The abacus picture drives everything: a partition becomes bead positions on k
runners, removing a rim hook of length k slides one bead down its runner, and
the k-core is the configuration with every bead pushed down.  A classical
consequence used throughout: a partition has a hook of length divisible by k
iff it has one of length exactly k.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator, NamedTuple

from .partitions import (
    Partition,
    _beta_mask,
    _parts_from_beads,
    enumerate_partitions,
    partition_count,
)

COMPONENT_SEP = "|"


class CoreResult(NamedTuple):
    """Outcome of stripping all hooks of length k: the core and the number stripped."""

    core: Partition
    weight: int
    k: int


class _MultipartitionFields(NamedTuple):
    components: tuple[Partition, ...]


class Multipartition(_MultipartitionFields):
    """An ordered tuple of partitions; serializes as '|'-joined parts, e.g. "2,1|-|3"."""

    __slots__ = ()

    def __new__(cls, components):
        coerced = tuple(c if isinstance(c, Partition) else Partition(c) for c in components)
        return super().__new__(cls, coerced)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def total(self) -> int:
        return sum(c.n for c in self.components)

    def to_text(self) -> str:
        return COMPONENT_SEP.join(c.to_text() for c in self.components)

    @classmethod
    def from_text(cls, text: str) -> "Multipartition":
        return cls(tuple(Partition.from_text(tok) for tok in text.split(COMPONENT_SEP)))

    def __str__(self) -> str:
        return self.to_text()


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


def remove_rim_hook(lam, hook_length: int) -> set[tuple[Partition, int]]:
    """Every partition reachable by removing one rim hook of exactly hook_length
    cells, paired with that hook's leg length.  Empty set when no such hook exists."""
    if hook_length < 1:
        raise ValueError("hook length must be positive")
    return {
        (Partition._unchecked(child), leg)
        for child, leg in _rim_hook_options(tuple(lam), hook_length)
    }


def _normalized_runners(parts: tuple, k: int) -> tuple[list[list[int]], int]:
    # Beta-set size normalized to the smallest positive multiple of k that is
    # >= the number of parts; this pins the runner labelling, and the quotient
    # is invariant under growing the size by further multiples of k.
    r = -(-max(len(parts), 1) // k) * k
    runners: list[list[int]] = [[] for _ in range(k)]
    for i in range(r):
        x = (parts[i] if i < len(parts) else 0) + r - 1 - i
        runners[x % k].append(x // k)
    return runners, r


def k_core(lam, k: int) -> CoreResult:
    """Strip every hook of length divisible by k (abacus push-down).

    The result does not depend on the order hooks are removed in, nor on the
    beta-set size; |lam| = |core| + weight * k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    parts = tuple(lam)
    runners, _ = _normalized_runners(parts, k)
    weight = 0
    beads = []
    for j, rows in enumerate(runners):
        rows.sort()
        for new_row, row in enumerate(rows):
            weight += row - new_row
            beads.append(new_row * k + j)
    beads.sort(reverse=True)
    return CoreResult(Partition._unchecked(_parts_from_beads(tuple(beads))), weight, k)


def k_quotient(lam, k: int) -> Multipartition:
    """The k-tuple of partitions read off the k abacus runners.

    Component j collects the bead rows of runner j; the pair (core, quotient)
    determines the partition, and the quotient sizes sum to the core weight.
    """
    if k < 1:
        raise ValueError("k must be positive")
    parts = tuple(lam)
    runners, _ = _normalized_runners(parts, k)
    comps = []
    for rows in runners:
        rows.sort(reverse=True)
        comps.append(Partition._unchecked(_parts_from_beads(tuple(rows))))
    return Multipartition(tuple(comps))


def from_core_and_quotient(core, quotient: Multipartition) -> Partition:
    """Rebuild the partition with the given k-core and k-quotient.

    Inverse of (k_core, k_quotient) under the runner convention used there.
    """
    comps = quotient.components
    k = len(comps)
    if k < 1:
        raise ValueError("quotient must have at least one component")
    core = Partition(core)
    if not is_k_core(core, k):
        raise ValueError(f"{core} is not a {k}-core")
    # Enough rows per runner to hold every quotient component.
    q = len(core) + max((len(c) for c in comps), default=0) + 1
    r = k * q
    core_parts = tuple(core)
    runners: list[list[int]] = [[] for _ in range(k)]
    for i in range(r):
        x = (core_parts[i] if i < len(core_parts) else 0) + r - 1 - i
        runners[x % k].append(x // k)
    beads = []
    for j, comp in enumerate(comps):
        cj = len(runners[j])  # rows 0..cj-1, since the core is pushed down
        beads.extend(
            ((comp[t] if t < len(comp) else 0) + cj - 1 - t) * k + j for t in range(cj)
        )
    beads.sort(reverse=True)
    return Partition._unchecked(_parts_from_beads(tuple(beads)))


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


def enumerate_multipartitions(k: int, m: int) -> Iterator[Multipartition]:
    """All k-component multipartitions of m, first-component size descending."""
    if k < 1:
        raise ValueError("k must be positive")
    if m < 0:
        raise ValueError("m must be non-negative")

    def rec(idx: int, remaining: int):
        if idx == k - 1:
            for lam in enumerate_partitions(remaining):
                yield (lam,)
            return
        for size in range(remaining, -1, -1):
            for lam in enumerate_partitions(size):
                for rest in rec(idx + 1, remaining - size):
                    yield (lam, *rest)

    for combo in rec(0, m):
        yield Multipartition(combo)


def node_addition_cover(mp: Multipartition) -> set[Multipartition]:
    """The canonical at-most-(k+1) ways to grow a multipartition by one node.

    With h the last nonempty component: add a node to component h at the end
    of its last row (when that stays a partition) or at the bottom of its
    first column, or put a first node into any later component.  The images
    of all multipartitions of m cover every multipartition of m + 1, which is
    what makes p_k(m+1) <= (k+1) p_k(m).
    """
    comps = mp.components
    k = len(comps)
    h = 0
    for idx in range(k, 0, -1):
        if comps[idx - 1].n > 0:
            h = idx
            break
    out: set[Multipartition] = set()

    def with_component(idx: int, new_parts: tuple) -> Multipartition:
        return Multipartition(
            comps[:idx] + (Partition._unchecked(new_parts),) + comps[idx + 1:]
        )

    if h:
        parts = tuple(comps[h - 1])
        if len(parts) == 1 or parts[-2] > parts[-1]:
            out.add(with_component(h - 1, parts[:-1] + (parts[-1] + 1,)))
        out.add(with_component(h - 1, parts + (1,)))
    for idx in range(h, k):
        out.add(with_component(idx, (1,)))
    return out


def random_greedy_core(lam, k: int, rng: random.Random) -> Partition:
    """Strip removable k-rim-hooks in a random order until none remain.

    Agrees with k_core(lam, k).core for every order; used to test exactly that.
    """
    current = Partition(lam)
    while True:
        options = sorted(remove_rim_hook(current, k))
        if not options:
            return current
        current = rng.choice(options)[0]
