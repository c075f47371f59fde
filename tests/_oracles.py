"""Independent brute-force oracles the package is checked against.

Each oracle recomputes a quantity by a different route than the package:
recursive enumeration instead of the pentagonal recurrence, direct arm/leg
cell counts instead of beta-sets, permutation counting instead of the
centralizer formula, border-strip construction on the diagram instead of the
abacus, partition enumeration instead of the k-core generating function.
They stay independent of the code paths they validate.
"""

import itertools
from functools import lru_cache


def brute_partitions(n, max_part=None):
    """All partitions of n with parts <= max_part, reverse-lexicographic."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for head in range(min(n, max_part), 0, -1):
        for tail in brute_partitions(n - head, head):
            out.append((head,) + tail)
    return out


@lru_cache(maxsize=None)
def bounded_count(n, max_part):
    """Partitions of n into parts <= max_part, by the slow two-variable recurrence."""
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(bounded_count(n - head, head) for head in range(min(n, max_part), 0, -1))


def ascending_partitions(n):
    """Every partition of n once, parts ascending, one list at a time.

    Kelleher's ascending-composition generator: nothing is stored beyond the
    current partition, so n = 60 (about a million partitions) is streamed.
    """
    if n == 0:
        yield []
        return
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        last = k + 1
        while x <= y:
            a[k] = x
            a[last] = y
            yield a[:k + 2]
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a[:k + 1]


@lru_cache(maxsize=None)
def enumerated_core_row(n):
    """row[k] = number of k-cores of n for 1 <= k <= n + 1, by enumeration.

    Each partition is a bead mask (ascending part a_j sits at a_j + j); it is
    a k-core iff no bead has a gap exactly k below it, since a hook length
    divisible by k forces one equal to k.  No hook exceeds the top bead, so a
    partition is a k-core for every k above it; row[n + 1] is therefore p(n),
    the count for every k > n.  About 40 s for all n <= 60, once per process.
    """
    counts = [0] * (n + 2)
    tail = [0] * (n + 3)  # tail[j]: partitions whose largest hook is j - 1
    for parts in ascending_partitions(n):
        mask = 0
        for j, a in enumerate(parts):
            mask |= 1 << (a + j)
        top = max(mask.bit_length() - 1, 0)
        gaps = ((1 << (top + 1)) - 1) ^ mask
        for k in range(1, top + 1):
            if not ((mask >> k) & gaps):
                counts[k] += 1
        tail[top + 1] += 1
    run = 0
    for k in range(1, n + 2):
        run += tail[k]
        counts[k] += run
    return tuple(counts)


def enumerated_core_count(n, k):
    """c_k(n) from enumerated_core_row, for any k >= 1."""
    return enumerated_core_row(n)[min(k, n + 1)]


def naive_hooks(parts):
    """Hook lengths by direct arm/leg counting, keyed by 1-based (row, col)."""
    out = {}
    for i, row in enumerate(parts):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in parts[i + 1:] if r > j)
            out[(i + 1, j + 1)] = arm + leg + 1
    return out


def naive_is_core(parts, k):
    return all(h % k for h in naive_hooks(parts).values())


def representative_of_type(mu):
    """A permutation of {0..n-1} with cycle type mu, as a tuple mapping."""
    perm = []
    start = 0
    for part in mu:
        perm.extend(start + (idx + 1) % part for idx in range(part))
        start += part
    return tuple(perm)


def brute_centralizer_order(mu):
    """Count permutations commuting with a representative of cycle type mu."""
    n = sum(mu)
    rep = representative_of_type(mu)
    return sum(
        1
        for sigma in itertools.permutations(range(n))
        if all(sigma[rep[i]] == rep[sigma[i]] for i in range(n))
    )


def naive_rim_hook_removals(parts, t):
    """(child, leg) pairs by border-strip construction directly on the diagram.

    A removable strip of length t spanning rows i0..i1 forces the new row
    values mu[r] = parts[r+1] - 1 for i0 <= r < i1 and leaves mu[i1] free;
    the length constraint then pins mu[i1] = parts[i0] + (i1 - i0) - t.
    """
    out = set()
    length = len(parts)
    for i0 in range(length):
        for i1 in range(i0, length):
            v = parts[i0] + (i1 - i0) - t
            below = parts[i1 + 1] if i1 + 1 < length else 0
            if below <= v <= parts[i1] - 1:
                mu = list(parts)
                for r in range(i0, i1):
                    mu[r] = parts[r + 1] - 1
                mu[i1] = v
                out.add((tuple(a for a in mu if a > 0), i1 - i0))
    return out


@lru_cache(maxsize=None)
def naive_core_terminals(parts, k):
    """All end states of exhaustively stripping k-rim-hooks in every order."""
    options = naive_rim_hook_removals(parts, k)
    if not options:
        return frozenset([parts])
    out = set()
    for child, _ in options:
        out |= naive_core_terminals(child, k)
    return frozenset(out)


def brute_multipartitions(k, m):
    """All k-tuples of raw partitions with total size m."""
    if k == 1:
        return [(p,) for p in brute_partitions(m)]
    out = []
    for first in range(m, -1, -1):
        for head in brute_partitions(first):
            for tail in brute_multipartitions(k - 1, m - first):
                out.append((head,) + tail)
    return out
