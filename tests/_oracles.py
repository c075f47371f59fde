"""Independent brute-force oracles the package is checked against.

Each oracle recomputes a quantity by a different route than the package:
recursive enumeration instead of the pentagonal recurrence, border-strip
construction on the diagram instead of the abacus, partition enumeration
instead of the k-core generating function, and the backward Murnaghan-Nakayama
recursion (mn_character), which strips border strips one entry at a time,
instead of the package's forward rim-hook addition over whole columns.
dimension (the hook-length formula on direct arm/leg counts) and
centralizer_order (the product formula, itself checked against permutation
counting) give the values the columns must reproduce.  k_core, the abacus
push-down, groups partitions by core and weight for the package's
multipartition counts; it is itself checked against naive_core_terminals
(exhaustive border-strip stripping) and greedy_core (stripping in a random
order).  rectangular_character gives a column on the class t^m in closed
form, from the t-quotient that the same abacus reads off, and
rectangular_zero_count its zero count mod p from the quotient's hook
lengths.  trial_division_is_prime checks the package's Miller-Rabin test.
Nothing here imports snchar, so no fast path can share code with
the oracle it is checked against.
"""

import itertools
import math
from collections import Counter
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


def dimension(alpha):
    """Degree of the irreducible character of alpha: n! over the product of
    the hook lengths."""
    hook_product = math.prod(naive_hooks(tuple(alpha)).values())
    degree, remainder = divmod(math.factorial(sum(alpha)), hook_product)
    assert remainder == 0, alpha
    return degree


def centralizer_order(mu):
    """Order of the centralizer of a permutation of cycle type mu: the product
    of i**m * m! over the part values i of multiplicity m."""
    return math.prod(i**m * math.factorial(m) for i, m in Counter(mu).items())


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


_MN_MEMOS = {}  # (beta, p) -> {(parts, stage): value}


def mn_character(alpha, beta, p=None):
    """chi^alpha on the class with cycle parts beta, exact or mod p, by the
    backward Murnaghan-Nakayama recursion: strip a border strip of length
    beta[0] from alpha in every way, sign each child's value by the strip's
    leg length, and recurse on beta[1:].  The memo is kept per (beta, p), so
    the entries of one column share their states."""
    beta = tuple(beta)
    memo = _MN_MEMOS.setdefault((beta, p), {})

    def rec(parts, stage):
        if stage == len(beta):
            return int(not parts)
        key = (parts, stage)
        if key not in memo:
            total = 0
            for child, leg in naive_rim_hook_removals(parts, beta[stage]):
                value = rec(child, stage + 1)
                total += -value if leg % 2 else value
            memo[key] = total if p is None else total % p
        return memo[key]

    return rec(tuple(alpha), 0)


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


def greedy_core(parts, k, rng):
    """Strip k-rim-hooks one at a time, each picked uniformly by rng among
    the sorted border-strip removals, until none is left."""
    parts = tuple(parts)
    while True:
        options = sorted(naive_rim_hook_removals(parts, k))
        if not options:
            return parts
        parts = rng.choice(options)[0]


def _abacus(parts, k):
    """The rows of the beads on each of k runners, highest first: part a_i of
    r parts is the bead a_i + r - 1 - i, on runner bead % k at row bead // k."""
    r = len(parts)
    runners = [[] for _ in range(k)]
    for i, a in enumerate(parts):
        bead = a + r - 1 - i  # decreasing, so each runner's rows are too
        runners[bead % k].append(bead // k)
    return runners


def k_core(parts, k):
    """(core, weight): the k-core of a partition and the number of k-rim-hooks
    stripped to reach it, by the abacus push-down.

    Pushing every bead to the bottom of its runner strips all the k-rim-hooks
    at once, and each row a bead falls is one of them.
    """
    r = len(parts)
    runners = _abacus(parts, k)
    weight = 0
    beads = []
    for j, rows in enumerate(runners):
        for new_row, row in enumerate(reversed(rows)):
            weight += row - new_row
            beads.append(new_row * k + j)
    beads.sort(reverse=True)
    core = tuple(bead - (r - 1 - i) for i, bead in enumerate(beads))
    return tuple(a for a in core if a > 0), weight


def rectangular_character(alpha, t):
    """chi^alpha on the class t^m, m = |alpha| / t, by the closed form
    (James-Kerber 1981, ch. 2): 0 unless alpha has an empty t-core, else
    (-1)^(the legs of any sequence of t-rim-hook removals) times
    m! / prod |alpha^(i)|! * prod f^(alpha^(i)) over the t-quotient, read
    off the abacus runners as partitions.  The multinomial and the degrees do
    not depend on how the runners are ordered."""
    alpha = tuple(alpha)
    if k_core(alpha, t)[0]:
        return 0
    legs = 0
    parts = alpha
    while parts:
        parts, leg = min(naive_rim_hook_removals(parts, t))
        legs += leg
    quotient = [
        tuple(a for a in (row - (len(rows) - 1 - i) for i, row in enumerate(rows)) if a > 0)
        for rows in _abacus(alpha, t)
    ]
    value = math.factorial(sum(alpha) // t) * math.prod(map(dimension, quotient))
    value //= math.prod(math.factorial(sum(q)) for q in quotient)
    return -value if legs % 2 else value


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def rectangular_zero_count(t, m, p):
    """Rows of the column on the class t^m that are 0 mod p, by the closed
    form of rectangular_character: f^q = |q|! / prod of q's hook lengths, so
    |chi^alpha(t^m)| = m! / prod of the hook lengths over the t-quotient.  A
    row is therefore nonzero mod p exactly when alpha has an empty t-core
    and its quotient's hook lengths have total p-valuation v_p(m!).  The
    rows with an empty t-core are the t-multipartitions of m, counted here
    by size and valuation, one runner at a time."""
    # by_size[j][v]: the partitions of j whose hook lengths have p-valuation v
    by_size = [
        Counter(sum(_valuation(h, p) for h in naive_hooks(q).values()) for q in brute_partitions(j))
        for j in range(m + 1)
    ]
    runners = Counter({(0, 0): 1})  # (size, valuation) -> multipartitions so far
    for _ in range(t):
        grown = Counter()
        for (size, v), count in runners.items():
            for j in range(m - size + 1):
                for w, c in by_size[j].items():
                    grown[size + j, v + w] += count * c
        runners = grown
    return bounded_count(t * m, t * m) - runners[m, _valuation(math.factorial(m), p)]


def trial_division_is_prime(m):
    """Primality by trial division up to the square root."""
    return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))


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


def node_addition_cover(mp):
    """The at most k + 1 ways to grow a k-multipartition, a tuple of part
    tuples, by one node.

    With h the last nonempty component: add a node to component h at the end
    of its last row (when that stays a partition) or at the bottom of its
    first column, or put a first node into any later component.  The images
    of all multipartitions of m cover every multipartition of m + 1, which is
    what makes p_k(m + 1) <= (k + 1) p_k(m).
    """
    h = max((i + 1 for i, parts in enumerate(mp) if parts), default=0)

    def grown(i, parts):
        return mp[:i] + (parts,) + mp[i + 1:]

    out = set()
    if h:
        parts = mp[h - 1]
        if len(parts) == 1 or parts[-2] > parts[-1]:
            out.add(grown(h - 1, parts[:-1] + (parts[-1] + 1,)))
        out.add(grown(h - 1, parts + (1,)))
    for i in range(h, len(mp)):
        out.add(grown(i, (1,)))
    return out
