"""Character values of symmetric groups by the Murnaghan-Nakayama rule, exact
and mod p.

The value of the irreducible character indexed by alpha on the class with
cycle parts beta expands over rim hooks:

    chi(alpha, beta) = sum over rim hooks H of length beta_1 removable
                       from alpha of (-1)**leg(H) * chi(alpha - H, beta')

where beta' drops the consumed part and chi((), ()) = 1.  The rule holds for
any order of the parts, and it runs here in two directions:

- backward, for one entry (mn_character): rim hooks are stripped from alpha,
  largest part of beta first, memoized on (partition, parts consumed).  The
  probe runs on beta-sets (a hook of length t is a bead x with x - t vacant).
- forward, for a whole column (compute_column): starting from the empty
  partition, a rim hook is added for each part of mu, smallest first, on
  n-bead masks (a bead x moves to a vacant x + t, and the leg is the number
  of beads it jumps; _add_hooks).  One pass reaches every row; entries that
  cancel, mod p if a modulus is set, are dropped after each part, so the
  rows left at the end are exactly the nonzero ones.
- forward over many classes, for zero counts mod p only (zero_counts): the
  classes' ascending parts form a trie, walked depth first, so classes that
  share their smallest parts share that work.  A stage's vector has one
  entry per partition of m, the parts added so far, indexed by its rank in
  enumerate_partitions(m), and it steps through a move table cached per
  (m, t) for the life of the process: for each source rank, the target
  ranks reached with sign + and with sign -.  Each table row is _add_hooks
  on that one source, so the bead-move and leg-sign rule lives in one
  function.

The two directions share no code; the tests check each against the other.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress, repeat
from typing import NamedTuple

from .cores import _rim_hook_options
from .padic import is_prime
from .partitions import Partition, _beta_mask, enumerate_partitions, hook_lengths, partition_count

_MISSING = object()


class MemoCache:
    """Memo table and counters of one evaluation; they never change results
    and exist for instrumentation only.

    Backward (_mn_eval): table maps (partition, parts consumed) to a value,
    scoped to one class partition; a miss is a state evaluated, a hit a
    lookup answered from the table.  Forward (compute_column, and the rows
    of zero_counts' move tables): after each part, misses grow by the
    distinct states reached and hits by the moves that merged into a state
    already reached; table ends as the last vector built, the nonzero rows
    keyed by bead mask.  zero_counts' walk: after each part, misses grow by
    the nonzero rows kept and hits by the other moves; table ends as the
    last vector, one entry per row.
    """

    __slots__ = ("table", "hits", "misses")

    def __init__(self):
        self.table: dict = {}
        self.hits = 0
        self.misses = 0


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


class CharColumn(NamedTuple):
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
    """Character values for every partition of n on the class mu, in
    enumerate_partitions(n) order: exact, or reduced mod a prime modulus.

    The whole column is built forward in one pass, adding a rim hook for
    each part of mu (smallest first) to every state of the previous stage,
    starting from the empty partition.  Entries that cancel to zero (mod
    modulus, if set) are dropped after each part, so a row is zero exactly
    when the last stage does not reach it.
    """
    mu = Partition(mu)
    if n < 0:
        raise ValueError("n must be non-negative")
    if mu.n != n:
        raise ValueError(f"{mu} is not a partition of {n}")
    if modulus is not None and not is_prime(modulus):
        raise ValueError(f"modulus must be prime, got {modulus!r}")
    cache = MemoCache()
    states = {(1 << n) - 1: 1}
    for t in reversed(mu):
        states = _add_hooks(states, t, modulus, cache)
    cache.table = states
    values = tuple(map(states.get, _row_masks(n), repeat(0)))
    return CharColumn(n=n, mu=mu, modulus=modulus, values=values)


def zero_counts(n: int, labels, p: int) -> tuple[int, ...]:
    """Zero count mod a prime p of the column of each class in labels, all
    partitions of n, in the order given.

    Written with ascending parts, the labels form a trie, walked depth first,
    and only the vectors on the current path are alive.  The vector after
    parts summing to m has one entry per partition of m, in
    enumerate_partitions(m) order; a node adds one rim hook of length t to
    its parent's vector through the cached move table of (m, t), then
    reduces mod p.  A leaf's zero count is the zeros of its vector.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    if any(Partition(lam).n != n for lam in labels):
        raise ValueError(f"every class must be a partition of {n}")
    classes = sorted({tuple(lam)[::-1] for lam in labels})
    _build_move_tables(classes)
    cache = MemoCache()
    path = [[1]]  # path[i]: the vector after the i smallest parts
    sums = [0]  # sums[i]: the size of those parts
    previous: tuple = ()
    counts = {}
    for parts in classes:
        shared = 0
        while shared < min(len(parts), len(previous)) and parts[shared] == previous[shared]:
            shared += 1
        del path[shared + 1:], sums[shared + 1:]
        for t in parts[shared:]:
            m = sums[-1]
            path.append(_table_step(path[-1], _MOVE_TABLES[m, t], partition_count(m + t), p, cache))
            sums.append(m + t)
        counts[parts] = path[-1].count(0)
        previous = parts
    cache.table = path[-1]
    return tuple(counts[tuple(lam)[::-1]] for lam in labels)


# (m, t) -> (plus, minus): for the partition of rank r of m, plus[r] and
# minus[r] are the ranks of the partitions of m + t that adding a rim hook of
# length t reaches with sign + and sign -.  Tables do not depend on n, so the
# cache serves every census of the process; pool workers forked after
# _build_move_tables inherit it.
_MOVE_TABLES: dict[tuple[int, int], tuple[list, list]] = {}


def _build_move_tables(classes) -> None:
    """Cache the move table of every stage that the trie of classes, given
    as ascending part tuples, steps through."""
    wanted: dict[int, set[int]] = {}  # m + t -> the m to build tables from
    for parts in classes:
        m = 0
        for t in parts:
            if (m, t) not in _MOVE_TABLES:
                wanted.setdefault(m + t, set()).add(m)
            m += t
    cache = MemoCache()
    for k in sorted(wanted):
        rank = {mask: r for r, mask in enumerate(_row_masks(k))}
        for m in sorted(wanted[k]):
            # A partition of k has at most k parts, so k beads hold every
            # source and target: a source's k-bead mask is its m-bead mask
            # shifted past t more beads.
            t = k - m
            fill = (1 << t) - 1
            plus, minus = [], []
            for mask in _row_masks(m):
                reached = _add_hooks({(mask << t) | fill: 1}, t, None, cache)
                plus.append(tuple(rank[key] for key, v in reached.items() if v > 0))
                minus.append(tuple(rank[key] for key, v in reached.items() if v < 0))
            _MOVE_TABLES[m, t] = (plus, minus)


def _table_step(vector: list, table: tuple, size: int, p: int, cache: MemoCache) -> list:
    # One trie node: add v at each + target of a nonzero source of value v
    # and -v = p - v at each - target, then reduce mod p.
    plus, minus = table
    out = [0] * size
    for r, v in enumerate(vector):
        if v:
            for d in plus[r]:
                out[d] += v
            v = p - v
            for d in minus[r]:
                out[d] += v
    out = [x % p for x in out]
    kept = size - out.count(0)
    cache.misses += kept
    cache.hits += sum(map(len, compress(plus, vector))) + sum(map(len, compress(minus, vector))) - kept
    return out


def _add_hooks(states: dict, t: int, modulus: int | None, cache: MemoCache) -> dict:
    # One forward MN step: every way of adding a rim hook of length t to each
    # state, summed per new state, then reduced and stripped of zeros.
    reached: dict = {}
    moves = 0
    for mask, value in states.items():
        cand = mask & ~(mask >> t)
        moves += cand.bit_count()
        while cand:
            bit = cand & -cand
            cand ^= bit
            # the leg length is the number of beads the moved bead jumps
            jumped = mask & ((bit << t) - (bit << 1))
            key = mask ^ bit ^ (bit << t)
            reached[key] = reached.get(key, 0) + (-value if jumped.bit_count() & 1 else value)
    cache.misses += len(reached)
    cache.hits += moves - len(reached)
    if modulus is None:
        return {key: v for key, v in reached.items() if v}
    return {key: r for key, v in reached.items() if (r := v % modulus)}


@lru_cache(maxsize=8)
def _row_masks(n: int) -> tuple[int, ...]:
    # The n-bead mask of each partition of n, in enumerate_partitions(n) order:
    # the beads of its parts, shifted past one bead per zero part.
    return tuple(
        (_beta_mask(alpha) << (n - len(alpha))) | ((1 << (n - len(alpha))) - 1)
        for alpha in enumerate_partitions(n)
    )


def dimension(alpha) -> int:
    """Dimension of the irreducible indexed by alpha: n! over the product of
    all hook lengths.  The division is asserted exact."""
    alpha = Partition(alpha)
    denom = math.prod(hook_lengths(alpha).values())
    q, r = divmod(math.factorial(alpha.n), denom)
    if r:
        raise ArithmeticError(f"hook product does not divide {alpha.n}! for {alpha}")
    return q
