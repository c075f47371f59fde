"""Character values of symmetric groups by the Murnaghan-Nakayama rule, exact
and mod p.

The value of the irreducible character indexed by alpha on the class with
cycle parts mu expands over rim hooks:

    chi(alpha, mu) = sum over rim hooks H of length t removable from alpha
                     of (-1)**leg(H) * chi(alpha - H, mu minus the part t)

with chi((), ()) = 1.  The rule holds for any order of the parts, and it runs
here forward, adding rim hooks instead of removing them:

- for a whole column (compute_column): starting from the empty partition, a
  rim hook is added for each part of mu, smallest first, on n-bead masks (a
  bead x moves to a vacant x + t, and the leg is the number of beads it
  jumps; _add_hooks).  One pass reaches every row; entries that cancel, mod
  p if a modulus is set, are dropped after each part, so the rows left at
  the end are exactly the nonzero ones, and the column is those rows alone,
  each mask decoded back to its partition.  A column costs its nonzero
  rows, not the p(n) partitions of n.
- over many classes, for zero counts mod p only (zero_counts): the classes'
  ascending parts form a trie, walked depth first, so classes that share
  their smallest parts share that work.  A stage's vector has one entry per
  partition of m, the parts added so far, indexed by its rank in
  enumerate_partitions(m), and it steps through a move table cached per
  (m, t) for the life of the process: for each source rank, the target
  ranks reached with sign + and with sign -.  Each table row is _add_hooks
  on that one source, so the bead-move and leg-sign rule lives in one
  function.

The backward recursion, which strips rim hooks one entry at a time, lives
only in the tests, as the oracle both routes are checked against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

# Bound only for the benchmark tracer's probe hook, which feeds cores.self_s.
from .cores import _rim_hook_options  # noqa: F401
from .padic import is_prime
from .partitions import Partition, _beta_mask, _mask_partition, enumerate_partitions, partition_count


class MemoCache:
    """Counters of one forward evaluation; they never change results and
    exist for instrumentation only.

    compute_column, and the rows of zero_counts' move tables: after each
    part, misses grow by the distinct states reached and hits by the moves
    that merged into a state already reached; table ends as the last vector
    built, the nonzero rows keyed by bead mask.  zero_counts' walk: after
    each part, misses grow by the nonzero rows kept and hits by the other
    moves; table ends as the last vector, one entry per row.
    """

    __slots__ = ("table", "hits", "misses")

    def __init__(self):
        self.table: dict = {}
        self.hits = 0
        self.misses = 0


def compute_column(n: int, mu, modulus: int | None = None) -> dict[Partition, int]:
    """The nonzero character values on the class mu, keyed by row partition:
    exact, or reduced mod a prime modulus into [1, modulus - 1].

    The whole column is built forward in one pass, adding a rim hook for
    each part of mu (smallest first) to every state of the previous stage,
    starting from the empty partition.  Entries that cancel to zero (mod
    modulus, if set) are dropped after each part, so a row is zero exactly
    when it is not a key; the partitions of n are never enumerated.
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
    return {_mask_partition(mask): value for mask, value in states.items()}


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
