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
  jumps; _hooks).  One pass reaches every row; entries that cancel, mod
  p if a modulus is set, are dropped after each part, so the rows left at
  the end are exactly the nonzero ones, keyed by bead mask, which the census
  checks read as they are; compute_column alone decodes them to partitions.
  A column costs its nonzero rows, not the p(n) partitions of n.
- over many classes, for zero counts mod p only (zero_counts): the
  classes' ascending parts form a trie, and a node of size m, the parts
  added so far, reaches its child by one step (m, t) that adds a rim hook
  of length t.  A node's vector has one entry per partition of m, indexed
  by its rank in enumerate_partitions(m).  The nodes that share a step take
  it together: up to _LANES vectors ride as byte lanes of one Python int
  per source partition, and each rim hook of length t is added once for
  all of them (_lane_step).  An inner step reads its targets back in rank
  order and reduces every lane mod p at once; the step into n only counts
  each class's nonzero rows.  Nothing outlives the call.

Both routes add their hooks in one loop (_accumulate), and take their moves
from _hooks, so the bead-move and leg-sign rule lives in one function.

Both add the largest part k last, so they never reach a k-core row: those
zeros hold by construction.  The core vanishing check adds k first instead
(_forward_column takes the parts in any order), so those rows must cancel;
it finds them among the masks with one shift.

The backward recursion, which strips rim hooks one entry at a time, lives
only in the tests, as the oracle both routes are checked against.
"""

from __future__ import annotations

from collections import Counter

# Nothing in the package calls this; it is bound here only for the benchmark
# tracer's probe hook, and goes when the benchmark drops that hook.
from .cores import _rim_hook_options  # noqa: F401
from .padic import _require_prime, is_prime
from .partitions import Partition, _beta_mask, _mask_partition, enumerate_partitions, partition_count


class MemoCache:
    """Counters of one forward evaluation; they never change results and
    exist for instrumentation only.

    compute_column: after each part, misses grow by the distinct states
    reached and hits by the moves that merged into a state already reached;
    table ends as the last vector built, the nonzero rows keyed by bead
    mask.  zero_counts: after each chunk of nodes that share a step, misses
    grow by the nonzero rows kept, over all lanes, and hits by the other
    moves, counting each move once per lane; table ends as the last vector
    of an inner step, one entry per row.
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
    return {_mask_partition(mask): v for mask, v in _forward_column(n, reversed(mu), modulus).items()}


def _forward_column(n: int, parts, modulus: int | None) -> dict[int, int]:
    # compute_column's pass, adding a rim hook for each of parts in the order
    # given: the nonzero rows, keyed by n-bead mask.
    cache = MemoCache()
    states = {(1 << n) - 1: 1}
    for t in parts:
        reached, moves = _accumulate(states.items(), t, modulus or 0)
        cache.misses += len(reached)
        cache.hits += moves - len(reached)
        if modulus is None:
            states = {key: v for key, v in reached.items() if v}
        else:
            states = {key: r for key, v in reached.items() if (r := v % modulus)}
    cache.table = states
    return states


def zero_counts(n: int, labels, p: int) -> tuple[int, ...]:
    """Zero count mod a prime p of the column of each class in labels, all
    partitions of n, in the order given.

    The classes' ascending parts form a trie: a node of size m, the parts
    added so far, takes a step (m, t) to its child by adding a rim hook of
    length t, and the nodes that share a step take it together in lanes
    (_lane_step).  A node's vector has one entry per partition of m, in
    enumerate_partitions(m) order; the step into n keeps no vector, only
    each class's count of nonzero rows.  Each size's bead masks are built
    once per call, and every vector and mask is dropped after the last step
    that reads it.
    """
    _require_prime(p)
    if any(Partition(lam).n != n for lam in labels):
        raise ValueError(f"every class must be a partition of {n}")
    # The trie of the classes' ascending parts: node 0 is the empty prefix,
    # and its other nodes are numbered as they are met.
    child: dict[tuple[int, int], int] = {}  # (node, t) -> the node plus a part t
    steps: dict[tuple[int, int], list] = {}  # (m, t) -> the nodes of size m that add t
    ends = []  # the node of each class
    for lam in labels:
        node = m = 0
        for t in reversed(lam):
            if (node, t) not in child:
                child[node, t] = len(child) + 1
                steps.setdefault((m, t), []).append(node)
            node = child[node, t]
            m += t
        ends.append(node)
    # A step into n runs once its nodes' vectors exist, any other just before
    # its target size is stepped from: what waits is the shorter vectors of
    # the parents, each dropped after its node's last step.
    order = sorted(steps, key=lambda step: (sum(step) if sum(step) < n else step[0], step))
    last = {m: i for i, (m, _) in enumerate(order)}  # after which a size's masks go
    left = Counter(node for node, _ in child)  # node -> the steps it has yet to take
    cache = MemoCache()
    counts = {0: 0}  # n = 0: the one class has the column (1)
    vectors = {0: (bytes if p < 256 else tuple)((1,))}
    masks = {0: _row_masks(0)}  # size -> the bead masks of its partitions
    total = partition_count(n)
    for i, (m, t) in enumerate(order):
        k = m + t
        if k < n and k not in masks:
            masks[k] = _row_masks(k)
        parents = steps.pop((m, t))
        # a partition of k is reached by at most k // t moves, one per t-hook
        # it has, each adding at most p to a lane
        lanes = _LANES if p * (k // t) < 256 else 1
        for start in range(0, len(parents), lanes):
            chunk = parents[start:start + lanes]
            left.subtract(chunk)
            inputs = [vectors[node] if left[node] else vectors.pop(node) for node in chunk]
            reached, moves = _lane_step(masks[m], t, inputs, p)
            children = [child[node, t] for node in chunk]
            if k == n:
                nonzero = _nonzero_lanes(reached, len(chunk), p)
                counts.update(zip(children, [total - kept for kept in nonzero]))
            else:
                built = _reduce_lanes(reached, masks[k], len(chunk), p)
                nonzero = [len(v) - v.count(0) for v in built]
                vectors.update(zip(children, built))
                cache.table = built[-1]
            cache.misses += sum(nonzero)
            cache.hits += moves * len(chunk) - sum(nonzero)
        if last[m] == i:
            del masks[m]
    return tuple(counts[node] for node in ends)


# Trie nodes that share a step take it in lanes of one Python int per source
# partition, at most this many nodes to an int.
_LANES = 128


def _lane_step(sources: tuple, t: int, vectors: list, p: int) -> tuple[dict, int]:
    # _accumulate over the partitions of m, given by their m-bead masks, for
    # the nodes with these vectors.  Lane j of a source's int holds node j's
    # value there, one byte each, and a - move adds pones - int: p - v >= 1
    # in every lane, so no lane borrows from the next while its sum stays
    # below 256.  A node alone takes the step in one unbounded int.
    if len(vectors) == 1:
        rows, negative = vectors[0], p
    else:
        matrix = b"".join(vectors)
        rows = (int.from_bytes(matrix[r::len(sources)], "little") for r in range(len(sources)))
        negative = int.from_bytes(bytes((p,)) * len(vectors), "little")
    # m + t beads hold every partition of m + t: shift past t more beads
    fill = (1 << t) - 1
    return _accumulate(zip([(mask << t) | fill for mask in sources], rows), t, negative)


def _reduce_lanes(reached: dict, targets: tuple, k: int, p: int) -> list:
    # Each of the k lanes' vector mod p over targets, bead masks in rank
    # order; targets never reached are zero.  Lane ints are reduced 1024
    # targets at a time, which bounds the bytes alive.
    if k == 1:
        vector = [reached.pop(mask, 0) % p for mask in targets]
        return [bytes(vector) if p < 256 else tuple(vector)]
    table = bytes(x % p for x in range(256))
    blocks: list[list] = [[] for _ in range(k)]
    for start in range(0, len(targets), 1024):
        flat = b"".join([reached.pop(mask, 0).to_bytes(k, "little")
                         for mask in targets[start:start + 1024]]).translate(table)
        for j, block in enumerate(blocks):
            block.append(flat[j::k])
    return [b"".join(block) for block in blocks]


def _nonzero_lanes(reached: dict, k: int, p: int) -> list[int]:
    # For each of the k lanes, how many reached values are nonzero mod p
    # there, reduced 1024 at a time as in _reduce_lanes.
    values = list(reached.values())
    if k == 1:
        return [sum(1 for v in values if v % p)]
    table = bytes(int(x % p == 0) for x in range(256))
    nonzero = [len(values)] * k
    for start in range(0, len(values), 1024):
        flat = b"".join([v.to_bytes(k, "little") for v in values[start:start + 1024]]).translate(table)
        for j in range(k):
            nonzero[j] -= flat[j::k].count(1)
    return nonzero


def _hooks(mask: int, t: int) -> tuple[list, list]:
    # Every rim hook of length t added to the partition with bead mask mask:
    # a bead x moves to a vacant x + t, and the leg length is the number of
    # beads it jumps.  The new masks, split into even legs (sign +) and odd
    # legs (sign -); distinct beads give distinct masks.
    plus, minus = [], []
    cand = mask & ~(mask >> t)
    while cand:
        bit = cand & -cand
        cand ^= bit
        key = mask ^ bit ^ (bit << t)
        if (mask & ((bit << t) - (bit << 1))).bit_count() & 1:
            minus.append(key)
        else:
            plus.append(key)
    return plus, minus


def _accumulate(pairs, t: int, negative: int) -> tuple[dict, int]:
    # Every rim hook of length t added to the mask of each (mask, value) pair
    # with a nonzero value, summed per new mask, and the number of moves: a +
    # move adds value, a - move negative - value, where negative is 0 for
    # exact values, p for values mod p and p in every lane for lane ints.
    reached: dict = {}
    get = reached.get
    moves = 0
    for mask, value in pairs:
        if value:
            plus, minus = _hooks(mask, t)
            moves += len(plus) + len(minus)
            for key in plus:
                reached[key] = get(key, 0) + value
            value = negative - value
            for key in minus:
                reached[key] = get(key, 0) + value
    return reached, moves


def _row_masks(n: int) -> tuple[int, ...]:
    # The n-bead mask of each partition of n, in enumerate_partitions(n) order:
    # the beads of its parts, shifted past one bead per zero part.
    return tuple(
        (_beta_mask(alpha) << (n - len(alpha))) | ((1 << (n - len(alpha))) - 1)
        for alpha in enumerate_partitions(n)
    )
