"""Partition data model: enumeration, exact counting, exponent form, and the
bead encoding the abacus code runs on.

One stepper, _partitions, yields the partitions of n whose parts lie in an
allowed set, in reverse-lexicographic order: enumerate_partitions allows every
part, and padic steps it over the parts prime to p and over the powers of p.
Everything here is exact integer arithmetic; counting never touches floats.
Every counting table indexed 0..m, here and in cores and padic, grows by one
rule, _grow, under one lock, so threads may grow them; other memos are lru_caches.
A partition with r parts lam_1 >= ... >= lam_r has the beads
lam_i + r - i on r beads, and on s >= r beads each bead moves up by s - r and
beads fill 0, ..., s - r - 1.  Every bead mask (bit x set iff x is a bead) is
built by _bead_mask and read back by _mask_partition, whatever its padding.
Partitions serialize as comma-separated decreasing part lists ("4,1"), with
"-" for the empty partition.  That textual form is the one used in CLI
arguments, CSV cells, and cache keys.
"""

from __future__ import annotations

import threading
from typing import Iterator

EMPTY_TEXT = "-"


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The empty partition is the unique partition of 0.  Instances are
    immutable and compare/hash exactly like plain tuples, so canonical
    (reverse-lexicographic) order is ordinary descending tuple order.
    Instances hold nothing beyond the tuple itself (no per-instance dict).
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts  # checked when it was made
        parts = tuple(parts)
        for i, a in enumerate(parts):
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"parts must be positive integers, got {a!r}")
            if i and parts[i - 1] < a:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        return tuple.__new__(cls, parts)

    @classmethod
    def _unchecked(cls, parts: tuple) -> "Partition":
        # Fast path for internally produced, already-canonical tuples.
        return tuple.__new__(cls, parts)

    @property
    def n(self) -> int:
        """Sum of the parts."""
        return sum(self)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the serialized form: "4,1" for (4, 1), "-" for the empty partition."""
        text = text.strip()
        if text in (EMPTY_TEXT, ""):
            return cls(())
        tokens = [tok.strip() for tok in text.split(",")]
        # ASCII digits only: int() would also take "+4", "4_1" and other scripts' digits
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError(f"cannot parse partition from {text!r}")
        return cls(int(tok) for tok in tokens)

    def to_text(self) -> str:
        return ",".join(str(a) for a in self) if self else EMPTY_TEXT

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def _partitions(n: int, below) -> Iterator[Partition]:
    # The partitions of n whose parts all lie in an allowed set, in
    # reverse-lexicographic order.  below[x] is the largest allowed part <= x;
    # 1 must be allowed, so the greedy refill never gets stuck.  Each step
    # lowers the last part above 1 to the next allowed part and refills the
    # rest greedily.
    parts: list[int] = []
    rest = top = n  # size still to fill, and the largest part allowed
    while True:
        while rest:
            top = below[top if top < rest else rest]
            parts.append(top)
            rest -= top
        yield Partition._unchecked(tuple(parts))
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        top = below[parts[i] - 1]
        rest = parts[i] - top + len(parts) - 1 - i  # what parts[i] gives up, and its trailing ones
        parts[i] = top
        del parts[i + 1:]


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    The stream starts at (n) and ends at (1, ..., 1); its length is
    partition_count(n).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return _partitions(n, list(range(n + 1)))


_count_lock = threading.Lock()  # the package's one lock; reads take none
_count_memo = [1]  # p(0), p(1), ...


def _grow(series: list, top: int, term) -> list:
    # Extend series in place through index top, entry m being term(m).  A term
    # reads only entries already there and grows no table, so the lock cannot
    # deadlock; callers read an entry that is there without calling this.
    with _count_lock:
        for m in range(len(series), top + 1):
            series.append(term(m))
    return series


def _pentagonal_term(m: int) -> int:
    # p(m) = sum_{j>=1} (-1)^(j+1) (p(m - j(3j-1)/2) + p(m - j(3j+1)/2)), p < 0 being 0
    total, j = 0, 1
    while (g := j * (3 * j - 1) // 2) <= m:
        term = _count_memo[m - g] + (_count_memo[m - g - j] if g + j <= m else 0)
        total += term if j & 1 else -term
        j += 1
    return total


def partition_count(n: int) -> int:
    """Number of partitions of n, via Euler's pentagonal-number recurrence.

    Exact arbitrary precision; the memo table is process-global and grows on
    demand through _grow.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n < len(_count_memo):
        return _count_memo[n]
    return _grow(_count_memo, n, _pentagonal_term)[n]


def exponent_form(lam) -> tuple[tuple[int, int], ...]:
    """Distinct parts with multiplicities, largest part first: ((a_1, b_1), ...)."""
    out: list[tuple[int, int]] = []
    for a in lam:
        if out and out[-1][0] == a:
            out[-1] = (a, out[-1][1] + 1)
        else:
            out.append((a, 1))
    return tuple(out)


def _bead_mask(parts: tuple, beads: int) -> int:
    # The bead mask of parts on beads >= len(parts) beads: the beads of the
    # parts, built as a small int, then shifted past one bead per zero part.
    pad = beads - len(parts)
    mask = 0
    shift = len(parts) - 1
    for a in parts:
        mask |= 1 << (a + shift)
        shift -= 1
    return (mask << pad) | ((1 << pad) - 1)


def _mask_partition(mask: int) -> Partition:
    # Inverse of _bead_mask at any padding: shift off the run of beads at
    # 0, 1, ...; each remaining bead's part is the vacancies below it.
    digits = bin(mask >> ((mask ^ (mask + 1)).bit_length() - 1))[2:]
    return Partition._unchecked(tuple(digits.count("0", i) for i, d in enumerate(digits) if d == "1"))
