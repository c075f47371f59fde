"""Partition data model: enumeration, exact counting, exponent form, and the
bead encoding the abacus code runs on.

Everything here is exact integer arithmetic; counting never touches floats.
A partition with r parts lam_1 >= ... >= lam_r has the beads
lam_i + r - i (_beta_mask packs them into a bitmask, _parts_from_beads
decodes them back, and _mask_partition decodes a mask padded to more beads).
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
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse partition from {text!r}") from exc
        return cls(parts)

    def to_text(self) -> str:
        return ",".join(str(a) for a in self) if self else EMPTY_TEXT

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    The stream starts at (n) and ends at (1, ..., 1); its length is
    partition_count(n).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield Partition._unchecked(())
        return
    parts = [n]
    while True:
        yield Partition._unchecked(tuple(parts))
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        val = parts[i] - 1
        rem = len(parts) - i  # trailing ones plus the unit taken from parts[i]
        parts[i] = val
        del parts[i + 1:]
        while rem > 0:
            t = val if val < rem else rem
            parts.append(t)
            rem -= t


_count_memo = [1]
_count_lock = threading.Lock()


def partition_count(n: int) -> int:
    """Number of partitions of n, via Euler's pentagonal-number recurrence.

    Exact arbitrary precision; the memo table is process-global and grows on
    demand (lock-free reads, serialized extension).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n < len(_count_memo):
        return _count_memo[n]
    with _count_lock:
        while len(_count_memo) <= n:
            m = len(_count_memo)
            total = 0
            j = 1
            while True:
                g = j * (3 * j - 1) // 2
                if g > m:
                    break
                term = _count_memo[m - g]
                g2 = g + j
                if g2 <= m:
                    term += _count_memo[m - g2]
                total += term if j & 1 else -term
                j += 1
            _count_memo.append(total)
    return _count_memo[n]


def exponent_form(lam) -> tuple[tuple[int, int], ...]:
    """Distinct parts with multiplicities, largest part first: ((a_1, b_1), ...)."""
    out: list[tuple[int, int]] = []
    for a in lam:
        if out and out[-1][0] == a:
            out[-1] = (a, out[-1][1] + 1)
        else:
            out.append((a, 1))
    return tuple(out)


def _parts_from_beads(beads_desc: tuple) -> tuple:
    # beads_desc: strictly decreasing bead positions; inverse of the beta map.
    r = len(beads_desc)
    parts = []
    for i, x in enumerate(beads_desc):
        a = x - (r - 1 - i)
        if a <= 0:
            break  # parts are weakly decreasing, so the rest are zeros
        parts.append(a)
    return tuple(parts)


def _beta_mask(parts: tuple) -> int:
    # Bead bitmask with exactly len(parts) beads (bit x set iff x is a bead).
    r = len(parts)
    mask = 0
    shift = r - 1
    for a in parts:
        mask |= 1 << (a + shift)
        shift -= 1
    return mask


def _mask_partition(mask: int) -> Partition:
    # Inverse of a bead mask padded with beads at 0, 1, ...: shift off that
    # run of beads; each remaining bead's part is the vacancies below it.
    digits = bin(mask >> ((mask ^ (mask + 1)).bit_length() - 1))[2:]
    return Partition._unchecked(tuple(digits.count("0", i) for i, d in enumerate(digits) if d == "1"))
