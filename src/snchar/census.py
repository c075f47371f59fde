"""Divisibility census engine: per-column statistics, whole-table counts,
fiber-congruence and core-vanishing verification, and the census store.
The checks read the kernel's rows by bead mask (characters._forward_column)
and decode only the rows a report names; a k-core row is one shift of its
mask, having no bead x with x - k vacant.

The census takes the zero count mod p of one column per p-regular label and
reuses it across the label's whole fiber; that shortcut is itself verified
exhaustively at small n by check_fiber_congruence, which returns the first
mismatch it finds, or None; check_core_vanishing's report is plain data,
and its violations are empty when the k-core rows vanish.  The counts come
from one zero_counts call over the trie of the labels' digit
representatives, the fiber members with the fewest parts, so no column is
kept and nothing outlives the call.  Two
closed forms check every census, loaded or computed, without the kernel:
Macdonald's count of the degrees prime to p on the label 1^n and, for
p = 2, the Frobenius-Schur parity of each column's odd entries.  The store
persists the counts as one file per (n, p), written only after those checks
and the fiber sizes' cover of the p(n) classes pass, so a census that fails
any check leaves no file.
With --jobs, workers are children forked from the census process, each
taking whole groups of representatives that share their largest part;
results are re-canonicalized after the parallel phase, and all emitted
records are immutable, so output never depends on job count.

A column or census record is the row the command line prints, field for
field, floats included.

Nothing here loads a process pool, and the store's checksum (zlib) loads on
first use, so a census without a store pays for neither at start-up.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import suppress
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .characters import _forward_column, compute_column, zero_counts
from .cores import count_k_cores, multipartition_count
from .padic import (
    DEFAULT_C,
    _require_prime,
    _require_scale,
    _threshold_cells,
    digit_representative,
    fiber_partitions,
    fiber_size,
    p_adic_digits,
    p_prime_part,
    p_regular_partitions,
    power_block_witness,
)
from .partitions import Partition, _mask_partition, enumerate_partitions, partition_count

CACHE_VERSION = 3
_CACHE_MAGIC = "snchar-census"


def __getattr__(name: str):
    # census.ProcessPoolExecutor, imported on first use.  Nothing in the
    # package reads it: it resolves only for the benchmark tracer's hook,
    # and goes when the benchmark re-points that hook.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ColumnDivisibilityRecord(NamedTuple):
    """Divisibility statistics of one character-table column mod p, in the
    order the command line prints them.

    regular_label is the p-regular partition classifying the column's fiber;
    core_floor counts the k-cores of n for k the largest part of that label's
    digit representative.  Those cores index rows that vanish identically on
    the representative's class, so zero_count >= core_floor always.
    The four threshold fields, qualifies_threshold through
    qualifies_few_parts, are padic._threshold_cells of the label, and None
    for n < 2, where the predicates are not defined.
    """

    n: int
    p: int
    mu: Partition
    regular_label: Partition
    zero_count: int
    total: int
    proportion: Fraction
    proportion_float: float
    qualifies_threshold: bool | None
    witness_index: int | None
    witness_exponent: int | None
    qualifies_few_parts: bool | None
    core_floor: int


class CensusRecord(NamedTuple):
    """Whole-table divisibility count for one (n, p), in printed order."""

    n: int
    p: int
    divisible_count: int
    table_size: int
    ratio: Fraction
    ratio_float: float


class FiberColumnSummary(NamedTuple):
    """Zero count of the column shared by one label's whole fiber."""

    label: Partition
    fiber_size: int
    zero_count: int


class CensusResult(NamedTuple):
    record: CensusRecord
    columns: tuple[FiberColumnSummary, ...]
    cache_hits: int
    cache_misses: int


class CoreVanishReport(NamedTuple):
    """Exact zero check of k-core rows on classes whose largest part is k;
    the rows vanish exactly when violations (row, class, value) is empty."""

    n: int
    k: int
    core_count: int
    class_count: int
    pairs_checked: int
    violations: tuple[tuple[Partition, Partition, int], ...]


class ColumnCacheError(ValueError):
    """A census store that cannot be used: its directory cannot be made, a
    file cannot be written, or a stored file cannot be read, has an
    unsupported version, fails its checksum or does not hold the key, labels
    or counts asked for.  A ValueError, so the command line exits 2 on it as
    on any other bad input."""


def _checksum(body: str) -> str:
    # 64-bit content checksum, stored as 16 hex digits: CRC-32 then Adler-32.
    import zlib  # loads on first use: only runs that use a store pay for it

    data = body.encode("ascii")
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


def _label_texts(n: int, p: int) -> list[str]:
    return [lam.to_text() for lam in p_regular_partitions(n, p)]


class ColumnStore:
    """Line-delimited text store, one file per (n, p) holding the zero count
    of each p-regular label's column; per-column files of version 1 are not read.

    Writes go through a temp file and an atomic replace, so concurrent readers
    never observe partial content; a write that fails removes its temp file.
    A load checks the file's checksum, its key, that its labels are
    p_regular_partitions(n, p) in order, and that each count lies in
    [0, p(n)].
    """

    def __init__(self, root):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ColumnCacheError(f"cannot use {root} as a store directory: {exc}") from exc

    def path_for(self, n: int, p: int) -> Path:
        return self.root / f"census_n{n}_p{p}.txt"

    def save(self, n: int, p: int, zero_counts) -> Path:
        body = "\n".join(
            [
                f"{_CACHE_MAGIC} {CACHE_VERSION}",
                f"n={n}",
                f"p={p}",
                "labels=" + ";".join(_label_texts(n, p)),
                "values=" + ",".join(map(str, zero_counts)),
            ]
        )
        path = self.path_for(n, p)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            tmp.write_text(f"{body}\nchecksum={_checksum(body)}\n", encoding="ascii")
            os.replace(tmp, path)
        except OSError as exc:  # a read-only or full disk, no permission
            with suppress(OSError):
                tmp.unlink()
            raise ColumnCacheError(f"cannot write {path}: {exc}") from exc
        return path

    def load(self, n: int, p: int) -> tuple[int, ...]:
        path = self.path_for(n, p)
        try:
            text = path.read_text(encoding="ascii")
        except FileNotFoundError:
            raise  # nothing stored yet: the census computes the counts
        except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not ASCII
            raise ColumnCacheError(f"cannot read {path}: {exc}") from exc
        body, _, checksum = text.rstrip("\n").rpartition("\nchecksum=")
        lines = body.splitlines()
        try:
            magic, version_text = lines[0].rsplit(" ", 1)
            fields = dict(line.split("=", 1) for line in lines[1:])
        except (IndexError, ValueError) as exc:
            raise ColumnCacheError(f"{path} is not a census file") from exc
        if magic != _CACHE_MAGIC or version_text != str(CACHE_VERSION):
            raise ColumnCacheError(f"{path} has unsupported header {lines[0]!r}")
        if checksum != _checksum(body):
            raise ColumnCacheError(f"{path} failed its checksum")
        try:
            key = (int(fields["n"]), int(fields["p"]))
            labels_text = fields["labels"]
            counts = tuple(int(v) for v in fields["values"].split(","))
        except (KeyError, ValueError) as exc:
            raise ColumnCacheError(f"{path} is not a census file") from exc
        if key != (n, p):
            raise ColumnCacheError(f"{path} holds n={key[0]} p={key[1]}, not n={n} p={p}")
        labels = _label_texts(n, p)
        if labels_text.split(";") != labels:
            raise ColumnCacheError(f"{path} does not list the {p}-regular partitions of {n}")
        if len(counts) != len(labels):
            raise ColumnCacheError(f"{path} has {len(counts)} counts for {len(labels)} labels")
        if min(counts) < 0 or max(counts) > partition_count(n):
            raise ColumnCacheError(f"{path} has a count outside [0, p({n})]")
        return counts


def _column_record(mu: Partition, label: Partition, representative: Partition, p: int,
                   zero_count: int, c: float) -> ColumnDivisibilityRecord:
    # mu's column record mod p, given its label, the label's digit representative and zero count.
    n = mu.n
    core_floor = count_k_cores(n, representative[0]) if representative else 0
    if zero_count < core_floor:
        raise RuntimeError(f"zero count {zero_count} fell below core floor {core_floor} "
                           f"on label {label}; this is a bug")
    if n >= 2:
        cells = _threshold_cells(label, p, c)
    else:
        cells = dict.fromkeys(("qualifies_threshold", "witness_index", "witness_exponent",
                               "qualifies_few_parts"))
    total = partition_count(n)
    proportion = Fraction(zero_count, total)
    return ColumnDivisibilityRecord(
        n=n,
        p=p,
        mu=mu,
        regular_label=label,
        zero_count=zero_count,
        total=total,
        proportion=proportion,
        proportion_float=float(proportion),
        **cells,
        core_floor=core_floor,
    )


def column_divisibility(mu, p: int, c: float = DEFAULT_C) -> ColumnDivisibilityRecord:
    """Zero statistics of the column of mu mod p, over the partitions of
    n = |mu|, with threshold predicates evaluated on its p-regular label."""
    _require_prime(p)
    _require_scale(c)
    mu = Partition(mu)
    zero_count = partition_count(mu.n) - len(compute_column(mu, p))
    label = p_prime_part(mu, p)
    return _column_record(mu, label, digit_representative(label, p), p, zero_count, c)


def check_fiber_congruence(lam, p: int) -> tuple[Partition, Partition, Partition] | None:
    """Compare the mod-p columns across the fiber of lam, classes of |lam|.

    Returns None when they all agree, as they always should, or else the
    first mismatch (mu, nu, alpha): mu the fiber's first member, nu the first
    whose column differs from mu's, and alpha the first row where it does.
    """
    members = fiber_partitions(lam, p)
    reference_mu = next(members)
    reference = _forward_column(reference_mu[::-1], p)
    for mu in members:
        column = _forward_column(mu[::-1], p)
        if column != reference:
            # canonical order is descending, so the first differing row in
            # enumeration order is the largest
            alpha = max(_mask_partition(mask) for mask, _ in reference.items() ^ column.items())
            return reference_mu, mu, alpha
    return None


def check_core_vanishing(n: int, k: int) -> CoreVanishReport:
    """Exactly verify that every k-core row vanishes on every class whose
    largest part is k (the first recursion step already has no hook to strip).
    Each column adds k first, so those rows are reached and must cancel."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    core_count = count_k_cores(n, k)
    classes = [mu for mu in enumerate_partitions(n) if mu[0] == k]
    violations = []
    for mu in classes:
        rows = _forward_column(mu, None).items()
        nonzero_cores = [(_mask_partition(mask), v) for mask, v in rows if not (mask >> k) & ~mask]
        # largest first, as the rows are enumerated
        violations += [(alpha, mu, v) for alpha, v in sorted(nonzero_cores, reverse=True)]
    return CoreVanishReport(
        n=n,
        k=k,
        core_count=core_count,
        class_count=len(classes),
        pairs_checked=core_count * len(classes),
        violations=tuple(violations),
    )


def _trie_census(representatives: list[Partition], p: int, jobs: int) -> tuple[int, ...]:
    # Zero counts of the labels' digit representatives, in order.  In one
    # process that is one zero_counts call over their trie.  Forked, a unit
    # of work is the group of representatives that share their largest part
    # t, and costs about p(n - t) per representative; the shares are
    # balanced by that cost.
    workers = min(jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if workers == 1:
        return zero_counts(representatives, p)
    groups: dict[int, list[Partition]] = {}
    for rep in representatives:
        groups.setdefault(rep[0] if rep else 0, []).append(rep)
    n = representatives[0].n
    cost = {t: len(group) * partition_count(n - t) for t, group in groups.items()}
    shares: list[list[Partition]] = [[] for _ in range(min(workers, len(groups)))]
    loads = [0] * len(shares)
    for t in sorted(cost, key=cost.get, reverse=True):
        lightest = loads.index(min(loads))
        shares[lightest] += groups[t]
        loads[lightest] += cost[t]
    by_representative = {}
    for share, counts in zip(shares, _in_forks(lambda share: zero_counts(share, p), shares)):
        by_representative.update(zip(share, counts))
    return tuple(by_representative[rep] for rep in representatives)


def _in_forks(task, shares: list) -> list[tuple[int, ...]]:
    """task(share) for each share, in order: the first here, each other in a
    child forked from this process, which inherits its state and sends the
    counts back through a pipe.  A child that fails makes this raise
    RuntimeError; every child is reaped before this returns or raises."""
    children = []  # (pid, the read end of its pipe)
    texts = None
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    with open(write, "w", encoding="ascii") as out:
                        out.write(",".join(map(str, task(share))))
                    status = 0
                except BaseException as exc:
                    print(f"census worker {os.getpid()} failed: {exc!r}", file=sys.stderr)
                finally:
                    sys.stderr.flush()
                    os._exit(status)
            os.close(write)
            children.append((pid, open(read, encoding="ascii")))
        results = [task(shares[0])]
        texts = [source.read() for _, source in children]
    finally:
        statuses = []
        for pid, source in children:
            source.close()
            if texts is None:  # this process failed first: stop the children
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), code in zip(children, statuses):
        if code:
            raise RuntimeError(f"census worker {pid} failed (exit code {code})")
    return results + [tuple(map(int, text.split(","))) for text in texts]


def table_census(n: int, p: int, jobs: int = 1, cache_dir=None) -> CensusResult:
    """Count the entries of the full character table of degree n divisible by p.

    Takes the zero count mod p of one column per p-regular label (from the
    store under cache_dir, else from the trie of the labels' digit
    representatives, optionally in parallel) and weights it by the label's
    fiber size.  Output is canonicalized after the
    parallel phase, so repeated runs and different job counts give identical
    results.  The census runs in at most one process per CPU and per group
    of representatives that share their largest part.  Stored and computed
    counts alike must give Macdonald's count of the degrees prime to p and,
    for p = 2, every column's Frobenius-Schur parity, checked with the fiber
    weights in one pass over the labels, and the fiber sizes must cover the
    p(n) classes.  Computed counts are stored only after all of that holds,
    so a census that fails a check raises RuntimeError and stores nothing.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    labels = list(p_regular_partitions(n, p))
    store = ColumnStore(cache_dir) if cache_dir is not None else None
    zeros = None
    if store is not None:
        with suppress(FileNotFoundError):
            zeros = store.load(n, p)
    hits = 0 if zeros is None else len(labels)
    if zeros is None:
        zeros = _trie_census([digit_representative(lam, p) for lam in labels], p, jobs)
    total = partition_count(n)
    # Macdonald (1971): the degrees prime to p number the product, over the
    # base-p digits a_t of n, of the (p**t)-multipartition counts of a_t.
    # The last label, 1^n, has the identity's column mod p.
    prime_to_p = math.prod(multipartition_count(p**t, a) for t, a in enumerate(p_adic_digits(n, p)))
    if total - zeros[-1] != prime_to_p:
        raise RuntimeError(
            f"{total - zeros[-1]} degrees of S_{n} are prime to {p}, not Macdonald's "
            f"{prime_to_p}; this is a bug"
        )
    summaries = []
    divisible = covered = 0
    for lam, zero_count in zip(labels, zeros):
        # Frobenius-Schur: a column sums to r(rho), the number of square roots
        # of an element of type rho, and mod 2 that sum counts its odd
        # entries.  r(rho) is odd exactly when rho's parts are odd and
        # distinct, as the digit representative's are when its label's are.
        odd = total - zero_count
        if p == 2 and odd % 2 != (len(set(lam)) == len(lam)):
            raise RuntimeError(
                f"the column of {lam} in S_{n} has {odd} odd entries, but "
                f"Frobenius-Schur asks for an {'even' if odd % 2 else 'odd'} number; this is a bug"
            )
        size = fiber_size(lam, p)
        covered += size
        divisible += size * zero_count
        summaries.append(FiberColumnSummary(lam, size, zero_count))
    if covered != total:
        raise RuntimeError(
            f"fiber sizes cover {covered} of {total} classes; this is a bug"
        )
    if store is not None and not hits:
        store.save(n, p, zeros)
    ratio = Fraction(divisible, total * total)
    record = CensusRecord(n, p, divisible, total * total, ratio, float(ratio))
    return CensusResult(record, tuple(summaries), hits, len(labels) - hits)


def threshold_experiment(n: int, p: int, c: float) -> list[ColumnDivisibilityRecord]:
    """Divisibility records for every qualifying label's digit representative.

    For each p-regular label passing the threshold predicate, takes the zero
    count of its digit representative's column from one zero_counts call
    over all the representatives and builds its record, which asserts
    zero_count >= core_floor exactly.  The asymptotic rate is only data.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    _require_prime(p)
    _require_scale(c)
    labels = [lam for lam in p_regular_partitions(n, p) if power_block_witness(lam, p, c) is not None]
    representatives = [digit_representative(lam, p) for lam in labels]
    counts = zero_counts(representatives, p)
    return [_column_record(rep, lam, rep, p, zero, c)
            for lam, rep, zero in zip(labels, representatives, counts)]
