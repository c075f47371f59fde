"""Divisibility census engine: per-column statistics, whole-table counts,
fiber-congruence and core-vanishing verification, and the column store.

The census computes one mod-p column per p-regular label and reuses it across
the label's whole fiber; that shortcut is itself verified exhaustively at
small n by check_fiber_congruence.  Workers are independent, results are
re-canonicalized after any parallel phase, and all emitted records are
immutable, so output never depends on job count.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .characters import CharColumn, compute_column
from .cores import count_k_cores, is_k_core
from .padic import (
    PowerBlockWitness,
    ThresholdParams,
    _require_prime,
    digit_representative,
    few_distinct_parts,
    fiber_partitions,
    fiber_size,
    is_p_regular,
    p_prime_part,
    p_regular_partitions,
    power_block_witness,
)
from .partitions import Partition, enumerate_partitions, partition_count

# Scale constant used when a record needs the threshold predicates and the
# caller does not supply one.  Any value above sqrt(3/2)/pi works; 0.4 keeps
# the threshold low, so more columns qualify.
DEFAULT_C = 0.4

CACHE_VERSION = 1
_CACHE_MAGIC = "snchar-column"


@dataclass(frozen=True)
class ColumnDivisibilityRecord:
    """Divisibility statistics of one character-table column mod p.

    regular_label is the p-regular partition classifying the column's fiber;
    core_floor counts the k-cores of n for k the largest part of that label's
    digit representative.  Those cores index rows that vanish identically on
    the representative's class, so zero_count >= core_floor always.
    The threshold fields are None for n < 2, where the predicates are not
    defined.
    """

    n: int
    p: int
    mu: Partition
    regular_label: Partition
    zero_count: int
    total: int
    proportion: Fraction
    qualifies_threshold: bool | None
    witness: PowerBlockWitness | None
    qualifies_few_parts: bool | None
    core_floor: int


@dataclass(frozen=True)
class CensusRecord:
    """Whole-table divisibility count for one (n, p)."""

    n: int
    p: int
    divisible_count: int
    table_size: int
    ratio: Fraction


@dataclass(frozen=True)
class FiberColumnSummary:
    """Zero count of the column shared by one label's whole fiber."""

    label: Partition
    fiber_size: int
    zero_count: int


@dataclass(frozen=True)
class CensusResult:
    record: CensusRecord
    columns: tuple[FiberColumnSummary, ...]
    cache_hits: int
    cache_misses: int


@dataclass(frozen=True)
class FiberCongruenceReport:
    """Outcome of comparing all mod-p columns across one fiber.

    Columns in one fiber are always congruent, so a mismatch (the first
    differing (mu, nu, alpha) triple) would signal an implementation bug.
    """

    n: int
    p: int
    label: Partition
    fiber_size: int
    congruent: bool
    mismatch: tuple[Partition, Partition, Partition] | None


@dataclass(frozen=True)
class CoreVanishReport:
    """Exact zero check of k-core rows on classes whose largest part is k."""

    n: int
    k: int
    core_count: int
    class_count: int
    pairs_checked: int
    violations: tuple[tuple[Partition, Partition, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ColumnCacheError(Exception):
    """Base class for column-store failures."""


class ColumnChecksumError(ColumnCacheError):
    """Stored column content does not match its checksum."""


class ColumnVersionError(ColumnCacheError):
    """Stored column uses an unsupported format version."""


def _column_payload(column: CharColumn) -> str:
    return "\n".join(
        [
            f"{_CACHE_MAGIC} {CACHE_VERSION}",
            f"n={column.n}",
            f"mu={column.mu.to_text()}",
            f"modulus={column.modulus}",
            "values=" + ",".join(str(v) for v in column.values),
        ]
    )


def column_checksum(column: CharColumn) -> str:
    # 64-bit content checksum, stored as 16 hex digits.
    return hashlib.sha256(_column_payload(column).encode("ascii")).hexdigest()[:16]


class ColumnStore:
    """Line-delimited text store, one file per (n, mu, modulus) mod-p column.

    Writes go through a temp file and an atomic replace, so concurrent readers
    never observe partial content; distinct keys never contend.  A load checks
    the file's checksum, that it holds the requested key, and that it has one
    residue in [0, modulus) per partition of n.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, n: int, mu: Partition, modulus: int) -> Path:
        mu_tag = mu.to_text().replace(",", "-")
        return self.root / f"col_n{n}_mod{modulus}_mu{mu_tag}.txt"

    def save(self, column: CharColumn) -> Path:
        text = _column_payload(column) + f"\nchecksum={column_checksum(column)}\n"
        path = self.path_for(column.n, column.mu, column.modulus)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text(text, encoding="ascii")
        os.replace(tmp, path)
        return path

    def load(self, n: int, mu: Partition, modulus: int) -> CharColumn:
        path = self.path_for(n, mu, modulus)
        text = path.read_text(encoding="ascii")  # missing file -> FileNotFoundError
        lines = text.splitlines()
        try:
            magic, version_text = lines[0].rsplit(" ", 1)
            fields = dict(line.split("=", 1) for line in lines[1:])
        except (IndexError, ValueError) as exc:
            raise ColumnChecksumError(f"{path} is not a column file") from exc
        if magic != _CACHE_MAGIC or version_text != str(CACHE_VERSION):
            raise ColumnVersionError(f"{path} has unsupported header {lines[0]!r}")
        values_text = fields.get("values", "")
        try:
            column = CharColumn(
                n=int(fields["n"]),
                mu=Partition.from_text(fields["mu"]),
                modulus=int(fields["modulus"]),
                values=tuple(int(v) for v in values_text.split(",")) if values_text else (),
            )
        except (KeyError, ValueError) as exc:
            raise ColumnChecksumError(f"{path} is not a column file") from exc
        if fields.get("checksum") != column_checksum(column):
            raise ColumnChecksumError(f"{path} failed its checksum")
        if (column.n, column.mu, column.modulus) != (n, mu, modulus):
            raise ColumnChecksumError(
                f"{path} holds n={column.n} mu={column.mu} modulus={column.modulus}, "
                f"not n={n} mu={mu} modulus={modulus}"
            )
        values = column.values
        if len(values) != partition_count(n):
            raise ColumnChecksumError(
                f"{path} has {len(values)} values, not p({n}) = {partition_count(n)}"
            )
        if min(values) < 0 or max(values) >= modulus:
            raise ColumnChecksumError(f"{path} has a value outside [0, {modulus})")
        return column


def column_divisibility(
    n: int, p: int, mu, c: float = DEFAULT_C, exact: bool = False
) -> ColumnDivisibilityRecord:
    """Zero statistics of the column of mu mod p, with threshold predicates
    evaluated on its p-regular label.

    exact=True computes the exact column and reduces it, instead of running
    the recursion in modular arithmetic; the record is identical either way.
    """
    _require_prime(p)
    mu = Partition(mu)
    if mu.n != n:
        raise ValueError(f"{mu} is not a partition of {n}")
    if exact:
        column = compute_column(n, mu, None)
        zero_count = sum(1 for v in column.values if v % p == 0)
    else:
        column = compute_column(n, mu, p)
        zero_count = column.zero_count()
    label = p_prime_part(mu, p)
    representative = digit_representative(label, p)
    core_floor = count_k_cores(n, representative[0]) if representative else 0
    if n >= 2:
        params = ThresholdParams(p=p, c=c, n=n)
        witness = power_block_witness(label, params)
        qualifies_threshold = witness is not None
        qualifies_few_parts = few_distinct_parts(label, params)
    else:
        witness, qualifies_threshold, qualifies_few_parts = None, None, None
    total = partition_count(n)
    return ColumnDivisibilityRecord(
        n=n,
        p=p,
        mu=mu,
        regular_label=label,
        zero_count=zero_count,
        total=total,
        proportion=Fraction(zero_count, total),
        qualifies_threshold=qualifies_threshold,
        witness=witness,
        qualifies_few_parts=qualifies_few_parts,
        core_floor=core_floor,
    )


def check_fiber_congruence(n: int, p: int, lam) -> FiberCongruenceReport:
    """Verify that all mod-p columns across the fiber of lam are identical."""
    lam = Partition(lam)
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    members = list(fiber_partitions(lam, p))
    reference_mu = members[0]
    reference = compute_column(n, reference_mu, p).values
    mismatch = None
    for mu in members[1:]:
        values = compute_column(n, mu, p).values
        if values != reference:
            alpha = next(
                a
                for a, x, y in zip(enumerate_partitions(n), reference, values)
                if x != y
            )
            mismatch = (reference_mu, mu, alpha)
            break
    return FiberCongruenceReport(
        n=n,
        p=p,
        label=lam,
        fiber_size=len(members),
        congruent=mismatch is None,
        mismatch=mismatch,
    )


def check_core_vanishing(n: int, k: int) -> CoreVanishReport:
    """Exactly verify that every k-core row vanishes on every class whose
    largest part is k (the first recursion step already has no hook to strip)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    partitions = list(enumerate_partitions(n))
    cores = {alpha for alpha in partitions if is_k_core(alpha, k)}
    classes = [mu for mu in partitions if mu[0] == k]
    violations = []
    for mu in classes:
        column = compute_column(n, mu, None)
        for alpha, value in zip(partitions, column.values):
            if value != 0 and alpha in cores:
                violations.append((alpha, mu, value))
    return CoreVanishReport(
        n=n,
        k=k,
        core_count=len(cores),
        class_count=len(classes),
        pairs_checked=len(cores) * len(classes),
        violations=tuple(violations),
    )


def _census_task(args: tuple[int, Partition, int]) -> CharColumn:
    return compute_column(*args)


def table_census(n: int, p: int, jobs: int = 1, cache_dir=None) -> CensusResult:
    """Count the entries of the full character table of degree n divisible by p.

    Computes one mod-p column per p-regular label (optionally in parallel,
    optionally persisted under cache_dir) and weights its zero count by the
    label's fiber size.  Output is canonicalized after the parallel phase, so
    repeated runs and different job counts give identical results.  The pool
    gets at most one worker per pending column and per CPU.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    labels = [lam for lam in enumerate_partitions(n) if is_p_regular(lam, p)]
    store = ColumnStore(cache_dir) if cache_dir is not None else None
    columns: dict[Partition, CharColumn] = {}
    pending: list[Partition] = []
    for lam in labels:
        if store is not None:
            try:
                columns[lam] = store.load(n, lam, p)
            except FileNotFoundError:
                pending.append(lam)
        else:
            pending.append(lam)
    hits = len(columns)
    workers = min(jobs, len(pending), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = pool.map(_census_task, [(n, lam, p) for lam in pending])
            columns.update(zip(pending, computed))
    else:
        for lam in pending:
            columns[lam] = compute_column(n, lam, p)
    if store is not None:
        for lam in pending:
            store.save(columns[lam])
    total = partition_count(n)
    summaries = []
    divisible = 0
    covered = 0
    for lam in labels:
        zero_count = columns[lam].zero_count()
        size = fiber_size(lam, p)
        covered += size
        divisible += size * zero_count
        summaries.append(FiberColumnSummary(lam, size, zero_count))
    if covered != total:
        raise RuntimeError(
            f"fiber sizes cover {covered} of {total} classes; this is a bug"
        )
    record = CensusRecord(
        n=n,
        p=p,
        divisible_count=divisible,
        table_size=total * total,
        ratio=Fraction(divisible, total * total),
    )
    return CensusResult(record, tuple(summaries), hits, len(pending))


def threshold_experiment(n: int, p: int, c: float) -> list[ColumnDivisibilityRecord]:
    """Divisibility records for every qualifying label's digit representative.

    For each p-regular label passing the threshold predicate, computes the
    record of its digit representative's column and asserts the exact
    inequality zero_count >= core_floor.  The asymptotic rate is only data.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    params = ThresholdParams(p=p, c=c, n=n)
    records = []
    for lam in p_regular_partitions(n, p):
        if power_block_witness(lam, params) is None:
            continue
        record = column_divisibility(n, p, digit_representative(lam, p), c=c)
        if record.zero_count < record.core_floor:
            raise RuntimeError(
                f"zero count {record.zero_count} fell below core floor "
                f"{record.core_floor} on label {lam}; this is a bug"
            )
        records.append(record)
    return records
