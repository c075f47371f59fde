#!/usr/bin/env python3
"""Sweep the mod-p divisibility census over a range of table sizes.

Emits one CSV row per n with the divisible-entry count, the table size, and
the exact and float ratios; the data is plot-ready for the ratio-vs-n trend.

    python scripts/census_sweep.py --p 2 --max-n 20 --jobs 2 --out census_p2.csv
"""

import argparse
import csv
import sys
import time
from contextlib import nullcontext

from snchar.census import ColumnStore, table_census
from snchar.padic import is_prime


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--min-n", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=18)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = parser.parse_args(argv)
    try:
        prime = is_prime(args.p)
    except ValueError as exc:  # a p too large for primality to be decided
        parser.error(f"--p: {exc}")
    if not prime:
        parser.error(f"--p must be prime, got {args.p}")
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    if not 0 <= args.min_n <= args.max_n:
        parser.error(f"need 0 <= --min-n <= --max-n, got {args.min_n} and {args.max_n}")
    return args


def run(args: argparse.Namespace, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n", "p", "divisible", "table_size", "ratio", "ratio_float", "seconds"])
    for n in range(args.min_n, args.max_n + 1):
        start = time.monotonic()
        record = table_census(n, args.p, jobs=args.jobs, cache_dir=args.cache_dir).record
        elapsed = time.monotonic() - start
        writer.writerow(
            [
                n,
                args.p,
                record.divisible_count,
                record.table_size,
                f"{record.ratio.numerator}/{record.ratio.denominator}",
                f"{record.ratio_float:.12g}",
                f"{elapsed:.3f}",
            ]
        )
        print(f"n={n}: ratio={record.ratio_float:.6f} ({elapsed:.2f}s)", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.cache_dir is not None:
            ColumnStore(args.cache_dir)  # a store it cannot use fails before the header
        out = open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout)
    except (OSError, ValueError) as exc:  # census.ColumnCacheError included
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    with out as stream:
        run(args, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
