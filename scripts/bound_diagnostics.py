#!/usr/bin/env python3
"""Diagnostic sweeps behind the counting bounds: growth-envelope ratios for
the partition function and the decay ratio (k+1) p(n-k)/p(n) along k.

Two CSV blocks are written to separate files:

  envelope: m, p(m), p(m)*m/exp(pi*sqrt(2m/3))  (its min/max bracket the
            growth constants empirically)
  decay:    n, k, ratio_float for k from 1 to n at each requested n

    python scripts/bound_diagnostics.py --max-m 300 --decay-n 40 60 --out-prefix diag
"""

import argparse
import csv
import sys

from snchar.bounds import core_density_report, growth_envelope_report
from snchar.padic import DEFAULT_C


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=200)
    parser.add_argument("--decay-n", type=int, nargs="*", default=[40, 60])
    parser.add_argument("--out-prefix", default=None,
                        help="write <prefix>_envelope.csv and <prefix>_decay.csv")
    args = parser.parse_args(argv)
    if args.max_m < 1:
        parser.error(f"--max-m must be at least 1, got {args.max_m}")
    if any(n < 2 for n in args.decay_n):
        parser.error(f"--decay-n values must be at least 2, got {args.decay_n}")
    return args


def write_envelope(args: argparse.Namespace, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["m", "count", "ratio"])
    ratios = []
    for m in range(1, args.max_m + 1):
        report = growth_envelope_report(m)
        ratios.append(report.ratio)
        writer.writerow([report.m, report.count, f"{report.ratio:.12g}"])
    print(
        f"envelope over m <= {args.max_m}: min={min(ratios):.6f} max={max(ratios):.6f}",
        file=sys.stderr,
    )


def write_decay(args: argparse.Namespace, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n", "k", "ratio_float"])
    for n in args.decay_n:
        for k in range(1, n + 1):
            ratio = core_density_report(n, k, DEFAULT_C).rhs
            writer.writerow([n, k, f"{float(ratio):.12g}"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.out_prefix:
        with open(f"{args.out_prefix}_envelope.csv", "w", newline="") as handle:
            write_envelope(args, handle)
        with open(f"{args.out_prefix}_decay.csv", "w", newline="") as handle:
            write_decay(args, handle)
    else:
        write_envelope(args, sys.stdout)
        write_decay(args, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
