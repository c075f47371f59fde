"""Command-line interface: one binary, subcommands for columns, censuses,
fiber checks, bound sweeps, and core-vanishing verification.

Output is CSV (default) or JSON on stdout; progress and cache statistics go
to stderr.  Exit codes: 0 all checks passed, 1 some verification failed or
stdout was closed before the output ended (quietly, as under `| head`),
2 invalid input.

column, theorem-check's survey, the census JSON record and verify-bounds
print the reports of census and bounds as they are, field for field.  The
census column rows, fibers rows, the theorem-check --lambda row and
verify-core-vanish rows are built here: they add per-run context (n, p,
total, a label's fiber size) to what the census and padic functions return,
or condense a report (a count of violations).

Each command imports the modules it runs when it runs, so a bound sweep never
loads the census kernel and a census never loads the bound checkers; json
loads only for --format json.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from fractions import Fraction

from .padic import DEFAULT_C
from .partitions import Partition, partition_count


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# Cell formats by exact type: a dict lookup instead of an isinstance chain,
# which for Fraction goes through ABCMeta.__instancecheck__.  bool is its own
# key, so it never reads as int; every other type prints as str().
_CSV_CELL = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    Fraction: _fraction_text,
    float: lambda value: f"{value:.12g}",
}
_JSON_CELL = {Fraction: _fraction_text, Partition: Partition.to_text}


def _csv_cell(value) -> str:
    return _CSV_CELL.get(type(value), str)(value)


def _json_cell(value):
    cell = _JSON_CELL.get(type(value))
    return value if cell is None else cell(value)


def _emit(rows: list[dict], fmt: str, comment: str | None = None,
          record: dict | None = None) -> None:
    # JSON is the rows, or {"record": record, "columns": rows} given a record;
    # CSV is the comment line, then the rows.
    if fmt == "json":
        import json

        payload = [{k: _json_cell(v) for k, v in row.items()} for row in rows]
        if record is not None:
            payload = {"record": {k: _json_cell(v) for k, v in record.items()},
                       "columns": payload}
        print(json.dumps(payload, indent=2))
        return
    if comment:
        print(f"# {comment}")
    if not rows:
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    fields = list(rows[0].keys())
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_csv_cell(row[f]) for f in fields])


def _class_of_size(text: str, n: int) -> Partition:
    # The partition that --mu or --lambda names, which must be one of --n.
    lam = Partition.from_text(text)
    if lam.n != n:
        raise ValueError(f"|{lam}| = {lam.n} does not match n = {n}")
    return lam


def cmd_column(args) -> int:
    from . import census

    rec = census.column_divisibility(_class_of_size(args.mu, args.n), args.p, c=args.c)
    _emit([rec._asdict()], args.format)
    return 0


def cmd_census(args) -> int:
    from . import census

    result = census.table_census(args.n, args.p, jobs=args.jobs, cache_dir=args.cache_dir)
    record = result.record
    total = partition_count(args.n)
    rows = [
        {
            "n": args.n,
            "p": args.p,
            **col._asdict(),
            "total": total,
            "zero_proportion": Fraction(col.zero_count, total),
            "zero_proportion_float": col.zero_count / total,
        }
        for col in result.columns
    ]
    summary = (
        f"census n={record.n} p={record.p} divisible={record.divisible_count} "
        f"table_size={record.table_size} ratio={_fraction_text(record.ratio)} "
        f"ratio_float={record.ratio_float:.12g}"
    )
    print(
        f"cache: hits={result.cache_hits} misses={result.cache_misses}",
        file=sys.stderr,
    )
    _emit(rows, args.format, comment=summary, record=record._asdict())
    return 0


def cmd_fibers(args) -> int:
    from . import census, padic

    # --lambda checks one label and lists its fiber, one row per class
    one_label = args.lam is not None
    if one_label:
        labels = [_class_of_size(args.lam, args.n)]
    else:
        labels = padic.p_regular_partitions(args.n, args.p)
    rows = []
    failed = False
    for lam in labels:
        size = padic.fiber_size(lam, args.p)
        congruent = census.check_fiber_congruence(lam, args.p) is None
        for mu in padic.fiber_partitions(lam, args.p) if one_label else [None]:
            rows.append({
                "n": args.n,
                "p": args.p,
                "label": lam,
                **({"mu": mu} if one_label else {}),
                "fiber_size": size,
                "congruent": congruent,
            })
        failed = failed or not congruent
    _emit(rows, args.format)
    return 1 if failed else 0


def cmd_theorem_check(args) -> int:
    from . import padic

    if args.lam is not None:
        lam = _class_of_size(args.lam, args.n)
        row = {
            "n": args.n,
            "p": args.p,
            "c": args.c,
            "label": lam,
            **padic._threshold_cells(lam, args.p, args.c),  # ValueError below n = 2
            "representative": padic.digit_representative(lam, args.p),
            "threshold_float": padic.threshold(args.n, args.c),
        }
        _emit([row], args.format)
        return 0
    from . import census

    records = census.threshold_experiment(args.n, args.p, args.c)
    _emit([rec._asdict() for rec in records], args.format)
    return 0


def cmd_verify_bounds(args) -> int:
    from . import bounds

    if args.lemma == "1":
        rows = [bounds.check_multipartition_growth(k, m)
                for k in range(1, args.max_k + 1) for m in range(1, args.max_m + 1)]
    elif args.lemma == "hr":
        rows = [bounds.growth_envelope_report(m) for m in range(1, args.max_m + 1)]
    else:
        # each (n, k) sweep: its first n and its report
        first_n, check = {
            "2": (1, bounds.check_core_deficit),
            "fiber": (1, bounds.check_core_fiber_identity),
            "3": (2, lambda n, k: bounds.core_density_report(n, k, args.c)),
        }[args.lemma]
        rows = [check(n, k) for n in range(first_n, args.max_n + 1)
                for k in range(1, min(n, args.max_k or n) + 1)]
    failed = any(row.get("holds") is False for row in rows)
    _emit(rows, args.format)
    return 1 if failed else 0


def cmd_verify_core_vanish(args) -> int:
    from . import census

    rows = []
    failed = False
    for n in range(1, args.max_n + 1):
        for k in range(1, n + 1):
            report = census.check_core_vanishing(n, k)
            rows.append({**report._asdict(), "violations": len(report.violations), "ok": report.ok})
            failed = failed or not report.ok
    _emit(rows, args.format)
    return 1 if failed else 0


def _int_at_least(low: int):
    """argparse type: an int no smaller than low, so a sweep bound that would
    check nothing is an argparse error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error messages
    return parse


# The flags each verify-bounds lemma reads, with their defaults; any other
# flag given with that lemma is an argparse error (exit 2).
_LEMMA_FLAGS = {
    "1": {"max_k": 10, "max_m": 40},
    "2": {"max_n": 60, "max_k": 0},
    "fiber": {"max_n": 60, "max_k": 0},
    "3": {"max_n": 60, "max_k": 0, "c": DEFAULT_C},
    "hr": {"max_m": 40},
}


def build_parser() -> argparse.ArgumentParser:
    positive = _int_at_least(1)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    n_and_p = argparse.ArgumentParser(add_help=False)
    n_and_p.add_argument("--n", type=int, required=True)
    n_and_p.add_argument("--p", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="snchar",
        description="Exact character-table divisibility toolkit for symmetric groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("column", parents=[common, n_and_p],
                        help="divisibility record of one column mod p")
    sp.add_argument("--mu", required=True, help='class partition, e.g. "4,1"')
    sp.add_argument("--c", type=float, default=DEFAULT_C)
    sp.set_defaults(func=cmd_column)

    sp = sub.add_parser("census", parents=[common, n_and_p],
                        help="whole-table divisibility census for (n, p)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="processes forked from this one: at most one per CPU and per group of "
                         "digit representatives sharing their largest part; one without os.fork")
    sp.add_argument("--cache-dir", default=None,
                    help="directory for persisted census zero counts")
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("fibers", parents=[common, n_and_p],
                        help="fiber listing and congruence verification")
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="restrict to the fiber of this p-regular partition")
    sp.set_defaults(func=cmd_fibers)

    sp = sub.add_parser("theorem-check", parents=[common, n_and_p],
                        help="threshold predicates / qualifying-column survey")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="check the predicates on this single label")
    sp.set_defaults(func=cmd_theorem_check)

    sp = sub.add_parser("verify-bounds", parents=[common],
                        help="exact sweeps of the counting bounds")
    sp.add_argument("--lemma", required=True, choices=("1", "2", "3", "fiber", "hr"))
    sp.add_argument("--max-n", type=positive, default=None,
                    help="largest n (lemmas 2, 3, fiber; default 60)")
    sp.add_argument("--max-k", type=_int_at_least(0), default=None,
                    help="cap on k (lemmas 2, 3, fiber: default or 0 means up to n; "
                         "lemma 1: default 10)")
    sp.add_argument("--max-m", type=positive, default=None,
                    help="largest m (lemmas 1, hr; default 40)")
    sp.add_argument("--c", type=float, default=None,
                    help=f"threshold constant (lemma 3; default {DEFAULT_C})")
    # main checks the lemma's flags with this parser's error, so its usage shows
    sp.set_defaults(func=cmd_verify_bounds, error=sp.error)

    sp = sub.add_parser("verify-core-vanish", parents=[common],
                        help="k-core rows vanish on classes with largest part k")
    sp.add_argument("--max-n", type=positive, required=True)
    sp.set_defaults(func=cmd_verify_core_vanish)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-bounds":
        read = _LEMMA_FLAGS[args.lemma]
        for flag in ("max_n", "max_k", "max_m", "c"):
            value = getattr(args, flag)
            if flag not in read and value is not None:
                args.error(f"--lemma {args.lemma} does not read --{flag.replace('_', '-')}")
            if flag in read and value is None:
                setattr(args, flag, read[flag])
        if args.lemma == "1" and args.max_k == 0:
            args.error("--lemma 1 needs --max-k of at least 1")
        if args.lemma == "3" and args.max_n < 2:
            args.error("--lemma 3 needs --max-n of at least 2")
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout closed by its reader: what is still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # census.ColumnCacheError included
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
