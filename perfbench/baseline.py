#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Usage, from the repository root:

    python3 perfbench/baseline.py [--out FILE]

Runs `python3 perfbench/run.py --trace 0` once per seed 1..10 on every
workload of BENCHMARK.json, with its run_seconds, and prints for every
end-to-end metric the median, the quartiles and the spread (third minus first
quartile, as a share of the median; statistics.quantiles(values, n=4)) next
to the metric's bound.  With --out, writes the same as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

RUNS = 10


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "runs": RUNS,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "workloads": {},
    }
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in range(1, RUNS + 1):
            result = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            report = json.loads(result.stdout.strip().splitlines()[-1])
            failed += report["failed"]
            attempted += report["attempted"]
            for name in bounds:
                values[name].append(report["metrics"][name]["value"])
        rows = {}
        print(f"{workload}: {RUNS} runs, {failed} of {attempted} invocations failed")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": series}
            print(f"  {name:12s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}  bound {bounds[name]:.0%}")
        summary["workloads"][workload] = {"failed": failed, "attempted": attempted,
                                          "metrics": rows}
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
