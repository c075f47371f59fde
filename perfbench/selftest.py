#!/usr/bin/env python3
"""Smoke test of the benchmark itself on tiny inputs; takes about half a minute.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload shape at tiny n through run.measure, untraced and traced,
and checks that every metric BENCHMARK.json names is reported, that exact
counts repeat, that a tampered digest, a tampered store file and a store
file the census has to recompute are each counted as failed, and that a
warm-store fill whose output is wrong stops the run.  Exits 1 on the first
broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from run import Invocation

TINY = {
    "census_mix": (Invocation("census --n 6 --p 2", store="fresh"),
                   Invocation("theorem-check --n 8 --p 2 --c 0.4"),
                   Invocation("census --n 6 --p 2", jobs=2),
                   Invocation("census --n 6 --p 3", store="warm")),
    "bounds_sweep": (Invocation("verify-bounds --lemma fiber --max-n 6"),
                     Invocation("verify-bounds --lemma 3 --max-n 6 --c 0.4")),
}
SECONDS = 1.0


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)
    print(f"ok  {message}")


def measure(name, digests, trace, seed=0):
    return run.measure(name, TINY[name], seed, SECONDS, trace, digests, WORK)


def value(report, metric):
    return report["metrics"][metric]["value"]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS) == sorted(TINY),
           "BENCHMARK.json, run.py and the self-test name the same workloads")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    digests = json.loads((run.BENCH / "digests.json").read_text(encoding="utf-8"))["digests"]

    for name in TINY:
        plain = measure(name, digests, False)
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= len(TINY[name]),
               f"{name}: untraced run is correct ({plain['attempted']} invocations)")
        expect(set(plain["metrics"]) == end_to_end, f"{name}: every end-to-end metric is reported")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()),
               f"{name}: every end-to-end metric is positive")
        first, second = measure(name, digests, True, seed=1), measure(name, digests, True, seed=2)
        expect(first["correct"] and second["correct"], f"{name}: traced runs are correct")
        expect(set(first["metrics"]) == per_layer, f"{name}: every per-layer metric is reported")
        exact = [m for m, v in first["metrics"].items() if v["unit"] in run.EXACT_UNITS]
        expect(all(value(first, m) == value(second, m) for m in exact),
               f"{name}: {len(exact)} exact counts repeat between traced runs")
        if name == "census_mix":
            for metric in ("census.columns_computed", "census.columns_loaded", "characters.states",
                           "census.store_bytes_written", "census.pool_startup_s"):
                expect(value(first, metric) > 0, f"{name}: {metric} is measured")

    tampered = dict(digests)
    tampered["census --n 6 --p 2"] = {**digests["census --n 6 --p 2"], "sha256": "0" * 64}
    report = measure("census_mix", tampered, False)
    expect(not report["correct"] and report["failed"] >= 1, "a tampered digest counts as failed")

    store = next(WORK.glob("warm-*"))
    victim = sorted(store.iterdir())[0]
    original = victim.read_text(encoding="ascii")
    head, _, tail = original.partition("values=")
    victim.write_text(head + "values=" + ("1" if tail[0] == "0" else "0") + tail[1:], encoding="ascii")
    report = measure("census_mix", digests, False)
    expect(not report["correct"] and report["failed"] >= 1, "a tampered store file counts as failed")

    victim.unlink()
    report = measure("census_mix", digests, False)
    expect(not report["correct"] and report["failed"] >= 1,
           "a warm census that recomputes and rewrites a column counts as failed")

    broken = dict(digests)
    broken["census --n 6 --p 3"] = {**digests["census --n 6 --p 3"], "sha256": "0" * 64}
    try:
        run.measure("census_mix", TINY["census_mix"], 0, SECONDS, False, broken, WORK / "fill")
        raised = False
    except run.SetupFailed:
        raised = True
    kept = [d for d in (WORK / "fill").glob("warm-*") if ".tmp" not in d.name]
    expect(raised and not kept,
           "a warm-store fill with wrong output stops the run and is not kept")

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census_mix"],
                            cwd=bare, capture_output=True, text=True, timeout=60)
    expect(result.returncode != 0 and not result.stdout.strip(),
           "without the snchar sources the benchmark fails and prints no result")
    return 0


WORK = run.WORK_ROOT / "selftest"

if __name__ == "__main__":
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
