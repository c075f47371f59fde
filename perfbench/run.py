#!/usr/bin/env python3
"""Benchmark of the `snchar` command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload census_mix --seed 0 --seconds 58 --trace 0

Each workload is a short list of `snchar` command lines.  One single-threaded
generator runs them back to back in a closed loop, each in a fresh interpreter
(perfbench/invoke.py calling `snchar.cli.main`), because users run one process
per (n, p) and the library keeps process-wide caches that a second call in the
same process would mostly hit.  A pass is one run of every command line of the
workload, in an order shuffled by --seed; passes repeat while the next one is
expected to end within --seconds, and at least one pass always runs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with tracing off.
--trace 1 alternates untraced and traced passes (perfbench/tracer.py) and
reports the per-layer metrics, counts from one traced pass and times as the
median over traced passes, plus the tracing overhead.

Every invocation must exit 0 with stdout whose sha256 matches
perfbench/digests.json; the digests are keyed by the command line without
--jobs and --cache-dir, so one (n, p) must print the same bytes serial,
parallel, cold or warm.  A warm-store invocation also fails if it reports a
cache miss, and the warm store must be unchanged after every pass.  Failures
are counted, never fatal.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INVOKE = BENCH / "invoke.py"
WORK_ROOT = BENCH / ".work"

# A run that is still going after this many seconds kills its child and fails.
RUN_LIMIT_S = 170


@dataclass(frozen=True)
class Invocation:
    command: str  # snchar arguments; also the key of the stdout digest
    jobs: int = 1
    store: str | None = None  # None, "fresh" (a new empty --cache-dir) or "warm"


def _census(n: int, p: int, **kwargs) -> Invocation:
    return Invocation(f"census --n {n} --p {p}", **kwargs)


# Why each workload exists is recorded in BENCHMARK.json.  The seed only
# shuffles the order: moving an n by one changes a command's cost by about
# 1.5x, which would swamp the run-to-run spread across seeds.  census_mix
# holds the cold, parallel and warm census command lines in one workload so
# that, with two workloads, each run can last about a minute and average out
# the speed swings of a shared host.
WORKLOADS = {
    "census_mix": (
        _census(22, 3, store="fresh"),
        _census(24, 2, store="fresh"),
        Invocation("theorem-check --n 24 --p 2 --c 0.4"),
        _census(22, 3, jobs=2),
        _census(24, 2, jobs=2),
        _census(24, 3, store="warm"),
        _census(26, 2, store="warm"),
    ),
    "bounds_sweep": (
        Invocation("verify-bounds --lemma fiber --max-n 50"),
        Invocation("verify-bounds --lemma 3 --max-n 50 --c 0.4"),
    ),
}


class RunStopped(Exception):
    pass


class SetupFailed(Exception):
    pass


@dataclass
class Record:
    """One finished invocation."""

    invocation: Invocation
    directory: Path
    start: float
    end: float
    returncode: int
    rss_mb: float
    setup_s: float | None = None
    ok: bool = False
    stdout_bytes: int = 0
    problem: str = ""


@dataclass
class Context:
    digests: dict
    workdir: Path
    warm_store: Path | None = None
    warm_snapshot: dict = field(default_factory=dict)
    made: int = 0
    problems: list = field(default_factory=list)


def spawn(argv: list[str], directory: Path, trace_dir: Path | None):
    """Run invoke.py with argv in a fresh interpreter; stdout and stderr go to
    files in directory.  Returns (spawn time, exit time, exit code, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    with open(directory / "stdout", "wb") as out, open(directory / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(INVOKE), *argv], stdout=out, stderr=err,
                                env=env, cwd=ROOT, start_new_session=True)
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            if not reaped:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status) if reaped else -9
        end = time.monotonic()
    # ru_maxrss of a reaped child covers its own reaped children: the pool workers.
    return start, end, proc.returncode, usage.ru_maxrss / 1024


def command_line(inv: Invocation, directory: Path, ctx: Context) -> list[str]:
    argv = inv.command.split()
    if inv.jobs > 1:
        argv += ["--jobs", str(inv.jobs)]
    if inv.store == "fresh":
        store = directory / "store"
        store.mkdir()
        argv += ["--cache-dir", str(store)]
    elif inv.store == "warm":
        argv += ["--cache-dir", str(ctx.warm_store)]
    return argv


def run_pass(order, ctx: Context, traced: bool) -> tuple[float, list[Record]]:
    prepared = []
    for inv in order:
        ctx.made += 1
        directory = ctx.workdir / f"inv{ctx.made}"
        directory.mkdir()
        trace_dir = directory / "trace" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir()
        prepared.append((inv, command_line(inv, directory, ctx), directory, trace_dir))
    records = []
    for inv, argv, directory, trace_dir in prepared:
        start, end, returncode, rss_mb = spawn(argv, directory, trace_dir)
        records.append(Record(inv, directory, start, end, returncode, rss_mb))
    wall = records[-1].end - records[0].start
    for record in records:
        check(record, ctx)
    if any(inv.store == "warm" for inv in order):
        snapshot = store_snapshot(ctx.warm_store)
        if snapshot != ctx.warm_snapshot:
            for record in records:
                if record.invocation.store == "warm" and record.ok:
                    record.ok, record.problem = False, "warm store changed during the pass"
            ctx.warm_snapshot = snapshot
    for record in records:
        if not record.ok:
            ctx.problems.append(f"{record.invocation.command}: {record.problem}")
    return wall, records


_IMPORTED = re.compile(r"^perfbench-imported ([0-9.]+)$", re.M)
_CACHE = re.compile(r"^cache: hits=(\d+) misses=(\d+)$", re.M)


def check(record: Record, ctx: Context) -> None:
    stdout = (record.directory / "stdout").read_bytes()
    stderr = (record.directory / "stderr").read_text(encoding="utf-8", errors="replace")
    record.stdout_bytes = len(stdout)
    imported = _IMPORTED.search(stderr)
    if imported:
        record.setup_s = float(imported.group(1)) - record.start
    expected = ctx.digests.get(record.invocation.command, {}).get("sha256")
    cache = _CACHE.search(stderr)
    if record.returncode != 0:
        record.problem = f"exit code {record.returncode}: {stderr.strip()[-300:]}"
    elif imported is None:
        record.problem = "no import timestamp on stderr"
    elif hashlib.sha256(stdout).hexdigest() != expected:
        record.problem = "stdout differs from its committed digest"
    elif record.invocation.store == "warm" and cache and int(cache.group(2)):
        record.problem = f"warm census reported {cache.group(2)} cache misses"
    else:
        record.ok = True


def store_snapshot(store: Path) -> dict:
    snapshot = {}
    for path in sorted(store.iterdir()):
        st = path.stat()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        snapshot[path.name] = (st.st_size, st.st_mtime_ns, st.st_ino, digest)
    return snapshot


def prepare_warm_store(invocations, ctx: Context, work_root: Path) -> None:
    """Fill the warm store once per checkout and version of src/.

    The store is written by the code under test, so a change of the column
    format is picked up; filling is set-up and appears in no metric.
    """
    key = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        key.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    for inv in invocations:
        key.update(inv.command.encode() + b"\0")
    final = work_root / f"warm-{key.hexdigest()[:16]}"
    if not final.is_dir():
        fill = work_root / f"{final.name}.tmp{os.getpid()}"
        fill.mkdir(parents=True)
        for index, inv in enumerate(invocations):
            directory = ctx.workdir / f"fill{index}"
            directory.mkdir()
            returncode = spawn([*inv.command.split(), "--jobs", "2", "--cache-dir", str(fill)],
                               directory, None)[2]
            stdout = (directory / "stdout").read_bytes()
            if returncode != 0 or (hashlib.sha256(stdout).hexdigest()
                                   != ctx.digests.get(inv.command, {}).get("sha256")):
                # The unfinished store stays under its .tmp name and is never used.
                raise SetupFailed(f"filling the warm store with `{inv.command}` failed "
                                  f"(exit code {returncode}, or stdout differs from its digest)")
        os.replace(fill, final)
    ctx.warm_store = final
    ctx.warm_snapshot = store_snapshot(final)


def layer_totals(trace_dirs) -> dict:
    """Sum spans, leaves and counters over every process of a traced pass."""
    total = {"dur": Counter(), "calls": Counter(), "module_self": Counter(),
             "leaves": {}, "counts": Counter(), "peaks": Counter(), "missing": set()}
    for trace_dir in trace_dirs:
        for path in sorted(trace_dir.glob("*.json")):
            data = json.loads(path.read_text(encoding="ascii"))
            spans = data["spans"]
            child = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
            for index, (name, start, end, _, leaf_s) in enumerate(spans):
                own = end - start - child[index] - leaf_s
                total["dur"][name] += end - start
                total["calls"][name] += 1
                total["module_self"][name.split(".")[0]] += own
            for name, (calls, hits, seconds) in data["leaves"].items():
                entry = total["leaves"].setdefault(name, [0, 0, 0.0])
                entry[0] += calls
                entry[1] += hits
                entry[2] += seconds
                total["module_self"][name.split(".")[0]] += seconds
            total["counts"].update(data["counts"])
            for name, value in data["peaks"].items():
                total["peaks"][name] = max(total["peaks"][name], value)
            total["missing"].update(data["missing"])
    return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(total: dict, stdout_bytes: int) -> dict:
    dur, calls, counts = total["dur"], total["calls"], total["counts"]
    module_self = total["module_self"]
    _, enumerated, enum_s = total["leaves"].get("partitions.enumerate", (0, 0, 0.0))
    probes, probe_hits, probe_s = total["leaves"].get("cores.rim_hook", (0, 0, 0.0))
    states = counts["characters.memo_misses"]
    bounds_reports = sum(v for k, v in calls.items() if k.startswith("bounds."))
    metrics = {
        "partitions.enumerated": enumerated,
        "partitions.enumerate_s": enum_s,
        "partitions.self_s": module_self["partitions"],
        "cores.rim_hook_probes": probes,
        "cores.rim_hook_yield": _ratio(probe_hits, probes),
        "cores.rim_hook_s": probe_s,
        "cores.count_k_cores_s": dur["cores.count_k_cores"],
        "cores.core_rows_built": counts["cores.core_rows_built"],
        "cores.multipartition_count_s": dur["cores.multipartition_count"],
        "cores.self_s": module_self["cores"],
        "characters.columns": calls["characters.compute_column"],
        "characters.compute_column_s": dur["characters.compute_column"],
        "characters.self_s": module_self["characters"],
        "characters.states": states,
        "characters.memo_hit_ratio": _ratio(counts["characters.memo_hits"],
                                            counts["characters.memo_hits"] + states),
        "characters.states_per_s": _ratio(states, dur["characters.compute_column"]),
        "characters.memo_peak_entries": total["peaks"]["characters.memo_peak_entries"],
        "padic.labels": counts["padic.labels"],
        "padic.fiber_size_s": dur["padic.fiber_size"],
        "padic.fiber_reuse_ratio": _ratio(counts["padic.classes_covered"], counts["padic.labels"]),
        "padic.self_s": module_self["padic"],
        "bounds.reports": bounds_reports,
        "bounds.self_s": module_self["bounds"],
        "census.columns_computed": counts["census.columns_computed"],
        "census.columns_loaded": counts["census.columns_loaded"],
        "census.store_load_s": dur["store.load"],
        "census.store_bytes_read": counts["census.store_bytes_read"],
        "census.store_save_s": dur["store.save"],
        "census.store_bytes_written": counts["census.store_bytes_written"],
        "census.pool_wall_s": dur["pool.run"],
        "census.pool_startup_s": counts["census.pool_startup_s"],
        "census.self_s": module_self["census"],
        "cli.self_s": module_self["cli"],
        "cli.stdout_bytes": stdout_bytes,
    }
    # A hook whose target no longer exists makes its metrics absent, not 0.
    for hook in tracer.HOOKS:
        if f"{hook.module}.{hook.attr}" in total["missing"]:
            for name in hook.metrics:
                metrics.pop(name, None)
    return metrics


EXACT_UNITS = ("count", "B", "ratio")


def measure(name: str, invocations, seed: int, seconds: float, trace: bool, digests: dict,
            work_root: Path = WORK_ROOT) -> dict:
    """Run one workload for about `seconds` and return its report (see module docstring)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workdir = work_root / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(digests, workdir)
    try:
        # Set-up: compile the bytecode once, as an installed package would have it.
        spawn(["--help"], workdir, None)
        warm = [inv for inv in invocations if inv.store == "warm"]
        if warm:
            prepare_warm_store(warm, ctx, work_root)
        rng = random.Random(seed)
        kinds = (False, True) if trace else (False,)
        walls = {False: [], True: []}
        untraced, traced_passes, modules, records = [], [], [], []
        start = time.monotonic()
        while True:
            traced = trace and len(walls[True]) < len(walls[False])
            if all(walls[kind] for kind in kinds):
                if time.monotonic() - start + statistics.median(walls[traced]) > seconds:
                    break
            order = rng.sample(invocations, len(invocations))
            wall, pass_records = run_pass(order, ctx, traced)
            walls[traced].append(wall)
            records += pass_records
            if traced:
                total = layer_totals(r.directory / "trace" for r in pass_records)
                modules.append(total["module_self"])
                traced_passes.append(layer_metrics(total, sum(r.stdout_bytes for r in pass_records)))
            else:
                untraced.append(pass_records)
            for record in pass_records:
                shutil.rmtree(record.directory, ignore_errors=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    wall_s = statistics.median(walls[False])
    work = sum(digests[inv.command]["work"] for inv in invocations)
    if trace:
        metrics = {}
        for key in traced_passes[0]:
            values = [m[key] for m in traced_passes]
            if units.get(key) in EXACT_UNITS:
                metrics[key] = values[0]
                if any(v != values[0] for v in values):
                    ctx.problems.append(f"{key} differs between traced passes: {values}")
            else:
                metrics[key] = statistics.median(values)
        metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / wall_s
        samples = f"times: median of {len(walls[True])} traced passes; counts: one traced pass"
    else:
        setups = [r.setup_s for r in records if r.setup_s is not None]
        samples = f"wall_s: median of {len(walls[False])} passes; setup_s: median of {len(setups)} invocations"
        metrics = {
            "wall_s": wall_s,
            "work_per_s": work / wall_s,
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in untraced),
            "setup_s": statistics.median(setups) if setups else 0.0,
        }
    return {
        "workload": name,
        "seed": seed,
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "work_per_pass": work,
        "samples": samples,
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and not ctx.problems,
        "problems": ctx.problems,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        "module_self_s": {module: statistics.median(m[module] for m in modules)
                          for module in sorted(set().union(*modules))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "snchar" / "cli.py").is_file():
        print(f"perfbench: no snchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def stop(signum, frame):
        # If a command line is running, spawn() kills it on the way out.
        raise RunStopped(f"stopped by {signal.Signals(signum).name} "
                         f"(a run may take at most {RUN_LIMIT_S} s)")

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(RUN_LIMIT_S)
    digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))["digests"]
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    try:
        report = measure(args.workload, WORKLOADS[args.workload], args.seed, seconds,
                         bool(args.trace), digests)
    except (RunStopped, SetupFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    signal.alarm(0)
    print_report(report)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def print_report(report: dict) -> None:
    passes = report["passes"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes untraced {passes['untraced']} traced {passes['traced']}  "
          f"work per pass {report['work_per_pass']}")
    print(f"  ({report['samples']})")
    if report["module_self_s"]:
        print("  self time by module (median over traced passes):")
        for module, seconds in report["module_self_s"].items():
            print(f"    {module:12s} {seconds:10.4f} s")
    for name, metric in report["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'failed_ratio':32s} {failed / attempted:>16.6g} ratio  ({failed} of {attempted} invocations)")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
