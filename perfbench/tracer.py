"""Span tracer that invoke.py installs into one snchar process (traced mode).

It wraps, from outside, the calls into each snchar module under the name the
calling module binds them to; nothing in snchar itself is edited.  Spans
(name, start, end, parent, leaf time) stay in memory and are written as JSON
when the process ends; each pool worker writes its own file when the pool
shuts it down.

Calls made hundreds of thousands of times per run (rim-hook probes and the
steps of partition enumeration) are aggregated into a call count, a hit count
and a time instead of one span each; that time is charged to the enclosing
span, so self times stay exact without holding a span per call.

Span names read "<layer>.<function>".  The column store (store.load,
store.save) and the process pool (pool.run) are layers of their own in the
self-time table, so census.self_s is the census functions alone; their
metrics are still named census.*.

Importing this module installs nothing; install() does.
"""

from __future__ import annotations

import functools
import gc
import json
import multiprocessing.util
import os
import time
from typing import NamedTuple

clock = time.perf_counter


class Hook(NamedTuple):
    module: str  # snchar module whose global binding is replaced
    attr: str
    span: str | None  # span name, "<layer>.<function>"; None: no span of its own
    metrics: tuple[str, ...]  # per-layer metrics that need this hook


HOOKS = [
    Hook("cli", "main", "cli.main", ("cli.self_s",)),
    Hook("census", "table_census", "census.table_census",
         ("census.self_s", "census.columns_computed", "census.columns_loaded",
          "padic.labels", "padic.fiber_reuse_ratio")),
    Hook("census", "threshold_experiment", "census.threshold_experiment", ("census.self_s",)),
    Hook("census", "compute_column", "characters.compute_column",
         ("characters.columns", "characters.compute_column_s", "characters.self_s",
          "characters.states_per_s")),
    Hook("census", "fiber_size", "padic.fiber_size", ("padic.fiber_size_s", "padic.self_s")),
    Hook("census", "count_k_cores", "cores.count_k_cores", ("cores.count_k_cores_s", "cores.self_s")),
    Hook("bounds", "count_k_cores", "cores.count_k_cores", ("cores.count_k_cores_s", "cores.self_s")),
    Hook("bounds", "multipartition_count", "cores.multipartition_count",
         ("cores.multipartition_count_s", "cores.self_s")),
] + [
    Hook("bounds", name, "bounds." + name, ("bounds.reports", "bounds.self_s"))
    for name in ("check_multipartition_growth", "check_core_deficit",
                 "check_core_fiber_identity", "core_density_report")
] + [
    Hook(module, "enumerate_partitions", None,
         ("partitions.enumerated", "partitions.enumerate_s", "partitions.self_s"))
    for module in ("characters", "census", "padic")
] + [
    Hook("characters", "_rim_hook_options", None,
         ("cores.rim_hook_probes", "cores.rim_hook_yield", "cores.rim_hook_s", "cores.self_s")),
    Hook("characters", "MemoCache", None,
         ("characters.states", "characters.memo_hit_ratio", "characters.states_per_s",
          "characters.memo_peak_entries")),
    Hook("census", "ColumnStore", None,
         ("census.store_load_s", "census.store_bytes_read", "census.store_save_s",
          "census.store_bytes_written")),
    Hook("census", "ProcessPoolExecutor", None, ("census.pool_wall_s", "census.pool_startup_s")),
    Hook("cores", "_core_count_row", None, ("cores.core_rows_built",)),
]


class Tracer:
    """In-memory spans, aggregated hot leaves and counters of one process."""

    def __init__(self):
        self.missing: list[str] = []  # "module.attr" hooks whose target is gone
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, leaf seconds]
        self.stack: list[int] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, hits, seconds]
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, int] = {}
        self.rows_baseline = 0

    def enter(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), None, parent, 0.0])
        self.stack.append(len(self.spans) - 1)

    def exit(self) -> None:
        self.spans[self.stack.pop()][2] = clock()

    def leaf(self, name: str, seconds: float, hit: bool) -> None:
        entry = self.leaves.get(name)
        if entry is None:
            entry = self.leaves[name] = [0, 0, 0.0]
        entry[0] += 1
        entry[1] += hit
        entry[2] += seconds
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def dump(self, path: str) -> None:
        # The MN recursion is a self-referencing closure, so a memo is freed
        # (and its statistics recorded) only by the cycle collector.
        gc.collect()
        rows = _core_rows_built()
        if rows is not None:
            self.counts["cores.core_rows_built"] = rows - self.rows_baseline
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "leaves": self.leaves, "counts": self.counts,
                       "peaks": self.peaks, "missing": self.missing}, fh)


def _core_rows_built() -> int | None:
    from snchar import cores

    row = getattr(cores, "_core_count_row", None)
    return row.cache_info().misses if hasattr(row, "cache_info") else None


TRACER = Tracer()
_installed = False


def _span(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        TRACER.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.exit()

    return wrapper


def _table_census(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        TRACER.add("census.columns_computed", result.cache_misses)
        TRACER.add("census.columns_loaded", result.cache_hits)
        TRACER.add("padic.labels", len(result.columns))
        TRACER.add("padic.classes_covered", sum(col.fiber_size for col in result.columns))
        return result

    return wrapper


def _enumeration(fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            start = clock()
            try:
                item = next(items)
            except StopIteration:
                TRACER.leaf("partitions.enumerate", clock() - start, False)
                return
            TRACER.leaf("partitions.enumerate", clock() - start, True)
            yield item

    return counted


def _probe(fn):
    @functools.wraps(fn)
    def probe(parts, length):
        start = clock()
        options = fn(parts, length)
        TRACER.leaf("cores.rim_hook", clock() - start, bool(options))
        return options

    return probe


def _memo_class(base):
    class TracedMemo(base):
        # A memo is never used again once it is freed, so its statistics
        # are final here.
        __slots__ = ()

        def __del__(self):
            TRACER.add("characters.memo_hits", self.hits)
            TRACER.add("characters.memo_misses", self.misses)
            TRACER.peak("characters.memo_peak_entries", len(self.table))

    return TracedMemo


def _store_class(cls):
    load, save = cls.load, cls.save

    @functools.wraps(load)
    def traced_load(self, *args, **kwargs):
        TRACER.enter("store.load")
        try:
            entry = load(self, *args, **kwargs)
        finally:
            TRACER.exit()
        TRACER.add("census.store_bytes_read", os.path.getsize(self.path_for(*args, **kwargs)))
        return entry

    @functools.wraps(save)
    def traced_save(self, *args, **kwargs):
        TRACER.enter("store.save")
        try:
            path = save(self, *args, **kwargs)
        finally:
            TRACER.exit()
        TRACER.add("census.store_bytes_written", os.path.getsize(path))
        return path

    cls.load, cls.save = traced_load, traced_save
    return cls


def _worker_start(trace_dir, initializer, initargs):
    # Under fork the worker inherits the parent's hooks and spans; under
    # spawn or forkserver it starts from a fresh import.  Either way it
    # starts its own record, written when the pool shuts the worker down.
    if not _installed:
        install()
    TRACER.reset()
    TRACER.rows_baseline = _core_rows_built() or 0
    path = os.path.join(trace_dir, f"worker-{os.getpid()}.json")
    multiprocessing.util.Finalize(None, TRACER.dump, args=(path,), exitpriority=10)
    if initializer is not None:
        initializer(*initargs)


def _pool_class(base):
    class TracedPool(base):
        def __init__(self, *args, initializer=None, initargs=(), **kwargs):
            TRACER.enter("pool.run")
            self._trace_start = clock()
            self._trace_open = True
            super().__init__(*args, initializer=_worker_start,
                             initargs=(os.environ["PERFBENCH_TRACE_DIR"], initializer, initargs),
                             **kwargs)

        def map(self, *args, **kwargs):
            for index, result in enumerate(super().map(*args, **kwargs)):
                if index == 0:
                    TRACER.add("census.pool_startup_s", clock() - self._trace_start)
                yield result

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._trace_open:
                self._trace_open = False
                TRACER.exit()

    return TracedPool


_WRAPPERS = {
    "table_census": _table_census,
    "enumerate_partitions": _enumeration,
    "_rim_hook_options": _probe,
    "MemoCache": _memo_class,
    "ColumnStore": _store_class,
    "ProcessPoolExecutor": _pool_class,
}


def install() -> None:
    """Wrap every hooked binding that exists; record the ones that do not."""
    global _installed
    import snchar.bounds
    import snchar.census
    import snchar.characters
    import snchar.cli
    import snchar.cores
    import snchar.padic

    _installed = True
    modules = {name: getattr(snchar, name) for name in
               ("bounds", "census", "characters", "cli", "cores", "padic")}
    for hook in HOOKS:
        module = modules[hook.module]
        target = getattr(module, hook.attr, None)
        if target is None or (hook.attr == "_core_count_row" and not hasattr(target, "cache_info")):
            TRACER.missing.append(f"{hook.module}.{hook.attr}")
            continue
        if hook.attr in _WRAPPERS:
            target = _WRAPPERS[hook.attr](target)
        if hook.span is not None:
            target = _span(hook.span, target)
        setattr(module, hook.attr, target)
    TRACER.rows_baseline = _core_rows_built() or 0
