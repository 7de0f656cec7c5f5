"""In-memory span recorder that wraps pulseplan's public entry points.

The tracer rebinds functions and methods from outside the package, so the
program under test is unchanged.  Each span records its name, start, end,
parent span and run id (one run per benchmark request); an optional count
taken from the wrapped call's result rides along.  Spans stay in memory
until the benchmark ends.  A span's self time is its duration minus the
durations of its direct children; a layer is the span-name prefix before
the first dot, which is the pulseplan module the entry point lives in.
"""

from __future__ import annotations

import functools
import json
import sys
import time

NAME, START, END, PARENT, RUN, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.counters: dict[int, list] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span; ``count(result)`` is stored with it."""
        spans = self.spans
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, 0]
        self._stack.append(len(spans))
        spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            rec[COUNT] = count(result)
        return result

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)
        return traced

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, attr, name, count=None):
        """Rebind ``module.attr`` in every pulseplan module that imported it."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pulseplan" and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr, name, count=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, count))

    def register_counters(self, cls):
        """Collect every ``cls`` instance (OpCounters) made during a run."""
        original = cls.__dict__["__init__"]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            self.counters.setdefault(self.run_id, []).append(obj)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = init

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def run_summary(self, run_id, root):
        """Per-name totals for one run's spans under root spans named
        ``root``: duration, self time, calls and summed counts."""
        spans = self.spans
        roots: dict[int, int] = {}
        durations: dict[int, float] = {}
        child_time: dict[int, float] = {}
        for i, s in enumerate(spans):
            if s[RUN] != run_id:
                continue
            roots[i] = i if s[PARENT] < 0 else roots[s[PARENT]]
            if spans[roots[i]][NAME] != root:
                continue
            d = s[END] - s[START]
            durations[i] = d
            if s[PARENT] >= 0:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + d
        out: dict[str, dict] = {}
        for i, d in durations.items():
            s = spans[i]
            agg = out.setdefault(s[NAME], {"dur": 0.0, "self": 0.0, "calls": 0, "count": 0})
            agg["dur"] += d
            agg["self"] += d - child_time.get(i, 0.0)
            agg["calls"] += 1
            agg["count"] += s[COUNT]
        return out

    def counter_totals(self, run_id) -> dict[str, int]:
        totals: dict[str, int] = {}
        for c in self.counters.get(run_id, []):
            for k, v in c.snapshot().items():
                totals[k] = totals.get(k, 0) + v
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "run": s[RUN], "count": s[COUNT],
                }) + "\n")


def install(tracer: Tracer, pulseplan_modules) -> None:
    """Wrap the entry points of every layer the workloads reach."""
    io, radar, geometry, structures, edbf, sdbf, ip = pulseplan_modules
    tracer.patch_function(io, "parse_scenario", "io.parse_scenario")
    tracer.patch_function(io, "schedule_to_text", "io.schedule_to_text")
    tracer.patch_function(io, "parse_schedule", "io.parse_schedule")
    tracer.patch_function(radar, "build_availability_table", "radar.table",
                          count=lambda t: t.q_p)
    tracer.patch_function(geometry, "enumerate_disks", "geometry.catalog",
                          count=lambda c: c.n_disks)
    tracer.patch_function(structures, "build_backend", "structures.backend_build")
    tracer.patch_method(structures.BucketList, "__init__", "structures.bucket_build")
    tracer.register_counters(structures.OpCounters)
    tracer.patch_method(edbf.EdbfRun, "__init__", "edbf.init")
    tracer.patch_method(edbf.EdbfRun, "run", "edbf.loop")
    tracer.patch_method(edbf.Episode, "run", "edbf.episode", count=len)
    tracer.patch_method(sdbf.SdbfRun, "__init__", "sdbf.init")
    tracer.patch_method(sdbf.DiskSelector, "__init__", "sdbf.selector_build")
    tracer.patch_method(sdbf.SdbfRun, "run", "sdbf.loop")
    tracer.patch_method(sdbf.SdbfRun, "_disk_backend", "sdbf.disk_backend")
    tracer.patch_function(ip, "build_instance", "ip.instance")
    tracer.patch_function(ip, "check_feasible", "ip.check")
    tracer.patch_function(ip, "solve_exact", "ip.exact")
