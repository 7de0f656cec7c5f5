"""Layered benchmark for pulseplan: end-to-end timings plus per-module spans.

Usage (from the repository root):

    python3 bench/run.py --workload edbf-64k --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --trace 1  # all three, one after another

Workloads (closed loop, one caller, one process, no worker pool):

* ``edbf-64k``  -- ``pulseplan schedule --mode edbf`` on 64,000 tasks.
* ``sdbf-4k``   -- ``pulseplan schedule --mode sdbf`` on 4,000 tasks.
* ``oracle-10`` -- ``pulseplan oracle-compare --mode edbf`` on 200 seeded
  10-task scenarios (3 PRFs, n_intlv 4).  Exact-solve times are heavy
  tailed, so the per-run figure is the geometric mean over the instances:
  resampling 500 measured instances put the interquartile spread of a
  100-instance median at 17%, and of a 200-instance geometric mean at 9%.

Each run first sets up its inputs five times in a fresh interpreter
(import pulseplan, generate, write the scenario files) and reports the
median scaled CPU time as ``setup_s``.  It then calls ``pulseplan.cli.main``
in-process, one request after another, for ``--seconds`` seconds, records
the wall time, the CPU time (``call_cpu_s``) and the scaled CPU time
(``call_norm_s``) of each call, and audits every output: schedules are
re-parsed and checked against C1-C8, oracle reports must list 18 feasible
heuristic rules with ratio >= 1, and at the default seed the output bytes
must match the digests pinned in ``pinned.json``.
Any exception, non-zero exit code, violation or mismatch is a failure.
Scaled times are CPU seconds at a fixed reference speed, which a speed
probe samples while the measured code runs (see probe.py); they are the
gated times, because the raw ones drift with the shared host's speed.

With ``--trace 1`` requests run in pairs, one untraced and one with the
tracer installed (alternating which goes first), and the per-layer metrics
are per-request means over the traced ones.  Layer self times of the call
tree plus ``cli.overhead_s`` add up to the traced call time;
``trace.overhead_s`` is the median over pairs of traced minus untraced.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the readable report.
Full results go to ``bench/out/`` (spans as JSON lines in traced runs);
``--record PATH`` also merges them into a baseline file like BENCH_0.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as textio
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from probe import SpeedProbe
from tracer import Tracer, install

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINNED = BENCH / "pinned.json"
DEFAULT_SEED = 1
SETUP_REPS = 5
LAYERS = ("io", "radar", "geometry", "structures", "edbf", "sdbf", "ip")
ORACLE_RULES = 18  # len(PRF_RULES) * len(TASK_RULES)

# The metrics printed on the last line; BENCHMARK.json lists the same names.
# Each applies to every workload, so none reads 0 on any of them.  The gated
# times are scaled CPU seconds (see probe.py): on a shared 2-core machine,
# wall time also counts the time other tenants hold the cores, and CPU time
# drifts with the host's speed.  Wall and raw CPU times are printed in the
# report as schedule_s, verify_s, oracle_s, oracle_p90_s and call_cpu_s.
END_TO_END = {
    "setup_s": "s",
    "call_norm_s": "s",
    "objective_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "io.parse_s": "s",
    "io.self_s": "s",
    "radar.table_s": "s",
    "radar.memberships": "count",
    "structures.backend_build_s": "s",
    "structures.backend_builds": "count",
    "structures.bucket_build_s": "s",
    "structures.backend_queries": "count",
    "structures.backend_deletes": "count",
    "structures.list_inspections": "count",
    "structures.bucket_ops": "count",
    "structures.selector_ops": "count",
    "edbf.episode_s": "s",
    "edbf.self_s": "s",
    "edbf.episodes": "count",
    "edbf.bi_iterations": "count",
    "edbf.placed_per_iteration": "ratio",
    "edbf.fill": "ratio",
    "ip.instance_s": "s",
    "ip.check_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "schedule" or "oracle"
    n_tasks: int
    options: tuple[str, ...]    # CLI options after the subcommand's inputs
    instances: int = 1
    n_intlv: int = 8
    n_prfs: int = 8
    grid: tuple[float, float] | None = None   # (grid eps, disk radius)

    @property
    def mode(self) -> str:
        return self.options[self.options.index("--mode") + 1]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("edbf-64k", "schedule", 64_000,
                 ("--mode", "edbf", "--prf-rule", "G", "--task-rule", "SAR",
                  "--backend", "rangetree")),
        Workload("sdbf-4k", "schedule", 4_000,
                 ("--mode", "sdbf", "--disk-rule", "GD", "--sub-rule", "R",
                  "--grid-eps", "0.02", "--disk-radius", "0.05"),
                 grid=(0.02, 0.05)),
        Workload("oracle-10", "oracle", 10, ("--mode", "edbf"),
                 instances=200, n_intlv=4, n_prfs=3),
    )
}
# BENCHMARK.json gates edbf-64k and sdbf-4k only, with 40-second runs: the
# run budget does not hold three workloads at a length where the medians
# settle.  oracle-10 stays here for the report, the traced exact-solver
# numbers and the BENCH_* files.
# Small variants for the self-test; same code paths, seconds not minutes.
TINY = {"edbf-64k": {"n_tasks": 2_000}, "sdbf-4k": {"n_tasks": 300},
        "oracle-10": {"n_tasks": 6, "instances": 5}}


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, failed set-up)."""


# -- environment -------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pulseplan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, w: Workload) -> dict:
    import numpy
    import sortedcontainers

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sortedcontainers": sortedcontainers.__version__,
        "commit": git_commit(ROOT),
        "src_sha256": src_digest(),
        "machine": platform.machine(),
        "seed": seed,
        "sizes": {"n_tasks": w.n_tasks, "instances": w.instances,
                  "n_intlv": w.n_intlv, "n_prfs": w.n_prfs},
    }


# -- set-up ------------------------------------------------------------------

def scenario_rows(w: Workload, seed: int):
    if w.kind == "schedule":
        return [["scenario.txt", w.n_tasks, seed, w.n_intlv, w.n_prfs]]
    return [[f"o{i:03d}.txt", w.n_tasks, seed * 1000 + i, w.n_intlv, w.n_prfs]
            for i in range(w.instances)]


def setup(w: Workload, seed: int, work: Path) -> list[float]:
    """Scaled CPU seconds of each set-up."""
    spec = json.dumps(scenario_rows(w, seed))
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "gen_inputs.py"), str(SRC), str(work), spec],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[0]))
    return times


def import_pulseplan():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pulseplan
    from pulseplan import cli, edbf, geometry, ip, radar, sdbf, structures
    from pulseplan import io as pio

    if Path(pulseplan.__file__).resolve().parent != (SRC / "pulseplan").resolve():
        raise BenchError(f"imported pulseplan from {pulseplan.__file__}, not {SRC}")
    return {"cli": cli, "io": pio, "radar": radar, "geometry": geometry,
            "structures": structures, "edbf": edbf, "sdbf": sdbf, "ip": ip}


# -- requests ----------------------------------------------------------------

@dataclass
class Sample:
    instance: int
    traced: bool
    call_s: float
    cpu_s: float = 0.0
    norm_s: float = 0.0         # cpu_s scaled to the probe's reference speed
    verify_s: float = 0.0
    digest: str = ""
    objective: float = 0.0      # schedule dwell, or best heuristic objective
    ratio: float = 0.0          # objective over its lower bound or optimum
    problems: list = field(default_factory=list)


class Call:
    """One ``pulseplan`` invocation in this process: exit code, wall, CPU
    and scaled CPU time, and the console output.

    The speed probe runs only in untraced measurements (``probe`` set); its
    last median stands in for calls too short for it to fire.
    """

    last_probe_ns = None

    def __init__(self, mods, argv, tracer, probe):
        sink = textio.StringIO()
        speed = SpeedProbe() if probe else contextlib.nullcontext()
        t0, c0 = time.perf_counter(), cpu_seconds()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), speed:
            if tracer is None:
                self.code = mods["cli"].main(argv)
            else:
                self.code = tracer.call("cli.main", mods["cli"].main, argv)
        self.wall_s, self.cpu_s = time.perf_counter() - t0, cpu_seconds() - c0
        self.output = sink.getvalue()
        self.norm_s = 0.0
        if probe:
            self.norm_s = speed.scaled(self.cpu_s, Call.last_probe_ns)
            Call.last_probe_ns = speed.median_ns(Call.last_probe_ns)

    def sample(self, instance, traced) -> Sample:
        sample = Sample(instance, traced, self.wall_s, self.cpu_s, self.norm_s)
        if self.code != 0:
            sample.problems.append(f"exit code {self.code}: {self.output.strip()[-300:]}")
        return sample


def cpu_seconds() -> float:
    """CPU time of this process (ns clock) and its reaped children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


class ScheduleRequests:
    """``pulseplan schedule`` from scenario file to schedule file, then audit."""

    def __init__(self, w, seed, work, mods, corrupt):
        self.w, self.seed, self.mods, self.corrupt = w, seed, mods, corrupt
        self.scenario = work / "scenario.txt"
        self.out = work / "schedule.txt"
        pio, radar = mods["io"], mods["radar"]
        cfg, prfs, tasks = pio.parse_scenario(self.scenario.read_text(encoding="utf-8"))
        self.table = radar.build_availability_table(tasks, prfs, cfg)
        self.reference = self.table
        self.catalog = None
        if w.grid is not None:
            geometry = mods["geometry"]
            self.catalog = geometry.enumerate_disks(
                self.table, geometry.GridSpec(spacing=w.grid[0], disk_radius=w.grid[1]))
            self.reference = self.catalog
        min_dwell = min(self.table.dwell(p) for p in range(self.table.n_prfs))
        self.lower_bound = math.ceil(len(tasks) / cfg.n_intlv) * min_dwell

    def count(self):
        return 1

    def sizes(self) -> dict:
        out = {"tasks": self.table.n_tasks, "memberships": self.table.q_p}
        if self.catalog is not None:
            out.update(disks=self.catalog.n_disks, disk_memberships=self.catalog.q_d)
        return out

    def run(self, i, tracer, probe) -> Sample:
        argv = ["schedule", str(self.scenario), "--out", str(self.out),
                "--seed", str(self.seed), *self.w.options]
        sample = Call(self.mods, argv, tracer, probe).sample(i, tracer is not None)
        if sample.problems:
            return sample
        if self.corrupt:
            corrupt_schedule(self.out)
        t0 = time.perf_counter()
        if tracer is None:
            schedule, violations, data = self.audit()
        else:
            schedule, violations, data = tracer.call("audit.verify", self.audit)
        sample.verify_s = time.perf_counter() - t0
        sample.digest = hashlib.sha256(data).hexdigest()
        if violations:
            sample.problems.append(
                f"{len(violations)} C1-C8 violation(s), first: {violations[0]}")
        if schedule.meta.get("mode") != self.w.mode:
            sample.problems.append(f"schedule meta mode {schedule.meta.get('mode')!r}")
        sample.objective = schedule.objective()
        sample.ratio = sample.objective / self.lower_bound
        return sample

    def audit(self):
        """Re-parse the emitted schedule and check it against C1-C8."""
        pio, ip = self.mods["io"], self.mods["ip"]
        data = self.out.read_bytes()
        schedule = pio.parse_schedule(data.decode("utf-8"))
        # One candidate look per PRF or disk: check_feasible validates the
        # schedule's own looks, so more copies would only cost time.
        inst = ip.build_instance(self.reference, copies=1)
        return schedule, ip.check_feasible(schedule, inst), data


class OracleRequests:
    """``pulseplan oracle-compare`` per seeded scenario, then report checks."""

    def __init__(self, w, seed, work, mods, corrupt):
        self.w, self.seed, self.work, self.mods, self.corrupt = w, seed, work, mods, corrupt

    def count(self):
        return self.w.instances

    def sizes(self) -> dict:
        return {"instances": self.w.instances, "tasks_per_instance": self.w.n_tasks}

    def run(self, i, tracer, probe) -> Sample:
        scenario = self.work / f"o{i:03d}.txt"
        report = self.work / f"o{i:03d}.out"
        argv = ["oracle-compare", str(scenario), "--out", str(report),
                "--seed", str(self.seed), *self.w.options]
        sample = Call(self.mods, argv, tracer, probe).sample(i, tracer is not None)
        if sample.problems:
            return sample
        if self.corrupt:
            report.write_text(report.read_text().replace(" feasible", " INFEASIBLE(1)", 1))
        data = report.read_bytes()
        sample.digest = hashlib.sha256(data).hexdigest()
        optimum, heuristics = None, []
        for line in data.decode("utf-8").splitlines()[2:]:
            fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
            if " exact " in line:
                optimum = float(fields["objective"])
                continue
            heuristics.append(float(fields["objective"]))
            if not line.endswith(" feasible"):
                sample.problems.append(f"instance {i}: {line}")
            elif float(fields.get("ratio", "0")) < 1.0:
                sample.problems.append(f"instance {i}: ratio below 1: {line}")
        if optimum is None or len(heuristics) != ORACLE_RULES:
            sample.problems.append(
                f"instance {i}: expected an exact line and {ORACLE_RULES} rules, "
                f"got {len(heuristics)}")
            return sample
        sample.objective = min(heuristics)
        sample.ratio = sample.objective / optimum
        return sample


def corrupt_schedule(path: Path) -> None:
    """Self-test hook: schedule the first assigned task a second time."""
    lines = path.read_text(encoding="utf-8").splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("assign "))
    lines.insert(first, lines[first])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- the measured loop -------------------------------------------------------

def measure(requests, seconds, trace, mods):
    """Closed loop: one request after another until the time is used.

    Schedule workloads repeat one request (at least 3 times, or 2 traced
    pairs); the oracle workload cycles through its instances and, untraced,
    finishes at least one full pass so every run covers the same inputs.
    """
    tracer = Tracer() if trace else None
    modules = [mods[m] for m in LAYERS]
    if requests.count() > 1:
        minimum = 20 if trace else requests.count()
    else:
        minimum = 2 if trace else 3
    samples, request_times = [], []
    start = time.perf_counter()
    k = 0
    while k < minimum or (time.perf_counter() - start
                          + statistics.median(request_times) <= seconds):
        t0 = time.perf_counter()
        i = k % requests.count()
        order = (False, True) if k % 2 == 0 else (True, False)
        for traced in (order if trace else (False,)):
            if traced:
                tracer.run_id = len(samples)
                install(tracer, modules)
                try:
                    samples.append(requests.run(i, tracer, False))
                except Exception:
                    samples.append(Sample(i, True, 0.0, problems=[traceback.format_exc()]))
                finally:
                    tracer.unpatch()
            else:
                try:
                    samples.append(requests.run(i, None, not trace))
                except Exception:
                    samples.append(Sample(i, False, 0.0, problems=[traceback.format_exc()]))
        request_times.append(time.perf_counter() - t0)
        k += 1
    return samples, tracer


# -- metrics -----------------------------------------------------------------

def check_outputs(w, seed, scale, samples, pinned):
    """Digest checks: pinned bytes at the default seed, else run-internal
    determinism (every repeat of a request yields the first one's bytes)."""
    expected = None
    if scale == "full" and seed == pinned.get(w.name, {}).get("seed"):
        expected = pinned[w.name]["sha256"]
        if isinstance(expected, str):
            expected = [expected]
    first = {}
    for s in samples:
        if not s.digest:
            continue
        want = expected[s.instance] if expected else first.setdefault(s.instance, s.digest)
        if s.digest != want:
            s.problems.append(f"request {s.instance}: sha256 {s.digest[:16]}... "
                              f"differs from {'pinned' if expected else 'first run'} "
                              f"{want[:16]}...")
    return expected is not None


def per_instance(samples, field):
    by = {}
    for s in samples:
        by.setdefault(s.instance, []).append(getattr(s, field))
    return [statistics.median(v) for _, v in sorted(by.items())]


def end_to_end(w, samples, setup_times):
    ok = [s for s in samples if not s.problems]
    untraced = [s for s in ok if not s.traced]
    metrics = {"setup_s": (statistics.median(setup_times), "s", len(setup_times))}
    if w.kind == "oracle":
        calls = per_instance(untraced, "call_s") or [0.0]
        cpus = per_instance(untraced, "cpu_s") or [0.0]
        norms = per_instance(untraced, "norm_s") or [0.0]
    else:
        calls = [s.call_s for s in untraced] or [0.0]
        cpus = [s.cpu_s for s in untraced] or [0.0]
        norms = [s.norm_s for s in untraced] or [0.0]
    if w.kind == "schedule":
        metrics["schedule_s"] = metrics["call_s"] = (statistics.median(calls), "s", len(calls))
        metrics["call_cpu_s"] = (statistics.median(cpus), "s", len(cpus))
        metrics["call_norm_s"] = (statistics.median(norms), "s", len(norms))
        metrics["verify_s"] = (statistics.median([s.verify_s for s in untraced] or [0.0]),
                               "s", len(untraced))
        obj = ok[0].objective if ok else 0.0
        metrics["objective_s"] = (obj, "s", 1)
        metrics["objective_ratio"] = (ok[0].ratio if ok else 0.0, "ratio", 1)
    else:
        metrics["oracle_s"] = (statistics.median(calls), "s", len(calls))
        metrics["oracle_gmean_s"] = metrics["call_s"] = (
            statistics.geometric_mean(calls) if min(calls) > 0 else 0.0, "s", len(calls))
        metrics["call_cpu_s"] = (
            statistics.geometric_mean(cpus) if min(cpus) > 0 else 0.0, "s", len(cpus))
        metrics["call_norm_s"] = (
            statistics.geometric_mean(norms) if min(norms) > 0 else 0.0, "s", len(norms))
        p90 = statistics.quantiles(calls, n=10)[-1] if len(calls) >= 2 else calls[0]
        metrics["oracle_p90_s"] = (p90, "s", len(calls))
        ratios = per_instance(ok, "ratio") if ok else [0.0]
        metrics["gap_pct"] = (100.0 * (statistics.fmean(ratios) - 1.0), "%", len(ratios))
        metrics["objective_ratio"] = (statistics.fmean(ratios), "ratio", len(ratios))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB", 1)
    failed = sum(1 for s in samples if s.problems)
    metrics["error_rate"] = (failed / len(samples), "ratio", len(samples))
    return metrics


def layer_metrics(w, samples, tracer, requests):
    """Per-request means over the traced samples, from spans and counters."""
    traced = [r for r, s in enumerate(samples) if s.traced and not s.problems]
    if not traced:
        return {}
    rows = []
    for r in traced:
        call = tracer.run_summary(r, root="cli.main")
        audit = tracer.run_summary(r, root="audit.verify")
        both = {k: {f: call.get(k, {}).get(f, 0) + audit.get(k, {}).get(f, 0)
                    for f in ("dur", "self", "calls", "count")}
                for k in set(call) | set(audit)}

        def g(name, field="dur"):
            return both.get(name, {}).get(field, 0)

        row = {
            "traced_call_s": g("cli.main"),
            "io.parse_s": g("io.parse_scenario"),
            "io.serialize_s": g("io.schedule_to_text"),
            "io.parse_schedule_s": g("io.parse_schedule"),
            "radar.table_s": g("radar.table"),
            "radar.memberships": g("radar.table", "count"),
            "geometry.catalog_s": g("geometry.catalog"),
            "geometry.disks": g("geometry.catalog", "count"),
            "structures.backend_build_s": g("structures.backend_build"),
            "structures.backend_builds": g("structures.backend_build", "calls"),
            "structures.bucket_build_s": g("structures.bucket_build"),
            "edbf.init_s": g("edbf.init"),
            "edbf.prep_self_s": g("edbf.init", "self"),
            "edbf.loop_s": g("edbf.loop"),
            "edbf.bookkeeping_s": g("edbf.loop", "self"),
            "edbf.episode_s": g("edbf.episode"),
            "edbf.episodes": g("edbf.episode", "calls"),
            "placed": g("edbf.episode", "count"),
            "sdbf.init_s": g("sdbf.init"),
            "sdbf.selector_build_s": g("sdbf.selector_build"),
            "sdbf.loop_s": g("sdbf.loop"),
            "sdbf.disk_backend_s": g("sdbf.disk_backend"),
            "sdbf.bookkeeping_s": g("sdbf.loop", "self"),
            "sdbf.looks": g("sdbf.disk_backend", "calls"),
            "ip.instance_s": g("ip.instance"),
            "ip.check_s": g("ip.check"),
            "ip.exact_s": g("ip.exact"),
            "cli.overhead_s": g("cli.main", "self"),
        }
        for layer in LAYERS:
            row[f"{layer}.self_s"] = sum(v["self"] for k, v in call.items()
                                         if k.split(".")[0] == layer)
        counters = tracer.counter_totals(r)
        for key in ("backend_queries", "backend_deletes", "list_inspections",
                    "bucket_ops", "selector_ops"):
            row[f"structures.{key}"] = counters.get(key, 0)
        row["edbf.bi_iterations"] = counters.get("bi_iterations", 0)
        rows.append(row)

    def mean(key):
        return statistics.fmean(row[key] for row in rows)

    out = {k: mean(k) for k in rows[0]}
    out["edbf.placed_per_iteration"] = (
        out["placed"] / out["edbf.bi_iterations"] if out["edbf.bi_iterations"] else 0.0)
    out["edbf.fill"] = (out["placed"] / (out["edbf.episodes"] * w.n_intlv)
                        if out["edbf.episodes"] else 0.0)
    out["ip.exact_share"] = out["ip.exact_s"] / out["traced_call_s"]
    out["geometry.memberships"] = requests.sizes().get("disk_memberships", 0)
    # Requests ran in adjacent (untraced, traced) pairs; the median of the
    # paired differences cancels slow drift in machine speed.
    pairs = zip(samples[0::2], samples[1::2])
    diffs = [(b.call_s - a.call_s) * (1 if b.traced else -1)
             for a, b in pairs if not (a.problems or b.problems)]
    out["trace.overhead_s"] = statistics.median(diffs) if diffs else 0.0
    out["layers_plus_cli_s"] = (sum(out[f"{layer}.self_s"] for layer in LAYERS)
                                + out["cli.overhead_s"])
    out["samples"] = len(rows)
    return out


# -- one workload ------------------------------------------------------------

def run_workload(w: Workload, seed: int, seconds: int, trace: bool,
                 scale: str = "full", corrupt: bool = False) -> dict:
    if scale == "tiny":
        w = replace(w, **TINY[w.name])
    work = OUT / f"{w.name}-{scale}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    setup_times = setup(w, seed, work)
    mods = import_pulseplan()
    cls = ScheduleRequests if w.kind == "schedule" else OracleRequests
    requests = cls(w, seed, work, mods, corrupt)
    samples, tracer = measure(requests, seconds, trace, mods)
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    pinned_checked = check_outputs(w, seed, scale, samples, pinned)
    e2e = end_to_end(w, samples, setup_times)
    layers = layer_metrics(w, samples, tracer, requests) if trace else {}
    failed = sum(1 for s in samples if s.problems)
    result = {
        "workload": w.name, "scale": scale, "seed": seed, "seconds": seconds,
        "trace": int(trace), "sizes": requests.sizes(), "env": environment(seed, w),
        "attempted": len(samples), "failed": failed,
        "pinned_digest_checked": pinned_checked,
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "per_layer": layers,
        "digests": per_instance_digests(samples, w),
        "problems": [p for s in samples for p in s.problems][:20],
        "setup_s_samples": setup_times,
        "call_s_samples": [s.call_s for s in samples if not s.traced],
        "call_cpu_s_samples": [s.cpu_s for s in samples if not s.traced],
        "call_norm_s_samples": [s.norm_s for s in samples if not s.traced],
    }
    stem = f"{w.name}-{scale}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    return result


def per_instance_digests(samples, w):
    digests = {}
    for s in samples:
        if s.digest:
            digests.setdefault(s.instance, s.digest)
    ordered = [digests.get(i, "") for i in range(w.instances)]
    return ordered[0] if w.kind == "schedule" else ordered


def json_metrics(result) -> dict:
    if result["trace"]:
        src, names = result["per_layer"], PER_LAYER
        return {k: {"value": src.get(k, 0.0), "unit": u} for k, u in names.items()}
    src = result["end_to_end"]
    return {k: {"value": src[k]["value"], "unit": u} for k, u in END_TO_END.items()}


def report(result) -> None:
    p = print
    p(f"# workload={result['workload']} scale={result['scale']} seed={result['seed']} "
      f"seconds={result['seconds']} trace={result['trace']} sizes={json.dumps(result['sizes'])}")
    p(f"# env {json.dumps(result['env'])}")
    p(f"# pinned digest checked: {result['pinned_digest_checked']}")
    p("# end-to-end (untraced requests)")
    for name, m in result["end_to_end"].items():
        p(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    p(f"  attempted={result['attempted']} failed={result['failed']}")
    for problem in result["problems"][:5]:
        p(f"  FAILURE: {problem.strip()}")
    layers = result["per_layer"]
    if layers:
        p(f"# per layer (mean per traced request, n={layers['samples']}; "
          "<layer>.self_s over the call tree only)")
        for name in sorted(layers):
            if name != "samples":
                p(f"  {name:<28} {layers[name]:>14.6g}")
        p(f"# layer self times + cli.overhead_s = {layers['layers_plus_cli_s']:.6f} s; "
          f"traced call = {layers['traced_call_s']:.6f} s")


def record(path: Path, result) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault(f"trace{result['trace']}", {})[result["workload"]] = result
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="merge the results into this baseline JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "pulseplan" / "__init__.py").is_file():
        print(f"error: no pulseplan sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    if args.record:
        record(args.record, result)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": json_metrics(result)}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter so that peak RSS
    is per workload; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", str(args.record)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
