"""Reproducible random scenarios and runtime scaling measurements.

Scenario generation is fully determined by its spec (including the seed);
the scaling harness times table construction, structure preprocessing and
the scheduling loop separately, records the operation counters, and fits
the log-log slope of total runtime against the task count.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ScenarioError
from .geometry import GridSpec
from .radar import (
    RadarConfig,
    TaskColumns,
    availability_arrays,
    build_availability_table,
    default_prf_set,
)
from .sdbf import MODES, look_source, mode_source
from .structures import OpCounters


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines a generated scenario."""

    n_tasks: int
    seed: int = 0
    range_bounds: tuple[float, float] = (20_000.0, 120_000.0)
    velocity_bounds: tuple[float, float] = (-300.0, 300.0)
    sigma_r_bounds: tuple[float, float] = (10.0, 50.0)
    sigma_f_bounds: tuple[float, float] = (10.0, 60.0)
    cluster_count: int = 0          # 0 draws scan points uniformly
    cluster_radius: float = 0.15
    scan_extent: float = 0.95       # radius of the populated scan-plane disk
    keep_unschedulable: bool = False

    def __post_init__(self):
        for lo, hi in (self.range_bounds, self.velocity_bounds,
                       self.sigma_r_bounds, self.sigma_f_bounds):
            if lo > hi:
                raise ValueError("scenario bounds must be ordered")
        if self.n_tasks < 0:
            raise ValueError("n_tasks must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _uniform_disk(rng, n, radius):
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    return rad * np.cos(ang), rad * np.sin(ang)


# Draws in a row that keep no row before gen_scenario gives up.
_MAX_EMPTY_DRAWS = 100


def gen_scenario(spec: ScenarioSpec, cfg: RadarConfig | None = None,
                 prfs=None):
    """Draw tasks until the requested count is reached: (cfg, prfs,
    ``TaskColumns``) with task ids 1 to ``n_tasks``.

    Unless ``keep_unschedulable`` is set, draws trackable with no PRF are
    discarded and redrawn, so the emitted scenario has exactly ``n_tasks``
    schedulable tasks.  Identical spec and defaults give identical output.
    The kept rows of each draw are taken from its columns whole.  The
    values, and the bytes ``scenario_to_text`` writes, are the same as
    when each kept row became its own ``TrackTask``; ``TaskColumns`` still
    runs the ``TrackTask`` checks on every row.

    ``ScenarioError`` is raised after ``_MAX_EMPTY_DRAWS`` draws in a row
    keep no row: the radar and PRFs make (almost) no draw trackable.
    """
    cfg = cfg if cfg is not None else RadarConfig()
    prfs = tuple(prfs) if prfs is not None else default_prf_set()
    rng = np.random.default_rng(spec.seed)

    centers = None
    if spec.cluster_count > 0:
        cu, cv = _uniform_disk(rng, spec.cluster_count, 0.8 * spec.scan_extent)
        centers = np.stack([cu, cv], axis=1)

    cols = [[np.zeros(0)] for _ in range(6)]   # so n_tasks=0 concatenates
    have = empty = 0
    while have < spec.n_tasks:
        m = max(2 * (spec.n_tasks - have), 64)
        r = rng.uniform(*spec.range_bounds, m)
        vt = rng.uniform(*spec.velocity_bounds, m)
        sr = rng.uniform(*spec.sigma_r_bounds, m)
        sf = rng.uniform(*spec.sigma_f_bounds, m)
        if centers is None:
            u, v = _uniform_disk(rng, m, spec.scan_extent)
        else:
            which = rng.integers(0, spec.cluster_count, m)
            du, dv = _uniform_disk(rng, m, spec.cluster_radius)
            u = centers[which, 0] + du
            v = centers[which, 1] + dv
        norm = np.sqrt(u * u + v * v)
        over = norm > 0.999
        if over.any():
            u = np.where(over, u * 0.999 / norm, u)
            v = np.where(over, v * 0.999 / norm, v)
        if spec.keep_unschedulable:
            ok = np.ones(m, dtype=bool)
        else:
            av = availability_arrays(r, sr, vt, sf, prfs, cfg)[0]
            ok = av.any(axis=1)
        keep = np.flatnonzero(ok)[:spec.n_tasks - have]
        for col, drawn in zip(cols, (r, sr, vt, sf, u, v)):
            col.append(drawn[keep])
        have += len(keep)
        empty = 0 if len(keep) else empty + 1
        if empty == _MAX_EMPTY_DRAWS:
            raise ScenarioError(
                f"{empty} draws in a row kept no task: no drawn track is trackable "
                f"with these radar and PRF settings ({have} of {spec.n_tasks} drawn)")

    tasks = TaskColumns(range(1, spec.n_tasks + 1), *map(np.concatenate, cols))
    return cfg, prfs, tasks


def fit_complexity(sizes, times) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(time) against log(size)."""
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) points")
    if any(t <= 0 for t in times) or any(s <= 0 for s in sizes):
        raise ValueError("sizes and times must be positive")
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(times, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


@dataclass
class ScalingRow:
    size: int
    prep_ms: float
    sched_ms: float
    total_ms: float
    backend_ops: int
    bi_iterations: int
    bi_max_iterations: int
    looks: int


@dataclass
class ScalingReport:
    mode: str
    backend: str
    rows: list[ScalingRow]
    exponent: float
    residual: float
    counter_exponent: float
    counter_residual: float

    def to_text(self) -> str:
        lines = [
            "pulseplan-scaling v1",
            f"mode={self.mode} backend={self.backend}",
            "size prep_ms sched_ms total_ms backend_ops bi_iterations bi_max looks",
        ]
        for row in self.rows:
            lines.append(
                f"{row.size} {row.prep_ms:.3f} {row.sched_ms:.3f} {row.total_ms:.3f} "
                f"{row.backend_ops} {row.bi_iterations} {row.bi_max_iterations} {row.looks}"
            )
        lines.append(
            f"fit exponent={self.exponent:.4f} r2={self.residual:.4f} "
            f"counter_exponent={self.counter_exponent:.4f} counter_r2={self.counter_residual:.4f}"
        )
        return "\n".join(lines) + "\n"


def _time_one(mode, backend, spec, grid) -> ScalingRow:
    """One generation and timed run, as the row of that one repetition."""
    cfg, prfs, tasks = gen_scenario(spec)
    counters = OpCounters()
    t0 = time.perf_counter()
    table = build_availability_table(tasks, prfs, cfg)
    run = look_source(mode, mode_source(mode, table, grid), counters,
                      backend=backend, seed=spec.seed)
    t1 = time.perf_counter()
    schedule = run.run()
    prep_s, sched_s = t1 - t0, time.perf_counter() - t1
    return ScalingRow(spec.n_tasks, prep_s * 1e3, sched_s * 1e3, (prep_s + sched_s) * 1e3,
                      counters.total_backend_ops(), counters.bi_iterations,
                      counters.bi_max_iterations, schedule.n_looks_used())


def run_scaling(
    mode: str,
    backend: str,
    sizes,
    reps: int = 5,
    template: ScenarioSpec | None = None,
    grid: GridSpec | None = None,
) -> ScalingReport:
    """Median-of-reps timings across strictly increasing sizes.

    Every run uses the default radar configuration, PRF set and rules and
    the one grid, so only the task count scales.  Refuses, before any run,
    fewer than four sizes, a size below 1 and fewer than one repetition.
    Repetitions run one after another in this process, so each timing is
    exclusive.  ``prep_ms`` times the availability table and the
    structures; ``gen_scenario`` already returns columns, so no
    task-to-column conversion is in it.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 4:
        raise ValueError("scaling runs need at least four sizes")
    if sorted(set(sizes)) != sizes:
        raise ValueError("sizes must be strictly increasing")
    if sizes[0] < 1:
        raise ValueError("sizes must be at least 1")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {tuple(MODES)}")
    template = template if template is not None else ScenarioSpec(n_tasks=0, seed=0)
    grid = grid if grid is not None else GridSpec()

    rows = []
    for size in sizes:
        runs = [_time_one(mode, backend, replace(template, n_tasks=size,
                                                 seed=template.seed + 1000 * rep), grid)
                for rep in range(reps)]

        def median(name):
            return statistics.median(getattr(run, name) for run in runs)

        rows.append(ScalingRow(
            size, median("prep_ms"), median("sched_ms"), median("total_ms"),
            int(median("backend_ops")), int(median("bi_iterations")),
            max(run.bi_max_iterations for run in runs), int(median("looks"))))

    return ScalingReport(mode, backend, rows,
                         *fit_complexity(sizes, [r.total_ms for r in rows]),
                         *fit_complexity(sizes, [max(1, r.backend_ops) for r in rows]))
