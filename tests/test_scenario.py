import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pulseplan
from pulseplan import (
    RadarConfig,
    ScenarioSpec,
    TrackTask,
    build_availability_table,
    default_prf_set,
    fit_complexity,
    gen_scenario,
    run_scaling,
)
from pulseplan.io import parse_scenario, scenario_to_text
from pulseplan.radar import TaskColumns, availability_arrays

from oracles import fields_scenario_text, rowwise_gen_scenario


class TestGeneration:
    def test_same_seed_same_bytes(self):
        spec = ScenarioSpec(n_tasks=30, seed=9, cluster_count=2)
        a = scenario_to_text(*gen_scenario(spec))
        b = scenario_to_text(*gen_scenario(spec))
        assert a == b

    def test_different_seed_differs(self):
        a = scenario_to_text(*gen_scenario(ScenarioSpec(n_tasks=30, seed=1)))
        b = scenario_to_text(*gen_scenario(ScenarioSpec(n_tasks=30, seed=2)))
        assert a != b

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            ScenarioSpec(n_tasks=5, seed=-1)

    def test_zero_tasks_is_valid(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=0, seed=0))
        assert len(tasks) == 0 and tasks == TaskColumns.from_tasks(())
        assert scenario_to_text(cfg, prfs, tasks).startswith("pulseplan-scenario v1")

    def test_every_emitted_task_is_schedulable(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=120, seed=3))
        table = build_availability_table(tasks, prfs, cfg)
        assert table.unschedulable == ()
        assert len(tasks) == 120

    def test_no_trackable_draw_is_refused(self):
        # a range confidence of 1e9 sigma leaves no draw trackable; it must
        # refuse, not draw forever, so it runs in a process with a timeout
        script = textwrap.dedent('''
            from pulseplan import RadarConfig, ScenarioError, ScenarioSpec, gen_scenario
            try:
                gen_scenario(ScenarioSpec(n_tasks=1), RadarConfig(n_r=1e9))
            except ScenarioError as exc:
                print(exc)
        ''')
        path = [str(Path(pulseplan.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ("100 draws in a row kept no task: no drawn track is trackable "
                               "with these radar and PRF settings (0 of 1 drawn)\n")

    def test_keep_unschedulable_keeps_raw_draws(self):
        spec = ScenarioSpec(n_tasks=200, seed=4, keep_unschedulable=True)
        cfg, prfs, tasks = gen_scenario(spec)
        table = build_availability_table(tasks, prfs, cfg)
        # raw draws include a few untrackable tasks at these defaults
        assert len(tasks) == 200

    def test_schedulable_fraction_of_raw_draws(self):
        # measured over a thousand raw draws against the availability mask;
        # the default ladder keeps well over nine in ten draws trackable
        cfg = RadarConfig()
        prfs = default_prf_set()
        rng = np.random.default_rng(5)
        n = 1000
        r = rng.uniform(20e3, 120e3, n)
        sr = rng.uniform(10, 50, n)
        vt = rng.uniform(-300, 300, n)
        sf = rng.uniform(10, 60, n)
        av = availability_arrays(r, sr, vt, sf, prfs, cfg)[0]
        frac = av.any(axis=1).mean()
        assert frac >= 0.9, f"schedulable fraction {frac:.3f}"

    def test_scan_points_stay_in_unit_disk(self):
        for spec in (ScenarioSpec(n_tasks=80, seed=6),
                     ScenarioSpec(n_tasks=80, seed=7, cluster_count=3,
                                  cluster_radius=0.4)):
            _, _, tasks = gen_scenario(spec)
            assert (tasks.u ** 2 + tasks.v ** 2 <= 1.0).all()


_EDGES = (-0.0, 0.0, 5e-324)
_TASK_FIELDS = {
    # values TrackTask accepts: floats (edges included), Python and numpy ints
    "range_m": st.one_of(st.floats(5e-324, 1e300), st.integers(1, 10**6),
                         st.sampled_from((5e-324, 1e300, 50000.0, np.int64(50000)))),
    "sigma_r": st.one_of(st.floats(0.0, 1e300), st.integers(0, 1000),
                         st.sampled_from(_EDGES + (1e300,))),
    "velocity": st.one_of(st.floats(-1e300, 1e300), st.integers(-10**6, 10**6),
                          st.sampled_from(_EDGES + (1e300, -1e300))),
    "sigma_f": st.one_of(st.floats(0.0, 1e300), st.integers(0, 1000),
                         st.sampled_from(_EDGES + (1e300,))),
    "u": st.one_of(st.floats(-0.7, 0.7), st.sampled_from(_EDGES + (0,))),
    "v": st.one_of(st.floats(-0.7, 0.7), st.sampled_from(_EDGES + (0,))),
}
_TASKS = st.lists(st.builds(TrackTask, id=st.integers(-10**23, 10**23), **_TASK_FIELDS),
                  max_size=20)


def _as_floats(task):
    return TrackTask(task.id, *(float(x) for x in dataclasses.astuple(task)[1:]))


class TestColumnarSynthesis:
    """The columnar generator and writer against the row-at-a-time ones in
    ``oracles``."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 300), seed=st.integers(0, 2**64 - 1),
           clusters=st.integers(0, 4), keep=st.booleans())
    def test_generation_matches_the_row_loop(self, n, seed, clusters, keep):
        spec = ScenarioSpec(n_tasks=n, seed=seed, cluster_count=clusters,
                            keep_unschedulable=keep)
        cfg, prfs, tasks = gen_scenario(spec)
        want = rowwise_gen_scenario(spec)
        assert isinstance(tasks, TaskColumns) and (cfg, prfs) == want[:2]
        assert tasks == TaskColumns.from_tasks(want[2])
        assert tasks.ids == list(range(1, n + 1))
        assert scenario_to_text(cfg, prfs, tasks) == fields_scenario_text(*want)

    @settings(max_examples=200, deadline=None)
    @given(_TASKS)
    def test_writer_matches_the_field_writer(self, tasks):
        cfg, prfs, _ = gen_scenario(ScenarioSpec(n_tasks=0))
        # a TrackTask's own values, Python ints included, are written as they are
        text = scenario_to_text(cfg, prfs, tasks)
        assert text == fields_scenario_text(cfg, prfs, tasks)
        # columns hold floats: the same bytes as tasks built from floats
        floats = tuple(map(_as_floats, tasks))
        text = scenario_to_text(cfg, prfs, TaskColumns.from_tasks(tasks))
        assert text == scenario_to_text(cfg, prfs, floats)
        assert text == fields_scenario_text(cfg, prfs, floats)

    @settings(max_examples=200, deadline=None)
    @given(_TASKS)
    def test_parse_inverts_the_writer(self, tasks):
        cfg, prfs, _ = gen_scenario(ScenarioSpec(n_tasks=0))
        columns = TaskColumns.from_tasks(tasks)
        text = scenario_to_text(cfg, prfs, columns)
        parsed = parse_scenario(text)
        assert parsed == (cfg, prfs, columns)
        # value for value: -0.0 and 0.0 compare equal but write differently
        assert scenario_to_text(*parsed) == text


class TestFitter:
    def test_nlogn_slope(self):
        sizes = [1000 * 2 ** i for i in range(7)]
        times = [2.5e-6 * n * math.log2(n) for n in sizes]
        exp, r2 = fit_complexity(sizes, times)
        assert 1.0 <= exp <= 1.15
        assert r2 > 0.999

    def test_quadratic_log_slope(self):
        sizes = [250, 500, 1000, 2000, 4000]
        times = [1e-9 * n * n * math.log2(n) for n in sizes]
        exp, _ = fit_complexity(sizes, times)
        assert 2.0 <= exp <= 2.2

    def test_pure_quadratic_slope(self):
        sizes = [250, 500, 1000, 2000, 4000]
        times = [1e-9 * n * n for n in sizes]
        exp, _ = fit_complexity(sizes, times)
        assert 1.95 <= exp <= 2.05

    def test_constant_time_slope_near_zero(self):
        sizes = [100, 200, 400, 800]
        times = [0.37] * 4
        exp, _ = fit_complexity(sizes, times)
        assert abs(exp) < 1e-9

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_complexity([10], [1.0])
        with pytest.raises(ValueError):
            fit_complexity([10, 20], [0.0, 1.0])


class TestScalingHarness:
    def test_refuses_fewer_than_four_sizes(self):
        with pytest.raises(ValueError):
            run_scaling("edbf", "rangetree", [100, 200, 400], reps=1)

    def test_refuses_unsorted_sizes(self, monkeypatch):
        with pytest.raises(ValueError):
            run_scaling("edbf", "rangetree", [100, 400, 200, 800], reps=1)
        # no repetition, or a size below 1, is refused before any run
        monkeypatch.setattr(pulseplan.scenario, "_time_one", None)
        with pytest.raises(ValueError, match="reps must be at least 1"):
            run_scaling("edbf", "rangetree", [100, 200, 400, 800], reps=0)
        with pytest.raises(ValueError, match="sizes must be at least 1"):
            run_scaling("edbf", "rangetree", [0, 200, 400, 800], reps=1)

    def test_small_edbf_run_monotone_and_instrumented(self):
        report = run_scaling("edbf", "rangetree", [100, 200, 400, 800], reps=2)
        sizes = [row.size for row in report.rows]
        assert sizes == [100, 200, 400, 800]
        ops = [row.backend_ops for row in report.rows]
        assert all(b > a for a, b in zip(ops, ops[1:]))
        n_intlv = RadarConfig().n_intlv
        assert all(row.bi_max_iterations <= 2 * n_intlv for row in report.rows)
        assert report.counter_exponent == pytest.approx(1.0, abs=0.25)
        text = report.to_text()
        assert text.startswith("pulseplan-scaling v1")
        assert "counter_exponent=" in text

    def test_small_sdbf_run(self):
        report = run_scaling("sdbf", "rangetree", [50, 100, 200, 400], reps=1)
        assert [row.size for row in report.rows] == [50, 100, 200, 400]
        assert all(row.looks > 0 for row in report.rows)
