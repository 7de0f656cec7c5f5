import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pulseplan
from pulseplan import (
    RadarConfig,
    ScenarioError,
    ScenarioSpec,
    TrackTask,
    build_availability_table,
    default_prf_set,
    fit_complexity,
    gen_scenario,
    run_scaling,
)
from pulseplan.io import parse_scenario, scenario_to_text
from pulseplan.radar import TaskColumns, availability_arrays, clear_regions

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
        assert done.stdout == (
            "no track is trackable with these radar and PRF settings: at the lowest "
            "sigma bounds (sigma_r=10.0, sigma_f=10.0) every PRF's clear range or "
            "Doppler region is narrower than the confidence interval "
            "(n_r=1000000000.0, n_f=3.0)\n")

    def test_untrackable_config_is_refused_before_any_draw(self, monkeypatch):
        # the lowest sigma bounds fit no PRF, so no draw can be trackable:
        # refused without a single clear_regions call, at any size
        calls = []
        regions = pulseplan.scenario.clear_regions
        monkeypatch.setattr(pulseplan.scenario, "clear_regions",
                            lambda *args: calls.append(1) or regions(*args))
        with pytest.raises(ScenarioError, match="lowest sigma bounds"):
            gen_scenario(ScenarioSpec(n_tasks=64_000), RadarConfig(n_r=1e9))
        assert calls == []
        # no task to draw, or none that must be trackable: nothing to refuse
        assert len(gen_scenario(ScenarioSpec(n_tasks=0), RadarConfig(n_r=1e9))[2]) == 0
        kept = ScenarioSpec(n_tasks=5, keep_unschedulable=True)
        assert len(gen_scenario(kept, RadarConfig(n_r=1e9))[2]) == 5

    def test_blind_draws_are_refused_after_100_draws(self):
        # every drawn range (1 m) lies in each PRF's near blind zone, though
        # the lowest sigma bounds fit every PRF: only the draws can tell
        with pytest.raises(ScenarioError, match="^100 draws in a row kept no task: "
                           r".* \(0 of 1 drawn\)$"):
            gen_scenario(ScenarioSpec(n_tasks=1, range_bounds=(1.0, 1.0)))

    @pytest.mark.parametrize("field, value", [
        ("range_bounds", (20e3, math.inf)),
        ("velocity_bounds", (-math.inf, 300.0)),
        ("sigma_r_bounds", (math.nan, 50.0)),
        ("sigma_f_bounds", (10.0, math.nan)),
        ("scan_extent", math.nan),
        ("cluster_radius", math.inf),
        ("range_bounds", (0, 10**400)),
        ("scan_extent", 10**400),
    ])
    def test_non_finite_fields_are_refused(self, field, value):
        # numpy's uniform draw would raise OverflowError on such a bound (an
        # int past float range too), and an infinite cluster radius would
        # warn in the unit-disk clipping
        with pytest.raises(ValueError, match="must be finite"):
            ScenarioSpec(n_tasks=5, cluster_count=2, **{field: value})

    def test_bounds_past_the_largest_float_span_are_refused(self):
        with pytest.raises(ValueError, match="finite span"):
            ScenarioSpec(n_tasks=5, range_bounds=(-1e308, 1e308))

    @pytest.mark.parametrize("spec", [
        ScenarioSpec(n_tasks=5, scan_extent=1e200),
        ScenarioSpec(n_tasks=5, cluster_count=2, cluster_radius=1e200),
    ], ids=["scan extent", "cluster radius"])
    def test_huge_scan_points_clip_to_the_circle(self, spec):
        # u * u would overflow: the clipping scales such rows first, with
        # no warning, onto the 0.999 circle rather than the origin
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tasks = gen_scenario(spec)[2]
        assert np.allclose(np.hypot(tasks.u, tasks.v), 0.999)

    def test_a_clustered_extent_and_radius_past_float_range_are_refused(self):
        with pytest.raises(ValueError, match="must be finite"):
            ScenarioSpec(n_tasks=5, cluster_count=2, scan_extent=1e308, cluster_radius=1e308)

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


def _draw_field(lo, hi):
    # a drawn value in the spec's default bounds, or one that folds to NaN
    # or overflows to inf in the clear-region test
    return st.one_of(st.floats(lo, hi), st.floats(), st.sampled_from(
        (0.0, -0.0, 5e-324, 1e300, -1e300, 1.7e308, -1.7e308, math.inf, -math.inf)))


_DRAW_FIELDS = (_draw_field(20e3, 120e3), _draw_field(10.0, 50.0),
                _draw_field(-300.0, 300.0), _draw_field(10.0, 60.0))


def _as_floats(task):
    return TrackTask(task.id, *(float(x) for x in dataclasses.astuple(task)[1:]))


class TestColumnarSynthesis:
    """The columnar generator and writer against the row-at-a-time ones in
    ``oracles``."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 300), seed=st.integers(0, 2**64 - 1),
           clusters=st.integers(0, 4), keep=st.booleans(), extent=st.sampled_from((0.95, 2.0)))
    def test_generation_matches_the_row_loop(self, n, seed, clusters, keep, extent):
        # a scan extent of 2 clips rows to the 0.999 circle
        spec = ScenarioSpec(n_tasks=n, seed=seed, cluster_count=clusters,
                            keep_unschedulable=keep, scan_extent=extent)
        cfg, prfs, tasks = gen_scenario(spec)
        want = rowwise_gen_scenario(spec)
        assert isinstance(tasks, TaskColumns) and (cfg, prfs) == want[:2]
        assert tasks == TaskColumns.from_tasks(want[2])
        assert tasks.ids == list(range(1, n + 1))
        assert scenario_to_text(cfg, prfs, tasks) == fields_scenario_text(*want)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 300), seed=st.integers(0, 2**64 - 1),
           clutter=st.floats(4000.0, 4700.0), clusters=st.integers(0, 4),
           keep=st.booleans())
    @example(n=300, seed=1, clutter=4700.0, clusters=0, keep=False)   # two draws
    def test_generation_matches_the_row_loop_when_most_draws_are_untrackable(
            self, n, seed, clutter, clusters, keep):
        # wide Doppler clutter leaves about half the draws trackable (46% at
        # 4,700 Hz): a scenario takes a second draw and each draw is tested
        # over several prefixes
        prfs = default_prf_set(doppler_clutter=clutter)
        spec = ScenarioSpec(n_tasks=n, seed=seed, cluster_count=clusters,
                            keep_unschedulable=keep)
        cfg, got_prfs, tasks = gen_scenario(spec, None, prfs)
        want = rowwise_gen_scenario(spec, None, prfs)
        assert (cfg, got_prfs) == want[:2]
        assert tasks == TaskColumns.from_tasks(want[2])
        assert scenario_to_text(cfg, got_prfs, tasks) == fields_scenario_text(*want)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(*_DRAW_FIELDS), min_size=1, max_size=60),
           clutter=st.floats(1500.0, 4700.0), need=st.integers(1, 80))
    def test_clear_regions_match_the_table(self, rows, clutter, need):
        # the draw test ORs clear_regions over the PRFs: the rows the table
        # finds trackable with some PRF, and the first `need` of them kept
        prfs = default_prf_set(doppler_clutter=clutter)
        cfg = RadarConfig()
        r, sr, vt, sf = (np.array(col, dtype=np.float64) for col in zip(*rows))
        want = availability_arrays(r, sr, vt, sf, prfs, cfg)[0].any(axis=1)
        ok = np.zeros(len(rows), dtype=bool)
        for hit, _, _ in clear_regions(r, sr, vt, sf, prfs, cfg):
            ok |= hit
        assert np.array_equal(ok, want)
        kept = pulseplan.scenario._first_trackable(r, sr, vt, sf, prfs, cfg, need)
        assert np.array_equal(kept, np.flatnonzero(want)[:need])

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
