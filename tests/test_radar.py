import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from pulseplan import (
    PrfConfig,
    RadarConfig,
    ScenarioError,
    TaskColumns,
    TrackTask,
    ambiguous_frequency,
    ambiguous_range,
    blind_widths,
    build_availability_table,
    default_prf_set,
    is_trackable,
    leftward_availability,
    rightward_availability,
    unambiguous_range,
    validate_prf,
)
from pulseplan.radar import _shared_prf_sets, availability_arrays
from oracles import clear_region_trackable, timeline_feasible


def task(tid=1, r=30000.0, sr=100.0, v=-90.0, sf=10.0, u=0.0, w=0.0):
    return TrackTask(id=tid, range_m=r, sigma_r=sr, velocity=v, sigma_f=sf, u=u, v=w)


class TestUnambiguousRange:
    def test_values(self, lab_cfg):
        assert unambiguous_range(PrfConfig(f_r=12500.0), lab_cfg) == 12000.0
        assert unambiguous_range(PrfConfig(f_r=15000.0), lab_cfg) == 10000.0

    def test_doubling_prf_halves(self, lab_cfg):
        rng = np.random.default_rng(0)
        for f in rng.uniform(1e3, 1e5, 50):
            a = unambiguous_range(PrfConfig(f_r=float(f)), lab_cfg)
            b = unambiguous_range(PrfConfig(f_r=float(2 * f)), lab_cfg)
            assert b == pytest.approx(a / 2)


class TestAmbiguity:
    def test_range_fold(self, lab_cfg):
        prf = PrfConfig(f_r=12500.0)
        assert ambiguous_range(30000.0, prf, lab_cfg) == 6000.0
        assert ambiguous_range(6000.0, prf, lab_cfg) == 6000.0
        assert ambiguous_range(12000.0, prf, lab_cfg) == 0.0

    def test_frequency_fold(self, lab_cfg):
        prf = PrfConfig(f_r=12500.0)
        assert ambiguous_frequency(task(v=-300.0), prf, lab_cfg) == 7500.0
        assert ambiguous_frequency(task(v=0.0), prf, lab_cfg) == 0.0
        assert ambiguous_frequency(task(v=300.0), prf, lab_cfg) == 5000.0

    def test_folds_land_in_half_open_intervals(self, lab_cfg):
        rng = np.random.default_rng(1)
        prf = PrfConfig(f_r=12500.0)
        ru = unambiguous_range(prf, lab_cfg)
        for _ in range(10_000):
            t = task(r=float(rng.uniform(1, 3e5)), v=float(rng.uniform(-900, 900)))
            ra = ambiguous_range(t.range_m, prf, lab_cfg)
            fa = ambiguous_frequency(t, prf, lab_cfg)
            assert 0.0 <= ra < ru
            assert 0.0 <= fa < prf.f_r


class TestBlindWidths:
    def test_near_edge_takes_max(self, lab_cfg):
        erp, _, _, _ = blind_widths(PrfConfig(f_r=12500.0, c_r_plus=2000.0), lab_cfg)
        assert erp == 2000.0

    def test_near_edge_eclipse_floor(self, lab_cfg):
        erp, _, _, _ = blind_widths(PrfConfig(f_r=12500.0, c_r_plus=0.0), lab_cfg)
        assert erp == pytest.approx(1500.0)

    def test_frequency_widths_equal_clutter(self, lab_cfg):
        prf = PrfConfig(f_r=12500.0, c_f_plus=1200.0, c_f_minus=700.0)
        _, _, efp, efm = blind_widths(prf, lab_cfg)
        assert (efp, efm) == (1200.0, 700.0)

    def test_far_edge_adds_half_pulse(self, lab_cfg):
        _, erm, _, _ = blind_widths(PrfConfig(f_r=12500.0, c_r_minus=500.0), lab_cfg)
        assert erm == pytest.approx(2000.0)


class TestTrackability:
    def test_clear_region_interior(self, lab_cfg, lab_prf):
        # folded range 6000 +- 300 inside [2000, 10000]; folded Doppler
        # 6000 +- 500 inside [2000, 10500]
        t = task(r=30000.0, sr=100.0, v=-90.0, sf=500.0 / 3.0)
        assert is_trackable(t, lab_prf, lab_cfg)

    def test_wide_uncertainty_spans_blind_edge(self, lab_cfg, lab_prf):
        t = task(r=30000.0, sr=2000.0, v=-90.0, sf=10.0)
        assert not is_trackable(t, lab_prf, lab_cfg)

    def test_agrees_with_clear_region_oracle(self, cfg, prfs):
        rng = np.random.default_rng(2)
        mism = 0
        for _ in range(10_000):
            r = float(rng.uniform(1e3, 2e5))
            sr = float(rng.uniform(0, 500))
            v = float(rng.uniform(-600, 600))
            sf = float(rng.uniform(0, 300))
            prf = prfs[int(rng.integers(len(prfs)))]
            got = is_trackable(task(r=r, sr=sr, v=v, sf=sf), prf, cfg)
            want = clear_region_trackable(r, sr, v, sf, prf, cfg)
            mism += got != want
        assert mism == 0


class TestAvailabilities:
    def test_leftward_hand_value(self, lab_cfg, lab_prf):
        # folded range 8000, margin 300, near edge 2000: floor(5700/1500) = 3
        t = task(r=8000.0, sr=100.0, v=-90.0, sf=10.0)
        assert leftward_availability(t, lab_prf, lab_cfg) == 3

    def test_untrackable_is_zero(self, lab_cfg, lab_prf):
        t = task(r=30000.0, sr=2000.0)
        assert leftward_availability(t, lab_prf, lab_cfg) == 0
        assert rightward_availability(t, lab_prf, lab_cfg) == 0

    def test_left_edge_gives_zero_leftward(self, lab_cfg, lab_prf):
        # folded range sits exactly one margin above the near blind edge
        t = task(r=2300.0, sr=100.0, v=-90.0, sf=10.0)
        assert is_trackable(t, lab_prf, lab_cfg)
        assert leftward_availability(t, lab_prf, lab_cfg) == 0

    def test_rightward_hand_value(self, lab_cfg, lab_prf):
        # R_u=12000, folded 8000, margin 300, far edge 2000: floor(1700/1500+1)=2
        t = task(r=8000.0, sr=100.0, v=-90.0, sf=10.0)
        assert rightward_availability(t, lab_prf, lab_cfg) == 2

    def test_rightward_boundary_is_one(self, lab_cfg, lab_prf):
        # folded range + margin + far edge lands exactly on R_u
        t = task(r=9700.0, sr=100.0, v=-90.0, sf=10.0)
        assert is_trackable(t, lab_prf, lab_cfg)
        assert rightward_availability(t, lab_prf, lab_cfg) == 1

    def test_clamped_to_capacity(self, lab_prf):
        cfg2 = RadarConfig(c=3.0e8, wavelength=0.03, pulse_width=10e-6,
                           n_r=3.0, n_f=3.0, n_intlv=2, pulses_per_look=64)
        t = task(r=8000.0, sr=100.0, v=-90.0, sf=10.0)
        assert leftward_availability(t, lab_prf, cfg2) == 2
        assert rightward_availability(t, lab_prf, cfg2) == 2

    @pytest.mark.parametrize("pulse_width", [1e-24, 1e-310, 5e-324])
    def test_short_pulse_matches_vectorized(self, cfg, prfs, pulse_width):
        # a slot count far past n_intlv (infinite at 5e-324) clamps to
        # n_intlv, as in the vectorized table, instead of overflowing int
        short = replace(cfg, pulse_width=pulse_width)
        t = task(r=8000.0)
        assert is_trackable(t, prfs[0], short)
        _, al, ar, _ = availability_arrays(
            np.array([t.range_m]), np.array([t.sigma_r]), np.array([t.velocity]),
            np.array([t.sigma_f]), prfs[:1], short)
        assert leftward_availability(t, prfs[0], short) == al[0, 0]
        assert rightward_availability(t, prfs[0], short) == ar[0, 0]

    def test_zero_gap_at_infinite_slot_rate_counts_no_slot(self, lab_cfg, lab_prf):
        # at 5e-324 the slot rate is infinite; a gap of exactly 0 (NaN when
        # multiplied) holds no slot: A_l = 0 on the near edge, A_r = 1 on
        # the far edge (R_u 12000 less the 300 margin and the 500 edge;
        # the half pulse is gone)
        short = replace(lab_cfg, pulse_width=5e-324)
        for r, want_l, want_r in ((2300.0, 0, 8), (11200.0, 8, 1)):
            t = task(r=r, sr=100.0, v=-90.0, sf=10.0)
            assert is_trackable(t, lab_prf, short)
            _, al, ar, _ = availability_arrays(
                np.array([r]), np.array([100.0]), np.array([-90.0]), np.array([10.0]),
                (lab_prf,), short)
            got = (leftward_availability(t, lab_prf, short),
                   rightward_availability(t, lab_prf, short))
            assert got == (al[0, 0], ar[0, 0]) == (want_l, want_r), r

    def test_monotone_in_sigma_r(self, cfg, prfs):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            r = float(rng.uniform(5e3, 2e5))
            v = float(rng.uniform(-400, 400))
            hi = float(rng.uniform(10, 400))
            lo = float(rng.uniform(0, hi))
            prf = prfs[int(rng.integers(len(prfs)))]
            t_hi = task(r=r, sr=hi, v=v, sf=5.0)
            t_lo = task(r=r, sr=lo, v=v, sf=5.0)
            assert leftward_availability(t_lo, prf, cfg) >= leftward_availability(t_hi, prf, cfg)
            assert rightward_availability(t_lo, prf, cfg) >= rightward_availability(t_hi, prf, cfg)

    def test_trackable_implies_rightward_at_least_one(self, cfg, prfs):
        rng = np.random.default_rng(4)
        for _ in range(5000):
            t = task(r=float(rng.uniform(1e3, 2e5)), sr=float(rng.uniform(0, 300)),
                     v=float(rng.uniform(-600, 600)), sf=float(rng.uniform(0, 200)))
            prf = prfs[int(rng.integers(len(prfs)))]
            if is_trackable(t, prf, cfg):
                assert rightward_availability(t, prf, cfg) >= 1

    def test_raw_formula_values_certify_timelines(self, cfg, prfs):
        # the unclamped floor formulas, whenever >= 1, promise a clear
        # timeline at their extreme: slot = raw rightward count with raw
        # leftward trailing pulses
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(3000):
            r = float(rng.uniform(5e3, 2e5))
            sr = float(rng.uniform(0, 150))
            v = float(rng.uniform(-400, 400))
            sf = float(rng.uniform(0, 80))
            prf = prfs[int(rng.integers(len(prfs)))]
            t = task(r=r, sr=sr, v=v, sf=sf)
            if not is_trackable(t, prf, cfg):
                continue
            ru = unambiguous_range(prf, cfg)
            erp, erm, _, _ = blind_widths(prf, cfg)
            ra = ambiguous_range(r, prf, cfg)
            inv = 2.0 / (cfg.c * cfg.pulse_width)
            raw_l = max(0, math.floor(inv * (ra - cfg.n_r * sr - erp)))
            raw_r = max(0, math.floor(inv * (ru - (ra + cfg.n_r * sr + erm)) + 1.0))
            assert raw_r >= 1
            placements = {raw_r: (r, sr, v, sf)}
            assert timeline_feasible(placements, prf, cfg,
                                     total_slots=raw_r + raw_l)
            checked += 1
        assert checked > 800

    def test_slot_placements_reconstruct_clear_timelines(self, cfg, prfs):
        # every k <= A_r admits a timeline whose echo window stays clear,
        # with up to A_l trailing transmit pulses
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(4000):
            r = float(rng.uniform(5e3, 2e5))
            sr = float(rng.uniform(0, 200))
            v = float(rng.uniform(-500, 500))
            sf = float(rng.uniform(0, 100))
            prf = prfs[int(rng.integers(len(prfs)))]
            t = task(r=r, sr=sr, v=v, sf=sf)
            ar = rightward_availability(t, prf, cfg)
            al = leftward_availability(t, prf, cfg)
            if ar == 0:
                continue
            for k in (1, ar):
                m = min(k + al, cfg.n_intlv)
                placements = {k: (r, sr, v, sf)}
                assert timeline_feasible(placements, prf, cfg), (r, sr, v, sf, k)
                checked += 1
                assert m >= k
        assert checked > 1000


class TestTableBuild:
    def test_counting(self, lab_cfg):
        prfs = (
            PrfConfig(f_r=12500.0, c_r_plus=2000.0, c_r_minus=500.0,
                      c_f_plus=2000.0, c_f_minus=2000.0),
            PrfConfig(f_r=10000.0, c_r_plus=2000.0, c_r_minus=500.0,
                      c_f_plus=2000.0, c_f_minus=2000.0),
            PrfConfig(f_r=14000.0, c_r_plus=2000.0, c_r_minus=500.0,
                      c_f_plus=2000.0, c_f_minus=2000.0),
        )
        t = task(r=6500.0, sr=50.0, v=-90.0, sf=10.0)
        table = build_availability_table([t], prfs, lab_cfg)
        trackable = [p for p in range(3) if is_trackable(t, prfs[p], lab_cfg)]
        assert list(table.prf_sets[0]) == trackable
        assert table.q_p == len(trackable)

    def test_untrackable_task_reported(self, lab_cfg, lab_prf):
        bad = task(tid=7, r=1000.0, sr=5000.0)
        good = task(tid=8, r=30000.0, sr=100.0, v=-90.0, sf=10.0)
        table = build_availability_table([bad, good], [lab_prf], lab_cfg)
        assert table.unschedulable == (7,)
        assert not table.av[table.row_of(7)].any()

    def test_double_count_identity(self, cfg, prfs):
        rng = np.random.default_rng(6)
        tasks = [
            task(tid=i + 1, r=float(rng.uniform(2e4, 1.2e5)),
                 sr=float(rng.uniform(10, 50)), v=float(rng.uniform(-300, 300)),
                 sf=float(rng.uniform(10, 60)))
            for i in range(50)
        ]
        table = build_availability_table(tasks, prfs, cfg)
        by_tasks = sum(len(s) for s in table.prf_sets if s)
        by_prfs = sum(np.count_nonzero(table.av[:, p]) for p in range(table.n_prfs))
        assert table.q_p == by_prfs
        assert by_tasks == by_prfs

    def test_scalar_and_vector_paths_agree(self, cfg, prfs):
        rng = np.random.default_rng(7)
        tasks = [
            task(tid=i + 1, r=float(rng.uniform(1e3, 2e5)),
                 sr=float(rng.uniform(0, 300)), v=float(rng.uniform(-600, 600)),
                 sf=float(rng.uniform(0, 200)))
            for i in range(400)
        ]
        table = build_availability_table(tasks, prfs, cfg)
        for i, t in enumerate(tasks):
            for p, prf in enumerate(prfs):
                assert bool(table.av[i, p]) == is_trackable(t, prf, cfg)
                assert table.al[i, p] == leftward_availability(t, prf, cfg)
                assert table.ar[i, p] == rightward_availability(t, prf, cfg)


class TestTaskColumns:
    TASKS = (task(tid=10**23, r=1.5e4, w=-0.0), task(tid=-3, u=0.6, w=0.8), task(tid=5))

    def test_columns_keep_ids_and_values(self):
        cols = TaskColumns.from_tasks(iter(self.TASKS))
        assert cols.ids == [10**23, -3, 5] and len(cols) == 3
        assert all(type(c) is np.ndarray and c.dtype == np.float64 for c in
                   (cols.range_m, cols.sigma_r, cols.velocity, cols.sigma_f, cols.u, cols.v))
        for name in ("range_m", "sigma_r", "velocity", "sigma_f", "u", "v"):
            assert getattr(cols, name).tolist() == [getattr(t, name) for t in self.TASKS]
        assert math.copysign(1.0, cols.v[0]) == -1.0
        # columns only: no per-task index or iteration
        with pytest.raises(TypeError):
            cols[0]
        with pytest.raises(TypeError):
            iter(cols)

    def test_equality_between_columns(self):
        cols = TaskColumns.from_tasks(self.TASKS)
        assert cols == TaskColumns.from_tasks(self.TASKS)
        assert cols != TaskColumns.from_tasks(self.TASKS[:2])
        assert cols != TaskColumns.from_tasks(self.TASKS[::-1])
        assert cols != self.TASKS and cols != list(self.TASKS) and cols != "abc"
        assert TaskColumns.from_tasks([]) == TaskColumns.from_tasks(())
        signed = [replace(t, velocity=-0.0) for t in self.TASKS]
        unsigned = [replace(t, velocity=0.0) for t in self.TASKS]
        assert TaskColumns.from_tasks(signed) == TaskColumns.from_tasks(unsigned)
        assert cols != TaskColumns.from_tasks([replace(self.TASKS[0], u=0.5), *self.TASKS[1:]])
        assert cols != TaskColumns.from_tasks([replace(t, id=t.id + 1) for t in self.TASKS])

    def test_immutable(self):
        cols = TaskColumns.from_tasks(self.TASKS)
        with pytest.raises(AttributeError):
            cols.u = cols.v
        with pytest.raises(ValueError):
            cols.range_m[0] = 1.0

    @pytest.mark.parametrize("field, value", [
        ("range_m", 0.0), ("range_m", math.inf), ("sigma_r", -1.0), ("sigma_f", math.nan),
        ("velocity", -math.inf), ("u", 0.9),
    ])
    def test_first_bad_row_raises_its_task_error(self, field, value):
        rows = [vars(t) | ({field: value, "v": 0.9} if i else {}) for i, t in
                enumerate((task(tid=1), task(tid=2), task(tid=3)))]
        with pytest.raises(ScenarioError) as want:
            TrackTask(**rows[1])
        columns = {k: [r[k] for r in rows] for k in rows[0]}
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(want.value))}$"):
            TaskColumns(columns.pop("id"), **columns)

    def test_one_value_per_id(self):
        with pytest.raises(ValueError):
            TaskColumns([1, 2], [1.0], [1.0], [1.0], [1.0], [0.0], [0.0])

    def test_table_sets_match_row_scans(self, cfg, prfs):
        rng = np.random.default_rng(8)
        tasks = [
            task(tid=400 - i, r=float(rng.uniform(1e3, 2e5)), sr=float(rng.uniform(0, 300)),
                 v=float(rng.uniform(-600, 600)), sf=float(rng.uniform(0, 200)))
            for i in range(300)
        ]
        table = build_availability_table((t for t in tasks), prfs, cfg)
        assert table.tasks == TaskColumns.from_tasks(tasks)
        assert build_availability_table(table.tasks, prfs, cfg).prf_sets == table.prf_sets
        live = [i for i in range(300) if table.av[i].any()]
        assert 0 < len(live) < 300
        assert table.prf_sets == [tuple(np.nonzero(row)[0].tolist()) for row in table.av]
        assert table.unschedulable == tuple(400 - i for i in range(300) if i not in live)
        assert table.schedulable_rows() == live
        assert table.q_p == int(table.av.sum())
        assert table.task_rows == {t.id: i for i, t in enumerate(tasks)}
        # rows with the same PRF set share one tuple
        by_set = {}
        for s in table.prf_sets:
            assert by_set.setdefault(s, s) is s

    @pytest.mark.parametrize("n_prfs", [1, 8, 9, 70])
    def test_shared_prf_sets_match_row_scans(self, n_prfs):
        rng = np.random.default_rng(n_prfs)
        # few distinct rows, so sets repeat, plus one all-false row
        pool = rng.random((7, n_prfs)) < 0.4
        av = np.vstack([pool[rng.integers(0, 7, 200)], np.zeros((1, n_prfs), bool)])
        sets = _shared_prf_sets(av)
        assert sets == [tuple(np.flatnonzero(row).tolist()) for row in av]
        assert all(type(p) is int for s in sets for p in s)
        assert len({id(s) for s in sets}) == len(set(sets))
        assert _shared_prf_sets(np.zeros((0, n_prfs), bool)) == []


class TestValidation:
    def test_empty_clear_region_rejected(self, lab_cfg):
        prf = PrfConfig(f_r=16500.0, c_r_plus=4000.0, c_r_minus=4000.0)
        with pytest.raises(ScenarioError):
            validate_prf(prf, lab_cfg)

    def test_default_ladder_is_valid(self, cfg):
        for prf in default_prf_set():
            validate_prf(prf, cfg)

    def test_bad_types_rejected(self):
        with pytest.raises(ScenarioError):
            RadarConfig(n_intlv=0)
        with pytest.raises(ScenarioError):
            PrfConfig(f_r=-1.0)
        with pytest.raises(ScenarioError):
            TrackTask(id=1, range_m=1e4, sigma_r=1.0, velocity=0.0,
                      sigma_f=1.0, u=0.9, v=0.9)

    def test_pulses_per_look_must_fit_a_float(self):
        # a dwell is pulses_per_look / f_r in floats
        top = int(sys.float_info.max)
        assert RadarConfig(pulses_per_look=top).pulses_per_look == top
        for too_big in (top + 1, 10 ** 400):
            with pytest.raises(ScenarioError, match="pulses_per_look must be at most"):
                RadarConfig(pulses_per_look=too_big)
