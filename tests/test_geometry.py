import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseplan import (
    GridSpec,
    RadarConfig,
    ScenarioError,
    TrackTask,
    build_availability_table,
    default_prf_set,
    dedup_disks,
    enumerate_disks,
    gen_scenario,
    project_to_scan_plane,
)
from pulseplan.geometry import DISK_DENSITY_BOUND, _stencil
from pulseplan.scenario import ScenarioSpec
from oracles import brute_grid_disks, disk_rows, reference_dedup_disks, stepwise_disks


def scan_task(tid, u, v, r=30000.0):
    return TrackTask(id=tid, range_m=r, sigma_r=100.0, velocity=-90.0,
                     sigma_f=10.0, u=u, v=v)


class TestProjection:
    def test_boresight(self):
        assert project_to_scan_plane(0.0, 0.0) == (0.0, 0.0)

    def test_unit_disk_edge(self):
        u, v = project_to_scan_plane(math.pi / 2, 0.0)
        assert u == pytest.approx(1.0)
        assert v == pytest.approx(0.0)

    def test_oblique(self):
        u, v = project_to_scan_plane(math.radians(30), math.radians(20))
        assert u == pytest.approx(0.469846, abs=1e-6)
        assert v == pytest.approx(0.342020, abs=1e-6)

    def test_rear_hemisphere_rejected(self):
        with pytest.raises(ScenarioError):
            project_to_scan_plane(math.pi, 0.0)

    def test_stays_in_unit_disk(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            az = float(rng.uniform(-math.pi / 2, math.pi / 2))
            el = float(rng.uniform(-math.pi / 2, math.pi / 2))
            u, v = project_to_scan_plane(az, el)
            assert u * u + v * v <= 1.0 + 1e-12


class TestGridSpec:
    def test_spacing_must_not_exceed_radius(self):
        with pytest.raises(ScenarioError):
            GridSpec(spacing=0.1, disk_radius=0.05)
        with pytest.raises(ScenarioError):
            GridSpec(spacing=0.0, disk_radius=0.05)
        with pytest.raises(ScenarioError):
            GridSpec(spacing=0.5, disk_radius=1.0)

    def test_spacing_must_keep_grid_indices_in_64_bits(self):
        with pytest.raises(ScenarioError):
            GridSpec(spacing=1e-20, disk_radius=1e-20)
        GridSpec(spacing=2.0 ** -60, disk_radius=2.0 ** -60)


class TestEnumerateDisks:
    def single_prf_table(self, tasks, lab_cfg, lab_prf):
        return build_availability_table(tasks, [lab_prf], lab_cfg)

    def test_single_task_at_origin_with_spacing_equal_radius(self, lab_cfg, lab_prf):
        table = self.single_prf_table([scan_task(1, 0.0, 0.0)], lab_cfg, lab_prf)
        catalog = enumerate_disks(table, GridSpec(spacing=0.05, disk_radius=0.05))
        centers = set(zip(catalog.gu, catalog.gv))
        assert centers == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
        assert all(catalog.disk_tasks(d) == [table.row_of(1)] for d in range(catalog.n_disks))

    def test_distant_tasks_have_disjoint_disks(self, lab_cfg, lab_prf):
        grid = GridSpec(spacing=0.02, disk_radius=0.05)
        table = self.single_prf_table(
            [scan_task(1, -0.4, 0.0), scan_task(2, 0.4, 0.0)], lab_cfg, lab_prf
        )
        catalog = enumerate_disks(table, grid)
        assert all(len(catalog.disk_tasks(d)) == 1 for d in range(catalog.n_disks))
        one, two = (catalog.task_disks[table.row_of(tid)] for tid in (1, 2))
        assert set(one) & set(two) == set()

    def test_close_tasks_share_a_disk(self, lab_cfg, lab_prf):
        grid = GridSpec(spacing=0.02, disk_radius=0.05)
        table = self.single_prf_table(
            [scan_task(1, 0.01, 0.0), scan_task(2, -0.01, 0.0)], lab_cfg, lab_prf
        )
        catalog = enumerate_disks(table, grid)
        shared = [d for d in range(catalog.n_disks)
                  if set(catalog.disk_tasks(d)) == {table.row_of(1), table.row_of(2)}]
        assert shared, "expected a disk enclosing both nearby tasks"

    def test_matches_brute_force_grid_scan(self, cfg, prfs):
        grid = GridSpec(spacing=0.02, disk_radius=0.05)
        for seed in range(6):
            _, _, tasks = gen_scenario(
                ScenarioSpec(n_tasks=25, seed=seed, cluster_count=seed % 3), cfg, prfs
            )
            table = build_availability_table(tasks, prfs, cfg)
            catalog = enumerate_disks(table, grid)
            got = {(p, gu, gv): sorted(tasks) for p, gu, gv, tasks in disk_rows(catalog)}
            want = brute_grid_disks(table, grid)
            assert got == want

    def test_every_trackable_task_is_covered(self, cfg, prfs):
        grid = GridSpec(spacing=0.02, disk_radius=0.05)
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=40, seed=3), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, grid)
        for row in table.schedulable_rows():
            assert catalog.task_disks[row]

    def test_disk_members_verified_geometrically(self, cfg, prfs):
        grid = GridSpec(spacing=0.02, disk_radius=0.05)
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=30, seed=4), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, grid)
        for d in range(catalog.n_disks):
            assert catalog.disk_tasks(d)
            cu, cv = catalog.center(d)
            for row in catalog.disk_tasks(d):
                u, v = tasks.u[row], tasks.v[row]
                assert math.hypot(cu - u, cv - v) <= grid.disk_radius + 1e-12
                assert table.av[row, catalog.prf_index[d]]

    def test_density_bound(self, cfg, prfs):
        grid = GridSpec(spacing=0.02, disk_radius=0.05)
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=80, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, grid)
        ratio = grid.disk_radius / grid.spacing
        for p in range(table.n_prfs):
            k_p = np.count_nonzero(table.av[:, p])
            assert len(catalog.by_prf[p]) <= DISK_DENSITY_BOUND * ratio * ratio * max(1, k_p)


def catalog_fields(catalog):
    """The catalog in ``stepwise_disks``' form: members and ``task_disks``
    under the row -> task id map."""
    disks = [(d, *row) for d, row in enumerate(disk_rows(catalog))]
    return disks, catalog.by_prf, dict(zip(catalog.table.tasks.ids, catalog.task_disks))


@st.composite
def scan_points(draw, n, eps, r):
    """``n`` scan-plane points: free, on grid lines, a radius off a grid
    point, on or near the unit circle, clustered and duplicated."""
    points = []
    k = int(0.6 / eps)
    for _ in range(n):
        kind = draw(st.sampled_from(
            ("free", "grid", "circle", "rim", "cluster", "duplicate")))
        if kind == "grid":
            u = draw(st.integers(-k, k)) * eps
            v = draw(st.integers(-k, k)) * eps
        elif kind == "circle":
            u = draw(st.integers(-k, k)) * eps
            v = draw(st.integers(-k, k)) * eps
            du, dv = draw(st.sampled_from(((r, 0.0), (0.0, -r), (0.6 * r, 0.8 * r))))
            u, v = u + du, v + dv
        elif kind == "rim":
            theta = draw(st.floats(0.0, 2.0 * math.pi))
            shrink = draw(st.sampled_from((0.0, 1e-12, 1e-6, 0.01)))
            u = math.cos(theta) * (1.0 - shrink)
            v = math.sin(theta) * (1.0 - shrink)
        elif kind in ("cluster", "duplicate") and points:
            u, v = draw(st.sampled_from(points))
            if kind == "cluster":
                u += draw(st.floats(-0.5 * r, 0.5 * r))
                v += draw(st.floats(-0.5 * r, 0.5 * r))
        else:
            u = draw(st.floats(-0.7, 0.7))
            v = draw(st.floats(-0.7, 0.7))
        if u * u + v * v > 1.0:
            u, v = 0.5 * u, 0.5 * v
        points.append((u, v))
    return points


@st.composite
def catalog_inputs(draw):
    r = draw(st.sampled_from((0.05, 0.1, 0.2)))
    eps = r / draw(st.sampled_from((1.0, 1.5, 2.5, 4.0, 10.0, 16.0)))
    n = draw(st.integers(0, 10))
    prfs = default_prf_set()
    if draw(st.booleans()):
        prfs = prfs[:1]
    tasks = []
    for i, (u, v) in enumerate(draw(scan_points(n, eps, r))):
        # ids far from the rows, so a row taken for an id (or the other
        # way round) shows; a wide range sigma makes a task unschedulable
        # at every PRF
        sigma_r = draw(st.sampled_from((100.0, 100.0, 100.0, 9000.0)))
        tasks.append(TrackTask(id=1000 + i, range_m=draw(st.floats(20000.0, 120000.0)),
                               sigma_r=sigma_r, velocity=-90.0, sigma_f=10.0,
                               u=u, v=v))
    table = build_availability_table(tasks, prfs, RadarConfig())
    return table, GridSpec(spacing=eps, disk_radius=r)


class TestBulkCatalog:
    @settings(max_examples=200, deadline=None)
    @given(catalog_inputs())
    def test_equals_the_stepwise_build(self, inputs):
        table, grid = inputs
        catalog = enumerate_disks(table, grid)
        disks, by_prf, task_disks = stepwise_disks(table, grid)
        got_disks, got_by_prf, got_task_disks = catalog_fields(catalog)
        assert got_disks == disks
        assert got_by_prf == by_prf
        assert got_task_disks == task_disks
        assert type(catalog.task_disks) is list
        assert len(catalog.task_disks) == table.n_tasks
        assert catalog.q_d == len(catalog.members) == catalog.offsets[-1]
        assert catalog.n_disks == len(catalog.offsets) - 1
        assert all(type(g) is int for g in [*catalog.gu, *catalog.gv, *catalog.members])
        assert set(catalog.members) <= set(table.schedulable_rows())
        # one int object per disk id, shared by by_prf and task_disks
        one_id = {did: did for ids in got_by_prf for did in ids}
        assert sorted(one_id) == list(range(catalog.n_disks))
        for ids in catalog.task_disks:
            assert all(did is one_id[did] for did in ids)

    def test_members_share_one_int_object_per_row(self, cfg, prfs):
        # rows above 256 are not cached ints: each must still be one object
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=600, seed=1), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        one_row = {}
        assert all(one_row.setdefault(row, row) is row for row in catalog.members)
        assert max(one_row) > 256

    @pytest.mark.parametrize("eps", [1e-10, 2.0 ** -60])
    def test_fine_grid_far_apart_tasks(self, cfg, prfs, eps):
        # grid indices near 1/eps: a (gu, gv) key packed into one int64
        # would overflow
        tasks = [scan_task(1000 + i, u, v) for i, (u, v) in
                 enumerate([(-0.9, -0.4), (0.9, 0.4), (0.3, -0.9), (-0.2, 0.95)])]
        table = build_availability_table(tasks, prfs, cfg)
        grid = GridSpec(spacing=eps, disk_radius=eps)
        catalog = enumerate_disks(table, grid)
        assert catalog.n_disks > 0
        assert catalog_fields(catalog) == stepwise_disks(table, grid)

    def test_build_peak_stays_near_the_retained_size(self, cfg, prfs):
        # about 300 cells per task at one PRF: the grouping's temporaries
        # stay small next to the disks the build keeps
        _, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=300, seed=2), cfg, prfs[:1])
        table = build_availability_table(tasks, prfs, cfg)
        grid = GridSpec(spacing=0.005, disk_radius=0.05)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            catalog = enumerate_disks(table, grid)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert catalog.q_d > 250 * len(tasks)
        assert peak - base < 1.5 * (retained - base)

    def test_stencil_tests_its_boxes_in_chunks(self):
        # 50 boxes of 84 x 84 cells: tested at once, their float
        # temporaries would take about 10 MB on top of the output and the
        # chunks it is concatenated from
        rng = np.random.default_rng(0)
        us, vs = rng.uniform(-0.5, 0.5, (2, 50))
        grid = GridSpec(spacing=0.00125, disk_radius=0.05)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cells = _stencil(us, vs, grid)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells[0]) > 2000 * 50
        assert peak - base - 2 * (retained - base) < 5_000_000


class TestDedup:
    def build_catalog(self, tasks, lab_cfg, lab_prf, grid):
        table = build_availability_table(tasks, [lab_prf], lab_cfg)
        return enumerate_disks(table, grid)

    def test_duplicates_collapse(self, lab_cfg, lab_prf):
        # one isolated task: its five disks all hold exactly {1}
        catalog = self.build_catalog([scan_task(1, 0.0, 0.0)], lab_cfg, lab_prf,
                                     GridSpec(spacing=0.05, disk_radius=0.05))
        reduced = dedup_disks(catalog)
        assert reduced.n_disks == 1
        assert reduced.disk_tasks(0) == [reduced.table.row_of(1)]

    def test_subset_disks_removed(self, lab_cfg, lab_prf):
        # task 2 sits near task 1; some disks hold {1}, some {1, 2}
        catalog = self.build_catalog(
            [scan_task(1, 0.0, 0.0), scan_task(2, 0.05, 0.0)], lab_cfg, lab_prf,
            GridSpec(spacing=0.05, disk_radius=0.05),
        )
        assert any(set(tasks) == {1, 2} for *_, tasks in disk_rows(catalog))
        reduced = dedup_disks(catalog)
        sets = [frozenset(tasks) for *_, tasks in disk_rows(reduced)]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j and reduced.prf_index[i] == reduced.prf_index[j]:
                    assert not a <= b

    def test_incomparable_catalog_unchanged(self, lab_cfg, lab_prf):
        catalog = self.build_catalog(
            [scan_task(1, -0.4, 0.0), scan_task(2, 0.4, 0.0)], lab_cfg, lab_prf,
            GridSpec(spacing=0.05, disk_radius=0.05),
        )
        # all disks hold exactly one task; duplicates collapse per task side
        reduced = dedup_disks(catalog)
        assert reduced.n_disks == 2
        assert sorted(frozenset(tasks) for *_, tasks in disk_rows(reduced)) == [
            frozenset({1}), frozenset({2})
        ]

    def test_counts_rebuilt(self, cfg, prfs):
        grid = GridSpec(spacing=0.02, disk_radius=0.05)
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=15, seed=7), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        reduced = dedup_disks(enumerate_disks(table, grid))
        assert reduced.q_d == sum(len(tasks) for *_, tasks in disk_rows(reduced))
        for row, disks in enumerate(reduced.task_disks):
            for d in disks:
                assert row in reduced.disk_tasks(d)

    @settings(max_examples=30, deadline=None)
    @given(n_tasks=st.integers(0, 400), clusters=st.integers(0, 6), seed=st.integers(0, 99))
    def test_first_member_candidates_match_every_kept_disk(self, n_tasks, clusters, seed):
        # testing only the kept disks that enclose a disk's first member
        # keeps the disks that testing every kept disk of its PRF keeps
        spec = ScenarioSpec(n_tasks=n_tasks, seed=seed, cluster_count=clusters)
        cfg, prfs, tasks = gen_scenario(spec)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        got, want = dedup_disks(catalog), reference_dedup_disks(catalog)
        for name in ("prf_index", "gu", "gv", "members", "offsets", "by_prf", "task_disks"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.grid is catalog.grid and got.table is catalog.table

    def test_reduction_is_a_fixed_point(self, cfg, prfs):
        grid = GridSpec(spacing=0.02, disk_radius=0.05)
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=15, seed=8), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        once = dedup_disks(enumerate_disks(table, grid))
        twice = dedup_disks(once)
        assert disk_rows(twice) == disk_rows(once)
