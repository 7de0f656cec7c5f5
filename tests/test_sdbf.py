import itertools
import math
import random

from pulseplan import (
    DiskHeuristicConfig,
    GridSpec,
    PrfConfig,
    RadarConfig,
    TrackTask,
    build_availability_table,
    build_instance,
    check_feasible,
    enumerate_disks,
    gen_scenario,
    hisd,
)
from pulseplan.sdbf import DiskSelector, SdbfRun
from pulseplan.scenario import ScenarioSpec
from pulseplan.structures import OpCounters

LAB_CFG = RadarConfig(c=3e8, n_intlv=8, pulses_per_look=64)
LAB_PRF = PrfConfig(f_r=12500.0, c_r_plus=2000.0, c_r_minus=500.0,
                    c_f_plus=2000.0, c_f_minus=2000.0)


def cluster_task(tid, u, v, r=8000.0):
    return TrackTask(id=tid, range_m=r, sigma_r=100.0, velocity=-90.0,
                     sigma_f=10.0, u=u, v=v)


def catalog_for(tasks, grid=None, cfg=LAB_CFG, prfs=(LAB_PRF,)):
    table = build_availability_table(tasks, prfs, cfg)
    return enumerate_disks(table, grid or GridSpec())


class TestHisd:
    def test_one_shared_disk_one_look(self):
        # three targets inside one re-steering radius, folded mid-window so
        # every slot assignment 1..3 clears both availability bounds
        tasks = [cluster_task(i + 1, 0.005 * i, 0.0, r=6000.0) for i in range(3)]
        catalog = catalog_for(tasks)
        table = catalog.table
        assert all(table.al[i, 0] >= 2 and table.ar[i, 0] >= 3 for i in range(3))
        sched = hisd(catalog, DiskHeuristicConfig())
        assert sched.n_looks_used() == 1
        assert len(sched.assignments) == 3

    def test_separated_clusters_need_two_looks(self):
        tasks = [cluster_task(1, -0.4, 0.0), cluster_task(2, 0.4, 0.0)]
        catalog = catalog_for(tasks)
        for disk_rule, sub_rule in itertools.product(("GD", "RGD", "WGD"), ("R", "SD")):
            sched = hisd(catalog, DiskHeuristicConfig(disk_rule=disk_rule, sub_rule=sub_rule))
            assert sched.n_looks_used() == 2

    def test_greedy_prefers_superset_disk(self):
        # disks around the pair {1,2} strictly contain the singleton disks;
        # greedy grabs a maximum-cardinality disk and covers both at once
        tasks = [cluster_task(1, 0.0, 0.0), cluster_task(2, 0.04, 0.0)]
        catalog = catalog_for(tasks, GridSpec(spacing=0.02, disk_radius=0.05))
        assert any(len(d.tasks) == 2 for d in catalog.disks)
        sched = hisd(catalog, DiskHeuristicConfig(disk_rule="GD"))
        assert sched.n_looks_used() == 1
        look = sched.looks[0]
        assert len(catalog.disks[look.disk_id].tasks) == 2

    def test_feasible_on_disk_restricted_instance(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=40, seed=0, cluster_count=3), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        inst = build_instance(catalog)
        for disk_rule, sub_rule, task_rule in itertools.product(
            ("GD", "RGD", "WGD"), ("R", "SD"), ("SAR", "LAR", "R", "SAP", "SLA", "SRA")
        ):
            sched = hisd(catalog, DiskHeuristicConfig(
                disk_rule=disk_rule, sub_rule=sub_rule, task_rule=task_rule, seed=1))
            assert check_feasible(sched, inst) == [], (disk_rule, sub_rule, task_rule)

    def test_scheduled_tasks_lie_inside_their_look_disk(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=35, seed=1, cluster_count=2), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        grid = GridSpec()
        catalog = enumerate_disks(table, grid)
        sched = hisd(catalog, DiskHeuristicConfig(disk_rule="WGD", sub_rule="SD"))
        by_id = {t.id: t for t in tasks}
        centers = {lk.index: lk.disk_center for lk in sched.looks}
        for tid, j, _ in sched.assignments:
            cu, cv = centers[j]
            t = by_id[tid]
            assert math.hypot(cu - t.u, cv - t.v) <= grid.disk_radius + 1e-12

    def test_rounds_bounded_by_task_count(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=60, seed=2), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        sched = hisd(catalog, DiskHeuristicConfig(disk_rule="RGD"))
        assert sched.n_looks_used() <= len(tasks)
        assert len(sched.assignments) == len(tasks)

    def test_backend_independence(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=45, seed=3, cluster_count=4), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        outs = []
        for backend in ("brute", "pairwise", "rangetree"):
            sched = hisd(catalog, DiskHeuristicConfig(
                disk_rule="WGD", sub_rule="R", task_rule="R", backend=backend, seed=7))
            outs.append(tuple(sched.assignments))
        assert outs[0] == outs[1] == outs[2]

    def test_iteration_cap_holds(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=50, seed=4), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        counters = OpCounters()
        hisd(catalog, DiskHeuristicConfig(), counters)
        assert counters.bi_max_iterations <= 2 * cfg.n_intlv

    def test_bucket_ops_count_consumes_only(self, cfg, prfs):
        # every placed task decrements each disk that encloses it, once
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=50, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        for disk_rule, sub_rule in itertools.product(("GD", "RGD"), ("R", "SD")):
            run = SdbfRun(catalog, DiskHeuristicConfig(disk_rule=disk_rule,
                                                       sub_rule=sub_rule))
            assert run.counters.bucket_ops == 0 and run.reciprocal is None
            run.run()
            assert run.counters.bucket_ops == catalog.q_d, (disk_rule, sub_rule)


    def test_selector_ops_count_one_per_look(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=50, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        for disk_rule, sub_rule in itertools.product(("GD", "RGD", "WGD"), ("R", "SD")):
            counters = OpCounters()
            sched = hisd(catalog, DiskHeuristicConfig(disk_rule=disk_rule,
                                                      sub_rule=sub_rule), counters)
            assert counters.selector_ops == len(sched.looks), (disk_rule, sub_rule)

class TestDiskSelector:
    def selector(self, cardinalities, dwells, main, sub, weights=None):
        """Bare selector over a synthetic catalog-like layout."""

        class FakeDisk:
            def __init__(self, i, n, p):
                self.id = i
                self.prf_index = p
                self.tasks = list(range(n))
                self.weight = 0.0

        class FakeTable:
            def dwell(self, p):
                return dwells[p]

        class FakeCatalog:
            table = FakeTable()
            disks = [FakeDisk(i, n, i) for i, n in enumerate(cardinalities)]

        cat = FakeCatalog()
        if weights:
            for d, w in zip(cat.disks, weights):
                d.weight = w
        return DiskSelector(main, sub, cat, OpCounters())

    def test_greedy_with_dwell_tie_break(self):
        sel = self.selector([4, 4, 2], {0: 0.005, 1: 0.004, 2: 0.003}, "GD", "SD")
        assert sel.select(random.Random(0)) == 1

    def test_reverse_greedy_picks_min_nonzero(self):
        sel = self.selector([4, 4, 2], {0: 0.005, 1: 0.004, 2: 0.003}, "RGD", "SD")
        assert sel.select(random.Random(0)) == 2

    def test_weighted_rule_orders_by_reciprocal_sums(self):
        # two scarce tasks (weight 2.0) beat three well-covered ones (1.0)
        sel = self.selector([2, 3], {0: 0.005, 1: 0.004}, "WGD", "SD",
                            weights=[2.0, 1.0])
        assert sel.select(random.Random(0)) == 0

    def test_single_nonempty_disk_always_chosen(self):
        for main, sub in itertools.product(("GD", "RGD", "WGD"), ("R", "SD")):
            sel = self.selector([3], {0: 0.005}, main, sub, weights=[1.5])
            assert sel.select(random.Random(0)) == 0

    def test_random_sub_rule_seeded(self):
        sel = self.selector([4, 4, 4], {0: 0.01, 1: 0.01, 2: 0.01}, "GD", "R")
        a = [sel.select(random.Random(5)) for _ in range(8)]
        b = [sel.select(random.Random(5)) for _ in range(8)]
        assert a == b

    def test_weight_updates_follow_deletions(self):
        sel = self.selector([2, 2], {0: 0.005, 1: 0.004}, "WGD", "SD",
                            weights=[1.0, 0.9])
        assert sel.select(random.Random(0)) == 0
        sel.remove_member(0, 0.6)           # one member gone, weight drops
        assert sel.select(random.Random(0)) == 1
        sel.remove_member(1, 0.1)
        sel.remove_member(1, 0.8)           # disk 1 empties entirely
        assert sel.select(random.Random(0)) == 0

    def test_builds_only_what_the_rule_reads(self):
        built = {}
        for main, sub in itertools.product(("GD", "RGD", "WGD"), ("R", "SD")):
            sel = self.selector([2, 1], {0: 0.005, 1: 0.004}, main, sub,
                                weights=[1.0, 0.5])
            built[main, sub] = {a for a in ("dwell", "weight", "count")
                                if getattr(sel, a) is not None}
        assert built[("GD", "R")] == built[("RGD", "R")] == set()
        assert built[("GD", "SD")] == built[("RGD", "SD")] == {"dwell"}
        assert built[("WGD", "R")] == built[("WGD", "SD")] == {"dwell", "weight", "count"}

    def test_greedy_cost_does_not_scale_with_disk_count(self):
        # bucket-backed selection touches the extreme bucket only
        counters = OpCounters()
        dwells = {i: 0.005 for i in range(500)}

        class FakeDisk:
            def __init__(self, i):
                self.id = i
                self.prf_index = i
                self.tasks = [0]
                self.weight = 1.0

        class FakeTable:
            def dwell(self, p):
                return dwells[p]

        class FakeCatalog:
            table = FakeTable()
            disks = [FakeDisk(i) for i in range(500)]

        sel = DiskSelector("GD", "R", FakeCatalog(), counters)
        before = counters.bucket_ops
        for _ in range(100):
            sel.select(random.Random(1))
        assert counters.bucket_ops == before    # selection never relinks buckets
        assert counters.selector_ops == 100
