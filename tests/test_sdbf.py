import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import pulseplan
from pulseplan import (
    DiskHeuristicConfig,
    GridSpec,
    InternalInvariantError,
    PrfConfig,
    RadarConfig,
    TrackTask,
    build_availability_table,
    build_instance,
    check_feasible,
    dedup_disks,
    default_prf_set,
    enumerate_disks,
    gen_scenario,
    hisd,
)
from pulseplan.sdbf import DISK_RULES, SUB_RULES, DiskSelector, SdbfRun
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
        assert any(len(catalog.disk_tasks(d)) == 2 for d in range(catalog.n_disks))
        sched = hisd(catalog, DiskHeuristicConfig(disk_rule="GD"))
        assert sched.n_looks_used() == 1
        look = sched.looks[0]
        assert len(catalog.disk_tasks(look.disk_id)) == 2

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

    def test_runs_without_sortedcontainers(self):
        # no third-party structure behind any disk rule: with the module
        # blocked, the package imports and every rule pair schedules
        script = textwrap.dedent('''
            import itertools, sys
            sys.modules["sortedcontainers"] = None
            from pulseplan import (DiskHeuristicConfig, GridSpec, build_availability_table,
                                   build_instance, check_feasible, enumerate_disks,
                                   gen_scenario, hisd)
            from pulseplan.scenario import ScenarioSpec
            cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=40, seed=0, cluster_count=3))
            catalog = enumerate_disks(build_availability_table(tasks, prfs, cfg), GridSpec())
            inst = build_instance(catalog)
            for rules in itertools.product(("GD", "RGD", "WGD"), ("R", "SD")):
                sched = hisd(catalog, DiskHeuristicConfig(*rules))
                assert sched.assignments and check_feasible(sched, inst) == [], rules
            print("scheduled")
        ''')
        path = [str(Path(pulseplan.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "scheduled\n"

    def test_scheduled_tasks_lie_inside_their_look_disk(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=35, seed=1, cluster_count=2), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        grid = GridSpec()
        catalog = enumerate_disks(table, grid)
        sched = hisd(catalog, DiskHeuristicConfig(disk_rule="WGD", sub_rule="SD"))
        centers = {lk.index: lk.disk_center for lk in sched.looks}
        for tid, j, _ in sched.assignments:
            cu, cv = centers[j]
            row = table.row_of(tid)
            assert math.hypot(cu - tasks.u[row], cv - tasks.v[row]) <= grid.disk_radius + 1e-12

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
        for disk_rule, sub_rule in itertools.product(DISK_RULES, SUB_RULES):
            run = SdbfRun(catalog, DiskHeuristicConfig(disk_rule=disk_rule,
                                                       sub_rule=sub_rule))
            assert run.counters.bucket_ops == 0
            run.run()
            assert run.counters.bucket_ops == catalog.q_d, (disk_rule, sub_rule)

    def test_backend_deletes_one_per_placed_task(self, cfg, prfs):
        # a placed task leaves the look's backend once; later disks build
        # their backends from the run's store, which no longer holds it
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=50, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        for backend in ("brute", "pairwise", "rangetree"):
            run = SdbfRun(catalog, DiskHeuristicConfig(backend=backend))
            assert run._disk_backend(0).store is run.store
            sched = run.run()
            assert run.counters.backend_deletes == len(sched.assignments) == len(tasks)
            assert not any(run.store.live[table.row_of(tid)] for tid in tasks.ids)

    @pytest.mark.parametrize("task_rule", ["SAR", "SAP", "R"])
    def test_disk_backends_get_live_rows_in_rank_order(self, cfg, prfs, task_rule):
        # a per-disk backend is handed the disk's live rows in the store's
        # priority order at the disk's PRF: the store's order filtered to
        # them, whatever order the catalog lists them in
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=300, seed=2), cfg, prfs)
        catalog = enumerate_disks(build_availability_table(tasks, prfs, cfg), GridSpec())
        rng = random.Random(task_rule)
        for backend in ("brute", "rangetree"):
            run = SdbfRun(catalog, DiskHeuristicConfig(task_rule=task_rule, backend=backend))
            store = run.store
            for row in rng.sample(range(len(tasks)), len(tasks) // 3):
                if store.live[row]:
                    store.kill(row)
            out_of_order = 0
            for d in range(0, catalog.n_disks, 7):
                p = catalog.prf_index[d]
                live = {row for row in catalog.disk_tasks(d) if store.live[row]}
                want = [row for row in store.order[p] if row in live]
                assert run._disk_backend(d)._order == want, (backend, d)
                out_of_order += [r for r in catalog.disk_tasks(d) if r in live] != want
            assert out_of_order > 0

    def test_selector_ops_count_one_per_look(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=50, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        for disk_rule, sub_rule in itertools.product(("GD", "RGD", "WGD"), ("R", "SD")):
            counters = OpCounters()
            sched = hisd(catalog, DiskHeuristicConfig(disk_rule=disk_rule,
                                                      sub_rule=sub_rule), counters)
            assert counters.selector_ops == len(sched.looks), (disk_rule, sub_rule)

def disk_members(n_disks, task_disks):
    """Each disk's rows, ascending."""
    return [[t for t, ds in enumerate(task_disks) if d in ds] for d in range(n_disks)]


def fake_catalog(prf_of, dwells, task_disks):
    """Catalog-like columns: disk ``d`` at PRF ``prf_of[d]``, PRF ``p`` with
    dwell ``dwells[p]``, and ``task_disks[row]`` listing each task row's
    disk ids; each disk lists its rows in ascending order."""
    members = disk_members(len(prf_of), task_disks)
    return SimpleNamespace(
        table=SimpleNamespace(dwell=dwells.__getitem__, n_prfs=len(dwells)),
        prf_index=list(prf_of), members=[t for m in members for t in m],
        offsets=[0, *itertools.accumulate(map(len, members))],
        task_disks=task_disks)


def apart(*sizes):
    """``task_disks`` of disks 0, 1, ... holding ``sizes`` tasks, no task
    shared between disks."""
    return [[d] for d, n in enumerate(sizes) for _ in range(n)]


class TestDiskSelector:
    def selector(self, task_disks, dwells, main, sub, counters=None):
        """Bare selector over disks 0..len(dwells)-1, disk d at PRF d."""
        catalog = fake_catalog(range(len(dwells)), dwells, task_disks)
        return DiskSelector(main, sub, catalog, counters or OpCounters())

    def test_greedy_with_dwell_tie_break(self):
        sel = self.selector(apart(4, 4, 2), [0.005, 0.004, 0.003], "GD", "SD")
        assert sel.select(random.Random(0)) == 1

    def test_reverse_greedy_picks_min_nonzero(self):
        sel = self.selector(apart(4, 4, 2), [0.005, 0.004, 0.003], "RGD", "SD")
        assert sel.select(random.Random(0)) == 2

    @pytest.mark.parametrize("sub", SUB_RULES)
    def test_reverse_greedy_follows_a_shrinking_disk(self, sub):
        # an RGD primary rises as its disk loses members: disk 0 (3 members)
        # drops below disk 1 (2 members) and must be selected next
        sel = self.selector(apart(3, 2), [0.005, 0.004], "RGD", sub)
        assert sel.select(random.Random(0)) == 1
        sel.consume([0])
        sel.consume([0])
        assert sel.select(random.Random(0)) == 0

    def test_weighted_rule_orders_by_reciprocal_sums(self):
        # two scarce tasks (weight 2.0) beat four tasks shared by four
        # disks each (weight 1.0), which the greedy count prefers
        task_disks = [[0], [0], *[[1, 2, 3, 4]] * 4]
        dwells = [0.005, 0.004, 0.004, 0.004, 0.004]
        sel = self.selector(task_disks, dwells, "WGD", "SD")
        assert sel.primary == [2.0, 1.0, 1.0, 1.0, 1.0]
        assert sel.select(random.Random(0)) == 0
        assert self.selector(task_disks, dwells, "GD", "SD").select(random.Random(0)) == 1

    @pytest.mark.parametrize("layout", ["full", "dedup"])
    def test_weights_are_reciprocal_sums(self, layout):
        # the weights of the catalog handed in, also after dedup_disks
        # renumbers disks and shrinks the tasks' disk lists
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=40, seed=3),
                                        RadarConfig(n_intlv=4), default_prf_set(count=3))
        catalog = enumerate_disks(build_availability_table(tasks, prfs, cfg), GridSpec())
        if layout == "dedup":
            catalog = dedup_disks(catalog)
            assert catalog.n_disks == 58
        sel = DiskSelector("WGD", "SD", catalog, OpCounters())
        assert sel.primary == [
            sum(1.0 / len(catalog.task_disks[t]) for t in catalog.disk_tasks(d))
            for d in range(catalog.n_disks)]

    def test_single_nonempty_disk_always_chosen(self):
        for main, sub in itertools.product(("GD", "RGD", "WGD"), ("R", "SD")):
            sel = self.selector(apart(3), [0.005], main, sub)
            assert sel.select(random.Random(0)) == 0

    def test_random_sub_rule_seeded(self):
        sel = self.selector(apart(4, 4, 4), [0.01, 0.01, 0.01], "GD", "R")
        a = [sel.select(random.Random(5)) for _ in range(8)]
        b = [sel.select(random.Random(5)) for _ in range(8)]
        assert a == b

    def test_weight_updates_follow_deletions(self):
        task_disks = [[0], [0, 1], [1, 2]]
        sel = self.selector(task_disks, [0.005, 0.004, 0.003], "WGD", "SD")
        assert sel.primary == [1.5, 1.0, 0.5]
        assert sel.select(random.Random(0)) == 0
        sel.consume(task_disks[0])          # disk 0 loses its scarce task
        assert sel.primary[0] == 0.5
        assert sel.select(random.Random(0)) == 1
        sel.consume(task_disks[2])          # disk 2 empties entirely
        assert sel.primary[1] == 0.5
        assert sel.select(random.Random(0)) == 1   # tied weights: shorter dwell
        sel.consume(task_disks[1])
        assert sel.select(random.Random(0)) is None
        assert sel.counters.bucket_ops == 5

    def test_removing_from_an_empty_disk_raises(self):
        for main, sub in itertools.product(("GD", "RGD", "WGD"), ("R", "SD")):
            sel = self.selector(apart(1), [0.005], main, sub)
            sel.consume([0])
            assert sel.select(random.Random(0)) is None
            with pytest.raises(InternalInvariantError):
                sel.consume([0])

    def test_builds_only_what_the_rule_reads(self):
        built = {}
        for main, sub in itertools.product(("GD", "RGD", "WGD"), ("R", "SD")):
            sel = self.selector(apart(2, 1), [0.005, 0.004], main, sub)
            built[main, sub] = {a for a in ("dwell", "primary", "count")
                                if getattr(sel, a) is not None}
        assert built[("GD", "R")] == built[("RGD", "R")] == set()
        for rules in (("GD", "SD"), ("RGD", "SD"), ("WGD", "R"), ("WGD", "SD")):
            assert built[rules] == {"dwell", "primary", "count"}

    def test_greedy_cost_does_not_scale_with_disk_count(self):
        # bucket-backed selection touches the extreme bucket only
        counters = OpCounters()
        sel = self.selector(apart(*[1] * 500), [0.005] * 500, "GD", "R", counters)
        before = counters.bucket_ops
        for _ in range(100):
            sel.select(random.Random(1))
        assert counters.bucket_ops == before    # selection never relinks buckets
        assert counters.selector_ops == 100


class TestDiskSelectorReference:
    @settings(max_examples=300, deadline=None)
    @given(
        prf_of=st.lists(st.integers(0, 2), min_size=1, max_size=10),
        dwells=st.lists(st.sampled_from([0.004, 0.005]), min_size=3, max_size=3),
        tasks=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=4),
                       min_size=1, max_size=12),
        main=st.sampled_from(DISK_RULES),
        sub=st.sampled_from(SUB_RULES),
        picks=st.lists(st.integers(0, 11), max_size=40),
    )
    def test_select_matches_brute_force(self, prf_of, dwells, tasks, main, sub, picks):
        # tied counts, weights and dwells; whole tasks are consumed, and the
        # reference recomputes the extreme nonzero count (or weight), then
        # dwell, then id, each time
        n = len(prf_of)
        task_disks = [list(dict.fromkeys(d % n for d in ds)) for ds in tasks]
        catalog = fake_catalog(prf_of, dwells, task_disks)
        counters = OpCounters()
        sel = DiskSelector(main, sub, catalog, counters)
        share = [1.0 / len(ds) for ds in task_disks]
        members = disk_members(n, task_disks)
        left = [len(m) for m in members]
        weight = [sum(share[t] for t in m) for m in members]
        dwell = [dwells[p] for p in prf_of]
        placed = set()
        removed = 0
        for step in [None, *picks]:
            if step is not None:
                t = step % len(tasks)
                if t in placed:
                    continue
                placed.add(t)
                sel.consume(task_disks[t])
                for d in task_disks[t]:
                    left[d] -= 1
                    if left[d]:
                        weight[d] -= share[t]
                removed += len(task_disks[t])
            assert counters.bucket_ops == removed
            live = [d for d in range(n) if left[d]]
            if sel.heap is not None:
                # rebuilt from the live disks once it outgrows twice them
                assert len(sel.heap) <= 2 * len(live)
            primary = {"GD": lambda d: left[d], "RGD": lambda d: -left[d],
                       "WGD": lambda d: weight[d]}[main]
            top = max(map(primary, live), default=None)
            tied = [d for d in live if primary(d) == top]
            seed = -1 if step is None else step   # Random(None) is unseeded
            got = sel.select(random.Random(seed))
            if not tied:
                assert got is None
            elif sub == "SD":
                assert got == min(tied, key=lambda d: (dwell[d], d))
            elif main == "WGD":
                # the ordered rule draws from its ties in (dwell, id) order
                ordered = sorted(tied, key=lambda d: (dwell[d], d))
                assert got == ordered[random.Random(seed).randrange(len(tied))]
            else:
                # the bucket list draws in bucket order
                assert got in tied
