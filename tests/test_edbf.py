import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pulseplan import (
    HeuristicConfig,
    InternalInvariantError,
    PrfConfig,
    RadarConfig,
    ScheduledLook,
    TrackTask,
    BucketList,
    build_availability_table,
    build_instance,
    check_feasible,
    default_prf_set,
    exact_objective,
    gen_scenario,
    hied,
    solve_exact,
)
from pulseplan.edbf import EdbfRun, Episode, prf_select, run_looks, task_priorities
from pulseplan.scenario import ScenarioSpec
from pulseplan.structures import BACKEND_KINDS, IndexedSet, OpCounters
from oracles import backend_over, rowwise_edbf_consume


def episode_over(entries, n_intlv):
    counters = OpCounters()
    backend = backend_over("brute", n_intlv, entries, counters)
    return Episode(backend, n_intlv, counters), counters


class TestBackwardInterleaving:
    def test_empty_task_set_makes_no_placements(self):
        ep, counters = episode_over([], 8)
        assert ep.run() == []
        assert ep.iters == 8          # one quiet pass over the slots

    def test_two_tasks_fill_slots_one_and_two(self):
        ep, _ = episode_over([(1, 1, 2, 2.0), (2, 1, 2, 1.0)], 2)
        assert ep.run() == [2, 1]     # rows in slot order

    def test_episode_deletes_placed_tasks(self):
        entries = [(1, 1, 2, 2.0), (2, 1, 2, 1.0)]
        counters = OpCounters()
        backend = backend_over("pairwise", 2, entries, counters)
        assert Episode(backend, 2, counters).run() == [2, 1]
        assert backend.live_count == 0
        assert not backend.store.live[1] and not backend.store.live[2]
        assert counters.backend_deletes == 2

    def test_total_left_shift_with_recursive_fill(self):
        # the first task parks at the rightmost slot; nothing tolerates a
        # trailing pulse, so the schedule compacts flush left and the freed
        # right-side slots take the second task before the forced return
        entries = [(1, 2, 4, 9.0), (2, 0, 3, 1.0)]
        ep, _ = episode_over(entries, 4)
        assert ep.run() == [1, 2]

    def test_one_step_shift_refills_old_tail(self):
        # task 1 sits at slot 3 (its rightmost), task 2 cannot take slot 2
        # but a one-step shift opens the old tail for it
        entries = [(1, 2, 3, 9.0), (2, 0, 3, 8.0)]
        ep, _ = episode_over(entries, 3)
        assert ep.run() == [1, 2]

    @pytest.mark.parametrize("kind", ["brute", "pairwise", "rangetree"])
    def test_has_left_only_after_best_in_finds_nothing(self, kind):
        # a row from best_in implies has_left, so the packing asks has_left
        # only right after a best_in that returned None
        class Watched:
            def __init__(self, backend):
                self._b = backend
                self.calls = []

            def __getattr__(self, name):
                return getattr(self._b, name)

            def best_in(self, l_min, r_min):
                row = self._b.best_in(l_min, r_min)
                self.calls.append(("best_in", row))
                return row

            def has_left(self, l_min):
                self.calls.append(("has_left", None))
                return self._b.has_left(l_min)

        rng = random.Random(3)
        asked = 0
        for n_intlv in (2, 4, 8):
            for _ in range(40):
                entries = [(t, rng.randrange(0, n_intlv + 1), rng.randrange(1, n_intlv + 1),
                            rng.random()) for t in range(1, rng.randrange(1, 12))]
                counters = OpCounters()
                watched = Watched(backend_over(kind, n_intlv, entries, counters))
                Episode(watched, n_intlv, counters).run()
                for i, (name, _) in enumerate(watched.calls):
                    if name == "has_left":
                        asked += 1
                        assert i > 0 and watched.calls[i - 1] == ("best_in", None)
        assert asked > 0

    def test_iteration_budget_respected(self):
        rng = random.Random(0)
        for n_intlv in (2, 4, 8):
            for _ in range(200):
                entries = [
                    (tid, rng.randrange(0, n_intlv + 1), rng.randrange(1, n_intlv + 1), rng.random())
                    for tid in range(1, rng.randrange(2, 12))
                ]
                ep, _ = episode_over(entries, n_intlv)
                ep.run()
                assert ep.iters <= 2 * n_intlv

    def test_occupied_slots_form_a_prefix(self):
        rng = random.Random(1)
        for _ in range(300):
            n_intlv = rng.choice([3, 4, 8])
            entries = [
                (tid, rng.randrange(0, n_intlv + 1), rng.randrange(1, n_intlv + 1), rng.random())
                for tid in range(1, rng.randrange(2, 10))
            ]
            ep, _ = episode_over(entries, n_intlv)
            placed = ep.run()
            items = sorted(ep.look.items())
            assert [slot for slot, _ in items] == list(range(1, len(placed) + 1))
            assert [row for _, row in items] == placed


class TestPrfSelect:
    def test_greedy_and_reverse_greedy(self):
        buckets = BucketList([5, 2])
        assert prf_select("G", buckets, None, random.Random(0)) == 0
        assert prf_select("RG", buckets, None, random.Random(0)) == 1

    def test_single_nonempty_prf(self):
        buckets = BucketList([0, 1])
        for rule in ("G", "RG", "R"):
            assert prf_select(rule, buckets, IndexedSet([1]), random.Random(0)) == 1

    def test_random_rule_reproducible(self):
        buckets = BucketList([p + 1 for p in range(6)])
        live = IndexedSet(range(6))
        a = [prf_select("R", buckets, live, random.Random(42)) for _ in range(10)]
        b = [prf_select("R", buckets, live, random.Random(42)) for _ in range(10)]
        assert a == b
        assert set(a) <= set(range(6))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_random_rule_set_tracks_nonzero_counts(self, seed):
        # after every look's consume, the R rule's set holds exactly the
        # PRFs whose bucket-list count is nonzero
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=120, seed=seed))
        table = build_availability_table(tasks, prfs, cfg)
        run = EdbfRun(table, HeuristicConfig(prf_rule="R", seed=seed))
        consume = run.consume
        checked = []

        def checked_consume(rows):
            consume(rows)
            nonzero = {p for p in range(table.n_prfs) if run.buckets.count(p)}
            assert set(run.live_prfs) == nonzero
            assert len(run.live_prfs) == len(nonzero)
            checked.extend(rows)

        run.consume = checked_consume
        run.run()
        assert len(checked) == len(table.schedulable_rows())
        assert len(run.live_prfs) == 0


def _lockstep_looks(table, cfg):
    """Run two ``EdbfRun``s of ``cfg`` on ``table`` look by look, one
    consuming each look's placed rows in one call, the other one row at a
    time (``oracles.rowwise_edbf_consume``).  Yields, after every look, both
    runs and the number of PRFs whose count the look took to 0."""
    runs = [EdbfRun(table, cfg), EdbfRun(table, cfg)]
    consumes = [runs[0].consume, lambda rows: rowwise_edbf_consume(runs[1], rows)]
    live = len(table.schedulable_rows())
    j = 0
    while live:
        j += 1
        placed = []
        before = sum(runs[0].buckets.count(p) > 0 for p in range(table.n_prfs))
        for run, consume in zip(runs, consumes):
            backend, _ = run.next_look(j)
            rows = Episode(backend, table.cfg.n_intlv, run.counters).run()
            consume(rows)
            placed.append(rows)
        assert placed[0] == placed[1], j
        live -= len(placed[0])
        after = sum(runs[0].buckets.count(p) > 0 for p in range(table.n_prfs))
        yield runs, before - after


class TestBatchedConsume:
    """One consume call per look leaves every structure as consuming the
    look's rows one at a time does."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(40, 400), seed=st.integers(0, 2**16),
           prf_rule=st.sampled_from(("G", "RG", "R")), backend=st.sampled_from(BACKEND_KINDS))
    def test_matches_the_rowwise_reference(self, n, seed, prf_rule, backend):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=n, seed=seed),
                                        RadarConfig(), default_prf_set(count=8))
        table = build_availability_table(tasks, prfs, cfg)
        config = HeuristicConfig(prf_rule=prf_rule, backend=backend, seed=seed)
        for (batched, rowwise), _ in _lockstep_looks(table, config):
            assert batched.buckets.dump() == rowwise.buckets.dump()
            if prf_rule == "R":
                assert list(batched.live_prfs) == list(rowwise.live_prfs)
            assert batched.counters == rowwise.counters
            assert [b.live_count for b in batched.backends] == \
                [b.live_count for b in rowwise.backends]
            if backend == "rangetree":
                assert [b._cnt1 for b in batched.backends] == \
                    [b._cnt1 for b in rowwise.backends]

    @pytest.mark.parametrize("n, seed", [(40, 1), (100, 0), (400, 3)])
    def test_two_prfs_empty_within_one_look(self, n, seed):
        # the sizes above take two PRFs to 0 in one look, where the random
        # rule's set must lose them in the order their counts reached 0
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=n, seed=seed),
                                        RadarConfig(), default_prf_set(count=8))
        table = build_availability_table(tasks, prfs, cfg)
        config = HeuristicConfig(prf_rule="R", seed=seed)
        emptied = 0
        for (batched, rowwise), gone in _lockstep_looks(table, config):
            assert list(batched.live_prfs) == list(rowwise.live_prfs)
            emptied += gone >= 2
        assert emptied >= 1


class TestTaskRules:
    def build_two_task_table(self):
        cfg = RadarConfig(c=3e8, n_intlv=8, pulses_per_look=64)
        prf = PrfConfig(f_r=12500.0, c_r_plus=2000.0, c_r_minus=500.0,
                        c_f_plus=2000.0, c_f_minus=2000.0)
        near = TrackTask(id=1, range_m=4000.0, sigma_r=100.0, velocity=-90.0, sigma_f=10.0)
        far = TrackTask(id=2, range_m=9000.0, sigma_r=100.0, velocity=-90.0, sigma_f=10.0)
        return build_availability_table([near, far], [prf], cfg)

    def test_ambiguous_range_rules(self):
        table = self.build_two_task_table()
        sar = task_priorities("SAR", table)[:, 0].tolist()
        lar = task_priorities("LAR", table)[:, 0].tolist()
        assert sar[0] > sar[1]        # shortest folded range wins under SAR
        assert lar[1] > lar[0]

    def test_availability_count_rules(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=12, seed=0), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        rows = range(len(tasks))
        sap = dict(zip(rows, task_priorities("SAP", table).tolist()))
        for r in rows:
            assert sap[r] == -len(table.prf_sets[r])
        sla = dict(zip(rows, task_priorities("SLA", table).tolist()))
        sra = dict(zip(rows, task_priorities("SRA", table).tolist()))
        for r in rows:
            assert sla[r] == -int(table.al[r].sum())
            assert sra[r] == -int(table.ar[r].sum())

    def test_task_select_uses_backend_thresholds(self):
        backend = backend_over("rangetree", 8, [(1, 3, 2, 5.0), (2, 1, 4, 9.0)])
        assert backend.best_in(2, 1) == 1
        assert backend.best_in(0, 1) == 2


class TestHied:
    def test_single_task_single_look(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=1, seed=1), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        sched = hied(table, HeuristicConfig(prf_rule="G"))
        assert sched.n_looks_used() == 1
        assert sched.assignments == [(tasks.ids[0], 1, 1)]
        # greedy picks among the PRFs the task can use
        p = sched.looks[0].prf_index
        assert p in table.prf_sets[0]

    def test_mutually_non_interleavable_tasks_get_one_look_each(self):
        # a 22 kHz PRI holds 4 slots of 10 us, so n_intlv=4 is the cap
        cfg = RadarConfig(c=3e8, n_intlv=4, pulses_per_look=64)
        prf = PrfConfig(f_r=22000.0, c_r_plus=2000.0, c_r_minus=500.0,
                        c_f_plus=2000.0, c_f_minus=2000.0)
        tasks = [
            TrackTask(id=i + 1, range_m=3500.0, sigma_r=100.0, velocity=-90.0,
                      sigma_f=10.0)
            for i in range(5)
        ]
        table = build_availability_table(tasks, [prf], cfg)
        assert all(table.al[i, 0] == 0 and table.ar[i, 0] == 1 for i in range(5))
        sched = hied(table, HeuristicConfig())
        assert sched.n_looks_used() == 5
        assert all(k == 1 for _, _, k in sched.assignments)

    def test_crafted_instance_greedy_beats_reverse(self):
        # four tasks all share PRF 0 and pair off on PRFs 1 and 2: greedy
        # covers everything in one look, reverse greedy burns two
        import numpy as np
        from pulseplan import AvailabilityTable, TaskColumns, build_instance, solve_exact

        cfg = RadarConfig(n_intlv=4, pulses_per_look=64)
        prfs = (PrfConfig(f_r=12500.0), PrfConfig(f_r=10000.0), PrfConfig(f_r=14000.0))
        tasks = tuple(
            TrackTask(id=i + 1, range_m=5000.0 + 500 * i, sigma_r=10.0,
                      velocity=-50.0, sigma_f=5.0)
            for i in range(4)
        )
        av = np.array([[1, 1, 0], [1, 1, 0], [1, 0, 1], [1, 0, 1]], dtype=bool)
        full = np.full((4, 3), 4, dtype=np.int64)
        al = np.where(av, full, 0)
        ar = np.where(av, full, 0)
        ra = np.full((4, 3), 5000.0)
        prf_sets = [tuple(np.nonzero(av[i])[0].tolist()) for i in range(4)]
        table = AvailabilityTable(
            cfg=cfg, prfs=prfs, tasks=TaskColumns.from_tasks(tasks),
            av=av, al=al, ar=ar, ra=ra,
            task_rows={t.id: i for i, t in enumerate(tasks)},
            prf_sets=prf_sets, q_p=int(av.sum()),
        )
        g = hied(table, HeuristicConfig(prf_rule="G"))
        rg = hied(table, HeuristicConfig(prf_rule="RG"))
        assert g.n_looks_used() == 1 and rg.n_looks_used() == 2
        inst = build_instance(table)
        assert check_feasible(g, inst) == [] and check_feasible(rg, inst) == []
        opt = exact_objective(solve_exact(inst), inst)
        assert exact_objective(g, inst) == opt
        assert exact_objective(rg, inst) > opt

    def test_greedy_vs_reverse_greedy_against_oracle(self):
        cfg = RadarConfig(n_intlv=4, pulses_per_look=64)
        prfs = default_prf_set(count=3)
        found_gap = False
        for seed in range(25):
            _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=6, seed=seed), cfg, prfs)
            table = build_availability_table(tasks, prfs, cfg)
            inst = build_instance(table)
            g = hied(table, HeuristicConfig(prf_rule="G"))
            rg = hied(table, HeuristicConfig(prf_rule="RG"))
            assert check_feasible(g, inst) == []
            assert check_feasible(rg, inst) == []
            opt = exact_objective(solve_exact(inst), inst)
            for sched in (g, rg):
                assert exact_objective(sched, inst) >= opt
            if g.objective() != rg.objective():
                found_gap = True
        assert found_gap, "greedy and reverse greedy never differed"

    def test_every_round_schedules_at_least_one_task(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=80, seed=2), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        sched = hied(table, HeuristicConfig(prf_rule="RG", task_rule="SAP"))
        assert sched.n_looks_used() <= len(tasks)
        assert len(sched.assignments) == len(tasks)

    def test_all_rule_combinations_feasible(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=30, seed=3), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        inst = build_instance(table)
        for prf_rule, task_rule in itertools.product(("G", "RG", "R"),
                                                     ("SAR", "LAR", "R", "SAP", "SLA", "SRA")):
            sched = hied(table, HeuristicConfig(prf_rule=prf_rule, task_rule=task_rule, seed=5))
            assert check_feasible(sched, inst) == [], (prf_rule, task_rule)

    def test_backend_independence(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=50, seed=4), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        outs = []
        for backend in ("brute", "pairwise", "rangetree"):
            sched = hied(table, HeuristicConfig(prf_rule="R", task_rule="R",
                                                backend=backend, seed=9))
            outs.append((tuple(sched.assignments),
                         tuple((lk.index, lk.prf_index) for lk in sched.looks)))
        assert outs[0] == outs[1] == outs[2]

    def test_look_loop_rejects_a_look_without_tasks(self, cfg, prfs):
        # the loop ends only because every look consumes a live task
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=3, seed=6), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)

        class EmptyLooks:
            def next_look(self, j):
                look = ScheduledLook(index=j, prf_index=0, f_r=prfs[0].f_r,
                                     dwell=table.dwell(0))
                return backend_over("brute", cfg.n_intlv, []), look

            def consume(self, tid):
                raise AssertionError("nothing was placed")

        with pytest.raises(InternalInvariantError,
                           match="look 1: the selected base has no task left"):
            run_looks(EmptyLooks(), table, OpCounters(), {})

    def test_counters_track_iteration_cap(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=60, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        counters = OpCounters()
        hied(table, HeuristicConfig(), counters)
        assert 0 < counters.bi_max_iterations <= 2 * cfg.n_intlv
        assert counters.bi_calls >= 1

    def test_bucket_ops_count_consumes_only(self, cfg, prfs):
        # the PRF bucket list is built from counts; every decrement after
        # that consumes one (task, PRF) membership
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=60, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        run = EdbfRun(table, HeuristicConfig())
        assert run.counters.bucket_ops == 0
        run.run()
        assert run.counters.bucket_ops == table.q_p

    def test_backend_deletes_one_per_membership(self, cfg, prfs):
        # a placed task is deleted once from each of its PRFs' backends,
        # which all read the run's one store
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=60, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        for backend in ("brute", "pairwise", "rangetree"):
            run = EdbfRun(table, HeuristicConfig(backend=backend))
            assert all(b.store is run.store for b in run.backends)
            run.run()
            assert run.counters.backend_deletes == table.q_p, backend
            assert all(b.live_count == 0 for b in run.backends)

    @pytest.mark.parametrize("task_rule", ["SAR", "SAP"])
    def test_backends_hold_the_store_order(self, cfg, prfs, task_rule):
        # each PRF's task set is held once: a backend's row list is the
        # store's order list itself, and its length is the PRF's bucket count
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=300, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        for backend in BACKEND_KINDS:
            run = EdbfRun(table, HeuristicConfig(task_rule=task_rule, backend=backend))
            assert all(b._order is run.store.order[p] for p, b in enumerate(run.backends))
            assert [run.buckets.count(p) for p in range(table.n_prfs)] == \
                [int(table.av[:, p].sum()) for p in range(table.n_prfs)]

    def test_selector_ops_count_one_per_look(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=60, seed=5), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        for prf_rule in ("G", "RG", "R"):
            counters = OpCounters()
            sched = hied(table, HeuristicConfig(prf_rule=prf_rule, seed=2), counters)
            assert counters.selector_ops == len(sched.looks), prf_rule

    def test_tiny_capacity_fuzz(self):
        # capacities 1..3 drive the degenerate recursion branches
        for n_intlv in (1, 2, 3):
            cfg = RadarConfig(n_intlv=n_intlv, pulses_per_look=64)
            prfs = default_prf_set(count=4)
            for seed in range(10):
                _, _, tasks = gen_scenario(
                    ScenarioSpec(n_tasks=12, seed=900 + seed), cfg, prfs)
                table = build_availability_table(tasks, prfs, cfg)
                inst = build_instance(table, copies=1)
                for backend in ("brute", "pairwise", "rangetree"):
                    sched = hied(table, HeuristicConfig(
                        prf_rule=("G", "RG", "R")[seed % 3],
                        task_rule=("SAR", "R", "SRA")[seed % 3],
                        backend=backend, seed=seed))
                    assert check_feasible(sched, inst) == [], (n_intlv, seed, backend)

    def test_unschedulable_tasks_ride_along(self, lab_cfg, lab_prf):
        good = TrackTask(id=1, range_m=30000.0, sigma_r=100.0, velocity=-90.0, sigma_f=10.0)
        bad = TrackTask(id=2, range_m=30000.0, sigma_r=9000.0, velocity=-90.0, sigma_f=10.0)
        table = build_availability_table([good, bad], [lab_prf], lab_cfg)
        sched = hied(table, HeuristicConfig())
        assert sched.unschedulable == (2,)
        assert [tid for tid, _, _ in sched.assignments] == [1]
