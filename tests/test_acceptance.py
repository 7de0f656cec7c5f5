"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The two scaling criteria dominate the runtime.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from pulseplan import (
    DiskHeuristicConfig,
    GridSpec,
    HeuristicConfig,
    RadarConfig,
    ScenarioSpec,
    build_availability_table,
    build_instance,
    check_feasible,
    dedup_disks,
    default_prf_set,
    enumerate_disks,
    exact_objective,
    gen_scenario,
    run_scaling,
    solve_exact,
)
from pulseplan.edbf import PRF_RULES, TASK_RULES, EdbfRun
from pulseplan.io import schedule_to_text
from pulseplan.sdbf import DISK_RULES, SUB_RULES, SdbfRun
from pulseplan.structures import BACKEND_KINDS, OpCounters, build_backend
from oracles import (
    brute_grid_disks,
    clear_region_trackable,
    linear_best,
    linear_has_left,
    timeline_feasible,
)


def report(criterion, detail):
    print(f"[acceptance {criterion}] PASS  {detail}")


def edbf_combos():
    return [
        {"prf_rule": p, "task_rule": t, "backend": b}
        for p in PRF_RULES for t in TASK_RULES for b in BACKEND_KINDS
    ]


def sdbf_combos():
    return [
        {"disk_rule": d, "sub_rule": s, "task_rule": t, "backend": b}
        for d in DISK_RULES for s in SUB_RULES for t in TASK_RULES
        for b in BACKEND_KINDS
    ]


class TestAcceptance:
    def test_01_feasibility_suite(self):
        """500 scenarios, every mode/rule/backend combo >= 20 times, zero
        violations, under two minutes."""
        t0 = time.perf_counter()
        combos = [("edbf", c) for c in edbf_combos()]
        combos += [("sdbf", c) for c in sdbf_combos()]
        per_scenario = 7
        runs_done = {i: 0 for i in range(len(combos))}
        grid = GridSpec(spacing=0.04, disk_radius=0.05)
        sizes = itertools.cycle((10, 50, 200))
        combo_cycle = itertools.cycle(range(len(combos)))
        violations = 0
        max_bi = 0
        counters = OpCounters()
        for scenario_idx in range(500):
            n_t = next(sizes)
            cfg, prfs, tasks = gen_scenario(
                ScenarioSpec(n_tasks=n_t, seed=scenario_idx,
                             cluster_count=scenario_idx % 4)
            )
            table = build_availability_table(tasks, prfs, cfg)
            todo = [next(combo_cycle) for _ in range(per_scenario)]
            catalog = None
            inst_edbf = build_instance(table, copies=1)
            inst_sdbf = None
            for ci in todo:
                mode, rules = combos[ci]
                if mode == "edbf":
                    sched = EdbfRun(
                        table, HeuristicConfig(seed=scenario_idx, **rules), counters
                    ).run()
                    inst = inst_edbf
                else:
                    if catalog is None:
                        catalog = enumerate_disks(table, grid)
                        inst_sdbf = build_instance(catalog, copies=1)
                    sched = SdbfRun(
                        catalog, DiskHeuristicConfig(seed=scenario_idx, **rules),
                        counters,
                    ).run()
                    inst = inst_sdbf
                violations += len(check_feasible(sched, inst))
                runs_done[ci] += 1
        max_bi = counters.bi_max_iterations
        elapsed = time.perf_counter() - t0
        assert violations == 0
        assert min(runs_done.values()) >= 20, min(runs_done.values())
        assert elapsed < 120.0, f"feasibility suite took {elapsed:.1f}s"
        self.max_bi_seen = max_bi
        report(1, f"{sum(runs_done.values())} runs over 500 scenarios, "
                  f"0 violations, min combo samples {min(runs_done.values())}, "
                  f"{elapsed:.1f}s")

    def test_02_oracle_optimality(self):
        """200 small instances: heuristic objective >= exact, exactly."""
        mean_num = Fraction(0)
        count = 0
        worst_exact_s = 0.0
        rng = random.Random(0)
        for trial in range(200):
            n_t = rng.randrange(4, 9)
            n_prf = rng.choice((2, 3))
            n_intlv = rng.choice((2, 3, 4))
            cfg = RadarConfig(n_intlv=n_intlv, pulses_per_look=64)
            prfs = default_prf_set(count=n_prf)
            cfg, prfs, tasks = gen_scenario(
                ScenarioSpec(n_tasks=n_t, seed=trial), cfg, prfs
            )
            table = build_availability_table(tasks, prfs, cfg)
            inst = build_instance(table)
            t0 = time.perf_counter()
            exact = solve_exact(inst)
            worst_exact_s = max(worst_exact_s, time.perf_counter() - t0)
            assert exact is not None
            assert check_feasible(exact, inst) == []
            opt = exact_objective(exact, inst)
            for prf_rule, task_rule in itertools.product(PRF_RULES, TASK_RULES):
                sched = EdbfRun(table, HeuristicConfig(
                    prf_rule=prf_rule, task_rule=task_rule, seed=trial)).run()
                obj = exact_objective(sched, inst)
                assert obj >= opt, (trial, prf_rule, task_rule)
                mean_num += obj / opt
                count += 1
            if trial % 4 == 0:
                # subarray leg: the duplicate-free instance with enough look
                # copies bounds every full-catalog heuristic schedule
                catalog = enumerate_disks(table, GridSpec(spacing=0.04,
                                                          disk_radius=0.06))
                t0 = time.perf_counter()
                inst_sd = build_instance(dedup_disks(catalog), copies=n_t)
                exact_sd = solve_exact(inst_sd)
                worst_exact_s = max(worst_exact_s, time.perf_counter() - t0)
                opt_sd = exact_objective(exact_sd, inst_sd)
                for disk_rule, sub_rule in itertools.product(DISK_RULES, SUB_RULES):
                    sched = SdbfRun(catalog, DiskHeuristicConfig(
                        disk_rule=disk_rule, sub_rule=sub_rule,
                        seed=trial)).run()
                    obj = exact_objective(sched, inst_sd)
                    assert obj >= opt_sd, (trial, disk_rule, sub_rule)
            assert worst_exact_s < 5.0
        mean_ratio = float(mean_num / count)
        report(2, f"200 instances x 18 rules (plus subarray legs), all >= "
                  f"optimal; mean ratio {mean_ratio:.4f}; worst exact solve "
                  f"{worst_exact_s * 1e3:.0f}ms")

    def test_03_backend_equivalence(self):
        """100 scenarios per mode: the three backends emit identical bytes."""
        grid = GridSpec(spacing=0.04, disk_radius=0.05)
        edbf_rules = [(p, t) for p in PRF_RULES for t in TASK_RULES]
        sdbf_rules = [(d, s, t) for d in DISK_RULES for s in SUB_RULES
                      for t in TASK_RULES]
        for mode in ("edbf", "sdbf"):
            for scenario_idx in range(100):
                n_t = (10, 50)[scenario_idx % 2]
                cfg, prfs, tasks = gen_scenario(
                    ScenarioSpec(n_tasks=n_t, seed=3000 + scenario_idx,
                                 cluster_count=scenario_idx % 3)
                )
                table = build_availability_table(tasks, prfs, cfg)
                catalog = enumerate_disks(table, grid) if mode == "sdbf" else None
                texts = set()
                for backend in BACKEND_KINDS:
                    if mode == "edbf":
                        p, t = edbf_rules[scenario_idx % len(edbf_rules)]
                        sched = EdbfRun(table, HeuristicConfig(
                            prf_rule=p, task_rule=t, backend=backend,
                            seed=scenario_idx)).run()
                    else:
                        d, s, t = sdbf_rules[scenario_idx % len(sdbf_rules)]
                        sched = SdbfRun(catalog, DiskHeuristicConfig(
                            disk_rule=d, sub_rule=s, task_rule=t,
                            backend=backend, seed=scenario_idx)).run()
                    texts.add(schedule_to_text(sched))
                assert len(texts) == 1, (mode, scenario_idx)
        report(3, "100 scenarios x 2 modes: brute/pairwise/rangetree schedules "
                  "byte-identical")

    def test_04_bi_iteration_bound(self):
        """The backward pass never exceeds twice the interleaving capacity.

        The bound is a hard runtime assertion inside the scheduler; here a
        dedicated sweep confirms the instrumented maximum stays under it.
        """
        counters = OpCounters()
        grid = GridSpec(spacing=0.04, disk_radius=0.05)
        for seed in range(60):
            cfg, prfs, tasks = gen_scenario(
                ScenarioSpec(n_tasks=(10, 50, 200)[seed % 3], seed=7000 + seed,
                             cluster_count=seed % 3)
            )
            table = build_availability_table(tasks, prfs, cfg)
            EdbfRun(table, HeuristicConfig(
                prf_rule=PRF_RULES[seed % 3],
                task_rule=TASK_RULES[seed % 6], seed=seed), counters).run()
            catalog = enumerate_disks(table, grid)
            SdbfRun(catalog, DiskHeuristicConfig(
                disk_rule=DISK_RULES[seed % 3], sub_rule=SUB_RULES[seed % 2],
                task_rule=TASK_RULES[(seed + 3) % 6], seed=seed), counters).run()
        cap = 2 * RadarConfig().n_intlv
        assert 0 < counters.bi_max_iterations <= cap
        report(4, f"max backward-pass iterations {counters.bi_max_iterations} "
                  f"<= {cap} over {counters.bi_calls} looks")

    def test_05_structure_oracle_equivalence(self):
        """1e5 random build/query/delete ops per backend vs a linear scan."""
        for kind in BACKEND_KINDS:
            rng = random.Random(hash(kind) % 100000)
            ops = 0
            mismatches = 0
            while ops < 100_000:
                n_intlv = rng.choice((2, 3, 4, 8))
                n = rng.randrange(1, 50)
                entries = [
                    (tid, rng.randrange(0, n_intlv + 1),
                     rng.randrange(1, n_intlv + 1), rng.uniform(-10, 10))
                    for tid in range(1, n + 1)
                ]
                backend = build_backend(kind, n_intlv, entries)
                dead = set()
                alive = [e[0] for e in entries]
                for _ in range(rng.randrange(20, 200)):
                    ops += 1
                    roll = rng.random()
                    if roll < 0.5 or not alive:
                        a = rng.randrange(0, n_intlv + 1)
                        b = rng.randrange(1, n_intlv + 1)
                        if backend.best_in(a, b) != linear_best(entries, dead, a, b):
                            mismatches += 1
                    elif roll < 0.7:
                        a = rng.randrange(0, n_intlv + 1)
                        if backend.has_left(a) != linear_has_left(entries, dead, a):
                            mismatches += 1
                    else:
                        tid = rng.choice(alive)
                        alive.remove(tid)
                        dead.add(tid)
                        backend.delete(tid)
            assert mismatches == 0, kind
            report(5, f"{kind}: {ops} trace ops, exact-match rate 100%")

    @pytest.mark.slow
    def test_06_edbf_scaling(self):
        """Element-mode runtime grows like n log n: fitted exponent <= 1.25,
        operation-counter exponent <= 1.2, at fixed PRF set and capacity."""
        t0 = time.perf_counter()
        report_obj = run_scaling(
            "edbf", "rangetree",
            sizes=[1000, 2000, 4000, 8000, 16000, 32000, 64000],
            reps=5,
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"scaling suite took {elapsed:.0f}s"
        assert report_obj.exponent <= 1.25, report_obj.to_text()
        assert report_obj.counter_exponent <= 1.2, report_obj.to_text()
        assert all(r.bi_max_iterations <= 16 for r in report_obj.rows)
        report(6, f"wall exponent {report_obj.exponent:.3f} <= 1.25, counter "
                  f"exponent {report_obj.counter_exponent:.3f} <= 1.2, "
                  f"{elapsed:.0f}s")

    @pytest.mark.slow
    def test_07_sdbf_scaling(self):
        """Subarray-mode runtime stays within the n^2 log n envelope:
        fitted exponent <= 2.3 at fixed grid and radius."""
        t0 = time.perf_counter()
        report_obj = run_scaling(
            "sdbf", "rangetree",
            sizes=[250, 500, 1000, 2000, 4000],
            reps=5,
            grid=GridSpec(spacing=0.02, disk_radius=0.05),
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0, f"scaling suite took {elapsed:.0f}s"
        assert report_obj.exponent <= 2.3, report_obj.to_text()
        assert all(r.bi_max_iterations <= 16 for r in report_obj.rows)
        report(7, f"wall exponent {report_obj.exponent:.3f} <= 2.3, {elapsed:.0f}s")

    def test_08_disk_catalog_correctness(self):
        """Catalog equals the brute-force grid enumeration exactly."""
        grid = GridSpec(spacing=0.03, disk_radius=0.06)
        for seed in range(100):
            cfg, prfs, tasks = gen_scenario(
                ScenarioSpec(n_tasks=20, seed=8000 + seed,
                             cluster_count=(0, 2, 5)[seed % 3],
                             cluster_radius=0.2)
            )
            table = build_availability_table(tasks, prfs, cfg)
            catalog = enumerate_disks(table, grid)
            got = {(d.prf_index, d.gu, d.gv): sorted(d.tasks) for d in catalog.disks}
            want = brute_grid_disks(table, grid)
            assert got == want, seed
            assert all(d.tasks for d in catalog.disks)
            for row in table.schedulable_rows():
                assert catalog.task_disks[table.tasks[row].id], seed
        report(8, "100 scenarios: catalog == brute-force enumeration, all disks "
                  "nonempty, all trackable tasks covered")

    def test_09_availability_geometry(self):
        """Trackability matches the clear-region check and every admissible
        slot reconstructs a non-overlapping pulse timeline."""
        cfg = RadarConfig()
        prfs = default_prf_set()
        rng = random.Random(99)
        from pulseplan import (
            TrackTask, is_trackable, leftward_availability, rightward_availability,
        )

        pairs = 0
        timeline_checks = 0
        while pairs < 10_000:
            r = rng.uniform(1e3, 2e5)
            sr = rng.uniform(0, 250)
            v = rng.uniform(-500, 500)
            sf = rng.uniform(0, 150)
            prf = prfs[rng.randrange(len(prfs))]
            task = TrackTask(id=1, range_m=r, sigma_r=sr, velocity=v, sigma_f=sf)
            pairs += 1
            got = is_trackable(task, prf, cfg)
            want = clear_region_trackable(r, sr, v, sf, prf, cfg)
            assert got == want
            if not got:
                continue
            al = leftward_availability(task, prf, cfg)
            ar = rightward_availability(task, prf, cfg)
            assert ar >= 1
            for k in range(1, ar + 1):
                total = min(k + al, cfg.n_intlv)
                assert timeline_feasible(
                    {k: (r, sr, v, sf)}, prf, cfg, total_slots=total
                ), (r, sr, v, sf, k)
                timeline_checks += 1
        report(9, f"10000 task-PRF pairs agree with the clear-region oracle; "
                  f"{timeline_checks} slot placements reconstructed clear timelines")
