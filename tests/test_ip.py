import random
from fractions import Fraction

import pytest

from pulseplan import (
    HeuristicConfig,
    PrfConfig,
    RadarConfig,
    ResourceLimitError,
    Schedule,
    ScheduledLook,
    build_availability_table,
    build_instance,
    check_feasible,
    default_prf_set,
    exact_objective,
    export_lp,
    gen_scenario,
    hied,
    parse_lp,
    solve_exact,
)
from pulseplan.ip import emit_lp
from pulseplan.scenario import ScenarioSpec
from oracles import exhaustive_optimum, timeline_feasible

SMALL_CFG = RadarConfig(n_intlv=4, pulses_per_look=64)
SMALL_PRFS = default_prf_set(count=3)


def small_instance(n_tasks, seed, cfg=SMALL_CFG, prfs=SMALL_PRFS):
    _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=n_tasks, seed=seed), cfg, prfs)
    table = build_availability_table(tasks, prfs, cfg)
    return table, build_instance(table)


def shared_prf_instance(n_tasks, start_seed=0):
    """First drawn instance whose first n tasks share some PRF."""
    for seed in range(start_seed, start_seed + 60):
        table, inst = small_instance(n_tasks, seed=seed)
        shared = [p for p in range(table.n_prfs)
                  if all(table.av[i, p] for i in range(n_tasks))]
        if shared:
            return table, inst, shared[0]
    raise AssertionError("no draw with a shared PRF")


def manual_schedule(inst, rows, prf_index=0):
    """Build a schedule from [(task, look, slot)] rows over one dwell model."""
    looks = {}
    for _, j, _ in rows:
        if j not in looks:
            looks[j] = ScheduledLook(
                index=j,
                prf_index=prf_index,
                f_r=inst.table.prfs[prf_index].f_r,
                dwell=inst.table.dwell(prf_index),
            )
    return Schedule(looks=list(looks.values()), assignments=list(rows))


class TestInstanceShape:
    def test_edbf_look_count(self):
        table, inst = small_instance(3, seed=0, prfs=default_prf_set(count=2))
        assert inst.n_looks == 6          # task count copies per PRF
        assert inst.var_count() == 3 * 6 * 4 + 6

    def test_sdbf_look_count(self, cfg, prfs):
        from pulseplan import GridSpec, dedup_disks, enumerate_disks

        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=4, seed=1), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = dedup_disks(enumerate_disks(table, GridSpec()))
        inst = build_instance(catalog)
        assert inst.n_looks == catalog.n_disks

    def test_l_inf_exceeds_capacity_plus_max_leftward(self):
        table, inst = small_instance(5, seed=2)
        assert inst.l_inf == table.cfg.n_intlv + int(table.al.max()) + 1


class TestChecker:
    def test_empty_schedule_over_zero_tasks(self, cfg, prfs):
        table = build_availability_table([], prfs, cfg)
        inst = build_instance(table, copies=1)
        empty = Schedule(looks=[], assignments=[])
        assert check_feasible(empty, inst) == []
        assert empty.objective() == 0.0

    def test_two_tasks_one_slot_is_c3(self):
        table, inst = small_instance(2, seed=3)
        rows = [(1, 1, 1), (2, 1, 1)]
        p = table.prf_sets[0][0]
        v = check_feasible(manual_schedule(inst, rows, p), inst)
        assert any(x.constraint == "C3" for x in v)

    def test_slot_gap_is_c4(self):
        table, inst, p = shared_prf_instance(2, start_seed=4)
        rows = [(1, 1, 1), (2, 1, 3)]
        v = check_feasible(manual_schedule(inst, rows, p), inst)
        assert any(x.constraint == "C4" for x in v)

    def test_missing_and_duplicate_tasks_are_c2(self):
        table, inst = small_instance(3, seed=5)
        p = table.prf_sets[0][0]
        rows = [(1, 1, 1), (1, 2, 1)]
        v = check_feasible(manual_schedule(inst, rows, p), inst)
        kinds = {x.constraint for x in v}
        assert "C2" in kinds

    def test_unavailable_prf_is_c5(self, lab_cfg, lab_prf):
        from pulseplan import TrackTask

        blind = PrfConfig(f_r=10000.0, c_r_plus=2000.0, c_r_minus=500.0,
                          c_f_plus=2000.0, c_f_minus=2000.0)
        t = TrackTask(id=1, range_m=30000.0, sigma_r=100.0, velocity=-90.0,
                      sigma_f=10.0)
        table = build_availability_table([t], [lab_prf, blind], lab_cfg)
        inst = build_instance(table)
        bad_p = 0 if not table.av[0, 0] else 1
        if table.av[0, bad_p]:
            pytest.skip("both PRFs available for this draw")
        sched = manual_schedule(inst, [(1, 1, 1)], bad_p)
        v = check_feasible(sched, inst)
        assert any(x.constraint == "C5" for x in v)

    def test_slot_beyond_rightward_is_c6(self):
        for seed in range(20):
            table, inst = small_instance(1, seed=seed)
            p = table.prf_sets[0][0]
            ar = int(table.ar[0, p])
            if ar >= table.cfg.n_intlv:
                continue
            rows = [(1, 1, ar + 1)]
            v = check_feasible(manual_schedule(inst, rows, p), inst)
            assert any(x.constraint in ("C4", "C6") for x in v)
            assert any(x.constraint == "C6" for x in v)
            return
        pytest.skip("no draw with clamped headroom")

    def test_echo_overlap_is_c7(self, lab_prf):
        from pulseplan import TrackTask

        cfg = RadarConfig(c=3e8, n_intlv=4, pulses_per_look=64)
        tight = TrackTask(id=1, range_m=2300.0, sigma_r=100.0, velocity=-90.0,
                          sigma_f=10.0)
        roomy = TrackTask(id=2, range_m=8000.0, sigma_r=100.0, velocity=-90.0,
                          sigma_f=10.0)
        table = build_availability_table([tight, roomy], [lab_prf], cfg)
        assert int(table.al[0, 0]) == 0 and int(table.ar[1, 0]) == 2
        inst = build_instance(table)
        # two tasks in the look but the slot-1 task tolerates none behind it
        rows = [(1, 1, 1), (2, 1, 2)]
        v = check_feasible(manual_schedule(inst, rows, 0), inst)
        assert [x.constraint for x in v] == ["C7"]

    def test_c7_agrees_with_timeline_reconstruction(self, cfg, prfs):
        rng = random.Random(6)
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=30, seed=6), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        inst = build_instance(table)
        by_id = {t.id: t for t in tasks}
        agree = 0
        for trial in range(400):
            p = rng.randrange(len(prfs))
            rows_p = [i for i in table.task_sets[p]]
            if len(rows_p) < 2:
                continue
            m = rng.randrange(2, min(len(rows_p), table.cfg.n_intlv) + 1)
            chosen = rng.sample(rows_p, m)
            slots = list(range(1, m + 1))
            rng.shuffle(slots)
            rows = [(table.tasks[i].id, 1, k) for i, k in zip(chosen, slots)]
            sched = manual_schedule(inst, rows, p)
            v = check_feasible(sched, inst)
            slot_ok = not any(x.constraint in ("C6", "C7") for x in v)
            placements = {
                k: (by_id[tid].range_m, by_id[tid].sigma_r,
                    by_id[tid].velocity, by_id[tid].sigma_f)
                for tid, _, k in rows
            }
            want = timeline_feasible(placements, prfs[p], cfg)
            assert slot_ok == want, (trial, rows, slot_ok, want)
            agree += 1
        assert agree > 200


class TestObjective:
    def test_single_look(self):
        table, inst, p = shared_prf_instance(2, start_seed=7)
        rows = [(1, 1, 1), (2, 1, 2)]
        assert manual_schedule(inst, rows, p).objective() == pytest.approx(
            table.dwell(p)
        )

    def test_two_looks_add(self):
        table, inst, p = shared_prf_instance(2, start_seed=8)
        rows = [(1, 1, 1), (2, 2, 1)]
        assert manual_schedule(inst, rows, p).objective() == pytest.approx(
            2 * table.dwell(p)
        )

    def test_merging_looks_strictly_cheaper(self):
        table, inst, p = shared_prf_instance(2, start_seed=9)
        split = manual_schedule(inst, [(1, 1, 1), (2, 2, 1)], p).objective()
        merged = manual_schedule(inst, [(1, 1, 1), (2, 1, 2)], p).objective()
        assert merged < split


class TestExactSolver:
    def test_single_task_single_prf(self, lab_cfg, lab_prf):
        from pulseplan import TrackTask

        t = TrackTask(id=1, range_m=30000.0, sigma_r=100.0, velocity=-90.0,
                      sigma_f=10.0)
        cfg = RadarConfig(c=3e8, n_intlv=4, pulses_per_look=64)
        table = build_availability_table([t], [lab_prf], cfg)
        inst = build_instance(table)
        sched = solve_exact(inst)
        assert sched is not None
        assert check_feasible(sched, inst) == []
        assert exact_objective(sched, inst) == Fraction(64, 12500)

    def test_two_interleavable_tasks_share_one_look(self):
        for seed in range(30):
            table, inst = small_instance(2, seed=seed)
            shared = [p for p in range(table.n_prfs)
                      if table.av[0, p] and table.av[1, p]]
            good = [p for p in shared
                    if min(table.ar[0, p], table.ar[1, p]) >= 2
                    and min(table.al[0, p], table.al[1, p]) >= 1]
            if not good:
                continue
            sched = solve_exact(inst)
            assert sched.n_looks_used() == 1
            return
        pytest.skip("no mutually interleavable draw")

    def test_matches_unpruned_enumeration(self):
        for seed in range(12):
            table, inst = small_instance(6, seed=100 + seed)
            got = solve_exact(inst)
            want = exhaustive_optimum(inst)
            assert got is not None and want is not None
            assert exact_objective(got, inst) == want, seed
            assert check_feasible(got, inst) == []

    def test_warm_start_preserves_optimality(self):
        for seed in range(6):
            table, inst = small_instance(6, seed=200 + seed)
            warm = hied(table, HeuristicConfig(seed=seed))
            got = solve_exact(inst, warm=warm)
            want = exhaustive_optimum(inst)
            assert exact_objective(got, inst) == want

    def test_desk_limits_enforced(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=11, seed=0), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        with pytest.raises(ResourceLimitError):
            solve_exact(build_instance(table))

    def test_node_budget_enforced(self):
        table, inst = small_instance(8, seed=11)
        with pytest.raises(ResourceLimitError):
            solve_exact(inst, node_budget=5)


class TestLpExport:
    def test_tiny_instance_rows(self):
        table, inst = small_instance(1, seed=12, prfs=default_prf_set(count=2))
        text = export_lp(inst)
        model = parse_lp(text)
        f_vars = [v for v in model.binaries if v.startswith("f_")]
        assert len(f_vars) == inst.n_looks
        c2 = [c for c in model.constraints if c[0] == "c2_1"]
        assert len(c2) == 1 and c2[0][2] == "=" and c2[0][3] == "1"

    def test_round_trip_byte_identical(self):
        table, inst = small_instance(3, seed=13, prfs=default_prf_set(count=2))
        for sscfl in (False, True):
            text = export_lp(inst, sscfl=sscfl)
            assert emit_lp(parse_lp(text)) == text

    def test_sscfl_drops_slot_dimension(self):
        table, inst = small_instance(2, seed=14, prfs=default_prf_set(count=2))
        text = export_lp(inst, sscfl=True)
        model = parse_lp(text)
        h_vars = [v for v in model.binaries if v.startswith("h_")]
        assert all(v.count("_") == 2 for v in h_vars)
        names = {c[0].split("_")[0] for c in model.constraints}
        assert names == {"c1", "c2", "c5"}

    def test_big_m_value_emitted(self):
        table, inst = small_instance(2, seed=15, prfs=default_prf_set(count=2))
        text = export_lp(inst)
        assert f"l_inf={inst.l_inf}" in text
        assert any(
            line.startswith(" c7_") and line.rstrip().endswith(f"<= {inst.l_inf}")
            for line in text.splitlines()
        )
