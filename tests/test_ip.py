import hashlib
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pulseplan import (
    DiskHeuristicConfig,
    GridSpec,
    HeuristicConfig,
    InternalInvariantError,
    PrfConfig,
    RadarConfig,
    ResourceLimitError,
    Schedule,
    ScheduledLook,
    TaskColumns,
    build_availability_table,
    build_instance,
    check_feasible,
    dedup_disks,
    default_prf_set,
    enumerate_disks,
    exact_objective,
    export_lp,
    gen_scenario,
    hied,
    hisd,
    solve_exact,
)
from pulseplan.io import schedule_to_text
from pulseplan.ip import LP_MAX_TERMS, Looks, make_look, schedule_of
from pulseplan.radar import _TASK_FLOATS
from pulseplan.scenario import ScenarioSpec
from oracles import exhaustive_optimum, timeline_feasible

SMALL_CFG = RadarConfig(n_intlv=4, pulses_per_look=64)
SMALL_PRFS = default_prf_set(count=3)
# the dwell (s) of each SMALL_PRFS PRF under SMALL_CFG
D3 = (0.006736842105263158, 0.004923076923076923, 0.0038787878787878787)


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
        assert len(inst.looks) == 6       # task count copies per PRF

    def test_sdbf_look_count(self, cfg, prfs):
        from pulseplan import GridSpec, dedup_disks, enumerate_disks

        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=4, seed=1), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        catalog = dedup_disks(enumerate_disks(table, GridSpec()))
        inst = build_instance(catalog)
        assert len(inst.looks) == catalog.n_disks

    @pytest.mark.parametrize("copies, want", [
        (1, [(1, 0, D3[0], None), (2, 1, D3[1], None), (3, 2, D3[2], None)]),
        (2, [(1, 0, D3[0], None), (2, 0, D3[0], None), (3, 1, D3[1], None),
             (4, 1, D3[1], None), (5, 2, D3[2], None), (6, 2, D3[2], None)]),
        (None, [(j, (j - 1) // 6, D3[(j - 1) // 6], None) for j in range(1, 19)]),
    ])
    def test_edbf_looks_pinned(self, copies, want):
        # (index, prf_index, dwell, disk_id) of every candidate look:
        # base-major, ``copies`` per base, indexed from 1
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=6, seed=1), SMALL_CFG, SMALL_PRFS)
        inst = build_instance(build_availability_table(tasks, SMALL_PRFS, SMALL_CFG),
                              copies=copies)
        assert [(lk.index, lk.prf_index, lk.dwell, lk.disk_id)
                for lk in inst.looks] == want

    def test_sdbf_looks_pinned(self, cfg, prfs):
        from pulseplan import dedup_disks

        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=4, seed=1), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        inst = build_instance(dedup_disks(enumerate_disks(table, GridSpec())))
        d0, d2, d3 = 0.006736842105263158, 0.005565217391304348, 0.00512
        d4, d5, d6 = 0.004740740740740741, 0.004413793103448276, 0.004129032258064516
        assert [(lk.index, lk.prf_index, lk.dwell, lk.disk_id) for lk in inst.looks] == [
            (1, 0, d0, 0), (2, 0, d0, 1), (3, 0, d0, 2), (4, 2, d2, 3),
            (5, 3, d3, 4), (6, 3, d3, 5), (7, 4, d4, 6), (8, 4, d4, 7),
            (9, 5, d5, 8), (10, 6, d6, 9), (11, 6, d6, 10),
        ]

    @pytest.mark.parametrize("copies", [0, -3])
    def test_copies_below_one_rejected(self, cfg, prfs, copies):
        from pulseplan import GridSpec, enumerate_disks

        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=4, seed=1), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        for source in (table, enumerate_disks(table, GridSpec())):
            with pytest.raises(ValueError, match="copies must be at least 1"):
                build_instance(source, copies=copies)

    def test_build_makes_no_look(self, cfg, prfs):
        # the candidate looks are built on the first read of ``looks``
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=1000, seed=1), cfg, prfs)
        catalog = enumerate_disks(build_availability_table(tasks, prfs, cfg), GridSpec())
        assert catalog.n_disks == 38821
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            inst = build_instance(catalog, copies=1)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20, kept
        assert len(inst.looks) == catalog.n_disks

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
        physics = (tasks.range_m, tasks.sigma_r, tasks.velocity, tasks.sigma_f)
        agree = 0
        for trial in range(400):
            p = rng.randrange(len(prfs))
            rows_p = np.flatnonzero(table.av[:, p]).tolist()
            if len(rows_p) < 2:
                continue
            m = rng.randrange(2, min(len(rows_p), table.cfg.n_intlv) + 1)
            chosen = rng.sample(rows_p, m)
            slots = list(range(1, m + 1))
            rng.shuffle(slots)
            rows = [(tasks.ids[i], 1, k) for i, k in zip(chosen, slots)]
            sched = manual_schedule(inst, rows, p)
            v = check_feasible(sched, inst)
            slot_ok = not any(x.constraint in ("C6", "C7") for x in v)
            placements = {k: tuple(float(col[i]) for col in physics)
                          for i, k in zip(chosen, slots)}
            want = timeline_feasible(placements, prfs[p], cfg)
            assert slot_ok == want, (trial, rows, slot_ok, want)
            agree += 1
        assert agree > 200


def one_look_prf_swap(sched, table):
    """(position, PRF) of a look whose tasks all fit another PRF's A_v, A_r
    and A_l in their slots, so only the look's own fields tell it apart."""
    by_look = {}
    for tid, j, k in sched.assignments:
        by_look.setdefault(j, []).append((tid, k))
    for pos, lk in enumerate(sched.looks):
        rows = by_look[lk.index]
        m = max(k for _, k in rows)
        for q in range(table.n_prfs):
            if q != lk.prf_index and all(
                table.av[r, q] and k <= table.ar[r, q] and m <= k + table.al[r, q]
                for r, k in ((table.row_of(t), k) for t, k in rows)
            ):
                return pos, q
    raise AssertionError("no look fits another PRF")


def corrupt(case, cfg, prfs):
    """A feasible 40-task schedule (seed 1) with some of its looks edited
    so that they are no candidate look of the instance; returns the
    schedule, the instance and the number of edited looks."""
    _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=40, seed=1), cfg, prfs)
    table = build_availability_table(tasks, prfs, cfg)
    if case in ("disk-past-end", "disk-of-another-prf"):
        catalog = enumerate_disks(table, GridSpec())
        sched, inst = hisd(catalog, DiskHeuristicConfig()), build_instance(catalog, copies=1)
    else:
        sched, inst = hied(table, HeuristicConfig()), build_instance(table, copies=1)
    assert check_feasible(sched, inst) == []
    looks = sched.looks
    first = looks[0]
    if case == "prf-wrapped":
        looks = [replace(lk, prf_index=lk.prf_index - table.n_prfs) for lk in looks]
        n_bad = len(looks)
    elif case == "prf-past-end":
        looks = [replace(first, prf_index=99), *looks[1:]]
        n_bad = 1
    elif case == "disk-past-end":
        looks = [replace(first, disk_id=inst.catalog.n_disks + 5), *looks[1:]]
        n_bad = 1
    elif case == "disk-of-another-prf":
        pos, q = one_look_prf_swap(sched, table)
        looks = list(looks)
        looks[pos] = replace(looks[pos], prf_index=q, f_r=table.prfs[q].f_r,
                             dwell=table.dwell(q))
        n_bad = 1
    elif case == "dwell-edited":
        looks = [replace(first, dwell=first.dwell / 2), *looks[1:]]
        n_bad = 1
    else:
        assert case == "duplicate-index"
        looks = [*looks, first]
        n_bad = 1
    return replace(sched, looks=looks), inst, n_bad


class TestLookTable:
    @pytest.mark.parametrize("case", [
        "prf-wrapped", "prf-past-end", "disk-past-end", "disk-of-another-prf",
        "dwell-edited", "duplicate-index",
    ])
    def test_foreign_look_is_one_c8(self, cfg, prfs, case):
        sched, inst, n_bad = corrupt(case, cfg, prfs)
        v = check_feasible(sched, inst)
        assert [x.constraint for x in v] == ["C8"] * n_bad, v


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


LOOKS = [ScheduledLook(5, 0, 1.0, 0.5), ScheduledLook(2, 1, 2.0, 0.25, 3, (0.5, -0.5)),
         ScheduledLook(9, 0, 1.0, 0.5)]


class TestLooks:
    def test_reads_as_its_looks(self):
        looks = Looks.of(LOOKS)
        assert len(looks) == 3 and list(looks) == LOOKS
        assert looks == LOOKS and looks == tuple(LOOKS) and LOOKS == looks
        assert looks != LOOKS[:2] and looks != LOOKS[::-1] and looks != "looks"
        assert [looks[i] for i in range(-3, 3)] == LOOKS + LOOKS
        with pytest.raises(IndexError):
            looks[3]
        for cut in (slice(1, None), slice(None, -1), slice(None, None, -1), slice(2, 0),
                    slice(-2, None, 2)):
            assert isinstance(looks[cut], Looks) and looks[cut] == LOOKS[cut]
        assert looks[1:][-1] == LOOKS[2] and looks[:0] == []

    def test_equality_between_looks(self):
        # the same looks through shared keys
        shared = Looks([5, 2, 9], ["p", "d", "p"], {"p": (0, 1.0, 0.5, None, None),
                                                    "d": (1, 2.0, 0.25, 3, (0.5, -0.5))})
        assert shared == Looks.of(LOOKS) and Looks.of(LOOKS) == shared
        assert shared != Looks.of(LOOKS[:2]) and shared[:2] == Looks.of(LOOKS[:2])
        assert repr(shared) == repr(Looks.of(LOOKS)) == f"Looks({LOOKS!r})"
        assert Schedule(looks=LOOKS, assignments=[]).looks == shared
        # looks compare as ScheduledLook does: 0.0 == -0.0, though each
        # keeps its own key and repr
        zero, negative = (Looks.of([ScheduledLook(1, 0, f_r, 0.5)]) for f_r in (0.0, -0.0))
        assert zero == negative and repr(zero) != repr(negative)
        both = Looks.of([*zero, *negative])
        assert len(both.fields) == 2 and [repr(lk.f_r) for lk in both] == ["0.0", "-0.0"]

    def test_columns_differ_in_length(self):
        with pytest.raises(ValueError, match="look columns differ in length"):
            Looks([1, 2], [0], {0: (0, 1.0, 0.5, None, None)})

    def test_objective_sums_the_used_looks_in_look_order(self):
        # look 2 carries no assignment; look 5 is declared twice and both
        # copies are summed, as a list of looks summed them
        looks = LOOKS + [ScheduledLook(5, 1, 3.0, 0.125)]
        sched = Schedule(looks=looks, assignments=[(1, 5, 1), (2, 9, 1)])
        assert sched.objective() == 0.5 + 0.5 + 0.125
        assert sched.n_looks_used() == 2


class TestScheduleOf:
    def test_looks_are_keyed_by_base(self):
        table, _ = small_instance(5, seed=1)
        p = table.prf_sets[0][0]
        sched = schedule_of(table, [(p, [0, 1]), (p, [2]), (p, [3, 4])], {})
        assert sched.looks.index == [1, 2, 3] and sched.looks.key == [p, p, p]
        assert sched.looks == [make_look(j, table, p) for j in (1, 2, 3)]

    def test_looks_must_place_every_schedulable_row_once(self):
        table, _ = small_instance(5, seed=1)
        p = table.prf_sets[0][0]
        for looks in ([], [(p, [0])], [(p, [0])] * 6):
            placed = sum(len(rows) for _, rows in looks)
            with pytest.raises(InternalInvariantError,
                               match=f"the looks place {placed} rows of 5 schedulable"):
                schedule_of(table, looks, {})


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

    def test_desk_limits_enforced(self, cfg, prfs):
        _, _, tasks = gen_scenario(ScenarioSpec(n_tasks=11, seed=0), cfg, prfs)
        table = build_availability_table(tasks, prfs, cfg)
        with pytest.raises(ResourceLimitError):
            solve_exact(build_instance(table))

    def test_node_budget_enforced(self):
        table, inst = small_instance(8, seed=11)
        with pytest.raises(ResourceLimitError):
            solve_exact(inst, node_budget=5)

    def test_search_pinned(self):
        # sha256 over the exact schedules of 40 seeded scenarios (4-10
        # tasks, n_intlv 3-4, 3 PRFs), each solved in element mode and over
        # the deduplicated disk catalog, with one look copy per task as
        # oracle-compare builds them.  The schedule text carries
        # ``meta nodes=``, so this pins the search tree as well as the
        # optimum each search returns.
        digest = hashlib.sha256()
        for seed in range(40):
            n_tasks = 4 + seed % 7
            cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=n_tasks, seed=seed),
                                            RadarConfig(n_intlv=3 + seed % 2),
                                            default_prf_set(count=3))
            table = build_availability_table(tasks, prfs, cfg)
            for source in (table, dedup_disks(enumerate_disks(table, GridSpec()))):
                sched = solve_exact(build_instance(source, copies=n_tasks))
                digest.update(schedule_to_text(sched).encode())
        assert digest.hexdigest() == (
            "4e97569ba847a1fc3c8c0ceb92a527a65f604fdbd3afcb7cf51520669667c493")


class TestLpExport:
    def test_tiny_instance_rows(self):
        table, inst = small_instance(1, seed=12, prfs=default_prf_set(count=2))
        lines = export_lp(inst).splitlines()
        binaries = lines[lines.index("Binaries") + 1].split()
        assert len([v for v in binaries if v.startswith("f_")]) == len(inst.looks)
        c2 = [line for line in lines if line.startswith(" c2_1: ")]
        assert len(c2) == 1 and c2[0].endswith(" = 1")

    def test_sscfl_drops_slot_dimension(self):
        table, inst = small_instance(2, seed=14, prfs=default_prf_set(count=2))
        lines = export_lp(inst, sscfl=True).splitlines()
        binaries = lines[lines.index("Binaries") + 1].split()
        assert all(v.count("_") == 2 for v in binaries if v.startswith("h_"))
        rows = lines[lines.index("Subject To") + 1:lines.index("Binaries")]
        assert {row.split(":")[0].split("_")[0].strip() for row in rows} == {"c1", "c2", "c5"}

    @pytest.mark.parametrize("sscfl", [False, True])
    @pytest.mark.parametrize("n_intlv", [1, 4, 8])
    def test_size_limit_bounds_the_written_terms(self, n_intlv, sscfl):
        # the predicted count bounds the variable terms written, and a copy
        # count that takes it over the limit is refused before any
        # candidate look is built
        table, inst = small_instance(3, seed=16, cfg=RadarConfig(n_intlv=n_intlv))
        per_copy = len(inst.bases) * (table.n_tasks * (4 if sscfl else n_intlv * (n_intlv + 8))
                                      + 3)
        written = len(re.findall(r"\b[hf]_\d", export_lp(inst, sscfl=sscfl)))
        assert written <= per_copy * inst.copies
        over = replace(inst, copies=LP_MAX_TERMS // per_copy + 1)
        with pytest.raises(ResourceLimitError, match="over the limit of"):
            export_lp(over, sscfl=sscfl)
        assert "looks" not in vars(over)

    def test_big_m_value_emitted(self):
        table, inst = small_instance(2, seed=15, prfs=default_prf_set(count=2))
        text = export_lp(inst)
        assert f"l_inf={inst.l_inf}" in text
        assert any(
            line.startswith(" c7_") and line.rstrip().endswith(f"<= {inst.l_inf}")
            for line in text.splitlines()
        )


def _relabel(tid):
    # keeps the id order and leaves gaps, so no id is its row + 1
    return 10 ** 12 + 7 * tid


def _relabel_schedule(sched):
    return replace(sched, assignments=[(_relabel(t), j, k) for t, j, k in sched.assignments])


def _unlabel_lp(text):
    # the task id is the first number of every h_, c2_ and c5_ name
    return re.sub(r"\b(h|c2|c5)_(\d+)",
                  lambda m: f"{m[1]}_{(int(m[2]) - 10 ** 12) // 7}", text)


def relabelled_instances(mode):
    """The 6-task LP golden scenario (n_intlv 4, 3 PRFs) as an instance, and
    again with every id relabelled; in element mode the relabelled table
    also lists the tasks in reverse row order.  Subarray instances are
    built over the deduplicated disk catalog."""
    cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=6, seed=2),
                                    RadarConfig(n_intlv=4), default_prf_set(count=3))
    rows = slice(None, None, -1 if mode == "edbf" else 1)
    relabelled = TaskColumns([_relabel(t) for t in tasks.ids[rows]],
                             *(getattr(tasks, name)[rows] for name in _TASK_FLOATS))
    tables = [build_availability_table(t, prfs, cfg) for t in (tasks, relabelled)]
    if mode == "sdbf":
        return [build_instance(dedup_disks(enumerate_disks(t, GridSpec()))) for t in tables]
    return [build_instance(t) for t in tables]


def corrupt_exact(sched, inst):
    """The schedule with its first assignment moved to the last slot, the
    first look's first task also placed in the last look, and the last look
    moved to another base of a different PRF."""
    n = inst.n_intlv
    (t0, j0, _), *rest = sched.assignments
    last = sched.looks[-1]
    p, d = next((p, d) for p, d in inst.bases if p != last.prf_index)
    looks = [*sched.looks[:-1], make_look(last.index, inst.table, p, inst.catalog, d)]
    last_slots = [k for _, j, k in sched.assignments if j == last.index]
    return replace(sched, looks=looks, assignments=[
        (t0, j0, n), *rest, (t0, last.index, max(last_slots) + 1)])


class TestRelabelledIds:
    # a table row taken for a task id, or the other way round, anywhere in
    # the checker, the LP writer or the exact solver shows as a difference
    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    def test_same_search(self, mode):
        plain, relabelled = relabelled_instances(mode)
        if mode == "edbf":
            assert relabelled.table.tasks.ids[0] == _relabel(6)
        want, got = solve_exact(plain), solve_exact(relabelled)
        assert exact_objective(got, relabelled) == exact_objective(want, plain)
        assert got.meta["nodes"] == want.meta["nodes"]
        assert schedule_to_text(got) == schedule_to_text(_relabel_schedule(want))

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    @pytest.mark.parametrize("sscfl", [False, True])
    def test_same_lp(self, mode, sscfl):
        plain, relabelled = relabelled_instances(mode)
        text = export_lp(relabelled, sscfl=sscfl)
        assert str(_relabel(1)) in text
        assert _unlabel_lp(text) == export_lp(plain, sscfl=sscfl)

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    def test_same_violations(self, mode):
        plain, relabelled = relabelled_instances(mode)
        bad = corrupt_exact(solve_exact(plain), plain)
        want = check_feasible(bad, plain)
        assert {"C2", "C4"} <= {v.constraint for v in want}
        assert {"C5", "C6", "C7"} & {v.constraint for v in want}
        got = check_feasible(_relabel_schedule(bad), relabelled)
        assert got == [replace(v, task=None if v.task is None else _relabel(v.task))
                       for v in want]
