"""Element-level interleaving: pack tracking pulses into as few looks as
possible when receive beams can re-steer anywhere.

Fifty targets, eight PRFs.  Each round the scheduler picks a PRF (greedy on
the number of unscheduled trackable tasks, or its reverse, or random) and
fills the look's slots from the right, shifting left when a slot cannot be
served.  Every schedule is then re-validated against the underlying integer
program's constraints.
"""

from pulseplan import (
    HeuristicConfig,
    ScenarioSpec,
    build_availability_table,
    build_instance,
    check_feasible,
    gen_scenario,
    hied,
)

cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=50, seed=42))
table = build_availability_table(tasks, prfs, cfg)
inst = build_instance(table, copies=1)

print(f"{len(tasks)} targets, {len(prfs)} PRFs, capacity "
      f"{cfg.n_intlv} tasks per look\n")
print(f"{'prf rule':>8} {'task rule':>9} {'looks':>6} {'objective [ms]':>15} "
      f"{'feasible':>9}")
for prf_rule in ("G", "RG", "R"):
    for task_rule in ("SAR", "LAR", "SAP"):
        sched = hied(table, HeuristicConfig(prf_rule=prf_rule,
                                            task_rule=task_rule, seed=7))
        ok = not check_feasible(sched, inst)
        print(f"{prf_rule:>8} {task_rule:>9} {sched.n_looks_used():>6} "
              f"{sched.objective() * 1e3:>15.3f} {str(ok):>9}")

sched = hied(table, HeuristicConfig())
print("\nfirst three looks of the greedy schedule:")
for lk in sched.looks[:3]:
    slots = ", ".join(f"slot {k}: task {t}" for t, j, k in sched.assignments
                      if j == lk.index)
    print(f"  look {lk.index} @ {lk.f_r/1e3:.1f} kHz "
          f"({lk.dwell*1e3:.2f} ms): {slots}")
