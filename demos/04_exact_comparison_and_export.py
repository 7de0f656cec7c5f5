"""How far from optimal are the heuristics?  On desk-scale instances the
branch-and-bound solver delivers a provably optimal schedule to compare
against, and the full integer program can be exported in LP format for any
external solver.
"""

from pulseplan import (
    HeuristicConfig,
    RadarConfig,
    ScenarioSpec,
    build_availability_table,
    build_instance,
    default_prf_set,
    exact_objective,
    export_lp,
    gen_scenario,
    hied,
    solve_exact,
)

cfg = RadarConfig(n_intlv=4, pulses_per_look=64)
prfs = default_prf_set(count=3)
cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=7, seed=5), cfg, prfs)
table = build_availability_table(tasks, prfs, cfg)
inst = build_instance(table)

exact = solve_exact(inst)
opt = exact_objective(exact, inst)
print(f"exact optimum: {float(opt) * 1e3:.3f} ms in "
      f"{exact.n_looks_used()} looks "
      f"({exact.meta['nodes']} search nodes)\n")

print(f"{'rules':>10} {'objective [ms]':>15} {'ratio':>7}")
for prf_rule in ("G", "RG"):
    for task_rule in ("SAR", "SLA", "SAP"):
        sched = hied(table, HeuristicConfig(prf_rule=prf_rule,
                                            task_rule=task_rule))
        obj = exact_objective(sched, inst)
        assert obj >= opt            # the oracle bound, on every instance
        print(f"{prf_rule + '+' + task_rule:>10} {float(obj) * 1e3:>15.3f} "
              f"{float(obj / opt):>7.3f}")

text = export_lp(inst)
print(f"\nfull LP export: {len(text.splitlines())} lines, "
      f"{sum(1 for v in text.split() if v.startswith('h_'))} assignment terms")
print("relaxation without slot structure (capacitated facility location):")
print("\n".join(export_lp(inst, sscfl=True).splitlines()[:6]))
