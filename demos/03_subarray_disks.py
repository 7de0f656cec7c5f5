"""Subarray-level interleaving: receive beams only re-steer within a disk
on the normalized scanning plane, so tasks must also be neighbors to share
a look.

Targets are projected to direction cosines; every grid point within the
re-steering radius of a trackable target becomes a candidate disk.  The
scheduler then repeatedly selects a disk (by cardinality or scarcity
weight) and interleaves the tasks it encloses.
"""

from pulseplan import (
    DiskHeuristicConfig,
    GridSpec,
    ScenarioSpec,
    build_availability_table,
    build_instance,
    check_feasible,
    dedup_disks,
    enumerate_disks,
    gen_scenario,
    hisd,
)

cfg, prfs, tasks = gen_scenario(
    ScenarioSpec(n_tasks=40, seed=11, cluster_count=3, cluster_radius=0.12)
)
table = build_availability_table(tasks, prfs, cfg)
grid = GridSpec(spacing=0.02, disk_radius=0.05)
catalog = enumerate_disks(table, grid)

print(f"{len(tasks)} targets in 3 angular clusters; grid spacing "
      f"{grid.spacing}, disk radius {grid.disk_radius}")
print(f"catalog: {catalog.n_disks} disks, {catalog.q_d} memberships "
      f"({dedup_disks(catalog).n_disks} survive duplicate/subset reduction "
      f"for the exact-solver path)\n")

biggest = max(range(catalog.n_disks), key=lambda d: (len(catalog.disk_tasks(d)), -d))
print(f"densest disk: center {catalog.center(biggest)}, "
      f"PRF index {catalog.prf_index[biggest]}, "
      f"encloses tasks {sorted(tasks.ids[row] for row in catalog.disk_tasks(biggest))}\n")

inst = build_instance(catalog, copies=1)
print(f"{'disk rule':>9} {'sub rule':>8} {'looks':>6} {'objective [ms]':>15} "
      f"{'feasible':>9}")
for disk_rule in ("GD", "RGD", "WGD"):
    for sub_rule in ("R", "SD"):
        sched = hisd(catalog, DiskHeuristicConfig(disk_rule=disk_rule,
                                                  sub_rule=sub_rule, seed=3))
        ok = not check_feasible(sched, inst)
        print(f"{disk_rule:>9} {sub_rule:>8} {sched.n_looks_used():>6} "
              f"{sched.objective() * 1e3:>15.3f} {str(ok):>9}")

sched = hisd(catalog, DiskHeuristicConfig(disk_rule="GD", sub_rule="SD"))
lk = sched.looks[0]
print(f"\nfirst look steers to {lk.disk_center} at {lk.f_r/1e3:.1f} kHz and "
      f"covers {sum(1 for _, j, _ in sched.assignments if j == lk.index)} tasks")
