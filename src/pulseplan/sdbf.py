"""Subarray-level scheduler: the disk look source of the shared look loop.

Looks are tied to re-steering disks from the catalog.  ``SdbfRun`` plugs
into ``edbf.run_looks``, the loop both schedulers share: each round it
selects a disk by cardinality (greedy, reverse greedy) or weighted
cardinality and builds a selection backend over the disk's still-unscheduled
tasks; the loop packs them with the backward procedure, and the source then
removes each scheduled task from every disk that encloses it.  Duplicate and
subset disks stay in play; consuming tasks empties them out naturally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from sortedcontainers import SortedList

from .errors import InternalInvariantError
from .edbf import TASK_RULES, derive_rngs, random_priorities, run_looks, task_backend
from .geometry import DiskCatalog
from .ip import Schedule, ScheduledLook
from .structures import BACKEND_KINDS, BucketList, OpCounters

DISK_RULES = ("GD", "RGD", "WGD")
SUB_RULES = ("R", "SD")


@dataclass(frozen=True)
class DiskHeuristicConfig:
    """Disk main/sub rules plus the task rule, backend, and seed."""

    disk_rule: str = "GD"
    sub_rule: str = "R"
    task_rule: str = "SAR"
    backend: str = "rangetree"
    seed: int = 0

    def __post_init__(self):
        if self.disk_rule not in DISK_RULES:
            raise ValueError(f"disk_rule must be one of {DISK_RULES}")
        if self.sub_rule not in SUB_RULES:
            raise ValueError(f"sub_rule must be one of {SUB_RULES}")
        if self.task_rule not in TASK_RULES:
            raise ValueError(f"task_rule must be one of {TASK_RULES}")
        if self.backend not in BACKEND_KINDS:
            raise ValueError(f"backend must be one of {BACKEND_KINDS}")


class DiskSelector:
    """Orders live disks by the main index with the configured tie-break.

    Greedy rules ride on the integer bucket list (constant-time selection);
    the weighted rule and the dwell sub-index need ordered structures, so
    their selections cost a logarithm of the live disk count.  Weights are
    sums of frozen reciprocals 1/|available disks of task|, decremented as
    members are consumed; emptiness is tracked by exact counts, never by
    float weight.  Only what the rules read is built: dwell times for SD or
    WGD, weights and member counts for WGD (the bucket list holds the
    greedy rules' counts).
    """

    def __init__(self, main_rule, sub_rule, catalog: DiskCatalog,
                 counters: OpCounters):
        self.main_rule = main_rule
        self.sub_rule = sub_rule
        self.counters = counters
        disks = catalog.disks
        self.dwell = self.count = self.weight = None
        self.buckets = self.weighted = None
        if sub_rule == "SD" or main_rule == "WGD":
            table = catalog.table
            self.dwell = {d.id: table.dwell(d.prf_index) for d in disks}
        if main_rule in ("GD", "RGD"):
            order = (lambda d: self.dwell[d]) if sub_rule == "SD" else None
            self.buckets = BucketList({d.id: len(d.tasks) for d in disks},
                                      member_order=order, counters=counters)
        else:
            self.count = {d.id: len(d.tasks) for d in disks}
            self.weight = {d.id: d.weight for d in disks}
            self.weighted = SortedList(
                (self.weight[d.id], self.dwell[d.id], d.id) for d in disks
            )

    def select(self, rng: random.Random):
        """One selection, counted once in ``selector_ops`` (by the bucket
        list for the greedy rules)."""
        if self.buckets is not None:
            extreme = "max" if self.main_rule == "GD" else "min"
            tie = "ordered" if self.sub_rule == "SD" else "random"
            return self.buckets.select(extreme, skip_zero=True, tie=tie, rng=rng)
        self.counters.selector_ops += 1
        if not self.weighted:
            return None
        top = self.weighted[-1][0]
        lo = self.weighted.bisect_left((top,))
        if self.sub_rule == "SD":
            return self.weighted[lo][2]
        return self.weighted[rng.randrange(lo, len(self.weighted))][2]

    def remove_member(self, disk_id: int, reciprocal: float):
        """WGD: a task enclosed by this disk was scheduled somewhere.  The
        greedy rules consume through ``buckets.decrement`` instead."""
        self.count[disk_id] -= 1
        if self.count[disk_id] < 0:
            raise InternalInvariantError("disk member count went negative")
        entry = (self.weight[disk_id], self.dwell[disk_id], disk_id)
        self.weighted.remove(entry)
        if self.count[disk_id] > 0:
            self.weight[disk_id] -= reciprocal
            self.weighted.add((self.weight[disk_id], self.dwell[disk_id], disk_id))


class SdbfRun:
    """Subarray-level look source: disk selection plus per-look backends.

    Preprocessing (``__init__``) and the look loop (``run``) are split so
    benchmarks can time them apart.
    """

    def __init__(self, catalog: DiskCatalog, cfg: DiskHeuristicConfig,
                 counters: OpCounters | None = None):
        self.catalog = catalog
        self.table = catalog.table
        self.cfg = cfg
        self.counters = counters if counters is not None else OpCounters()
        self.rngs = derive_rngs(cfg.seed)
        self.rand_values = random_priorities(self.table, cfg.task_rule, self.rngs["task"])
        self.selector = DiskSelector(cfg.disk_rule, cfg.sub_rule, catalog, self.counters)
        self.reciprocal = None
        if self.selector.weighted is not None:
            self.reciprocal = {
                tid: 1.0 / len(disks) for tid, disks in catalog.task_disks.items() if disks
            }
        self.scheduled: set[int] = set()

    def _disk_backend(self, disk):
        """Selection structure over the disk's still-unscheduled tasks.

        Built when the disk is selected rather than up front; the work is
        proportional to the live task list, so the total across a run stays
        within the per-look structure costs the schedulers are budgeted for.
        """
        row_of = self.table.row_of
        rows = [row_of(tid) for tid in disk.tasks if tid not in self.scheduled]
        return task_backend(self.table, self.cfg, disk.prf_index, rows,
                            self.rand_values, self.counters)

    def dump_structures(self, max_disks: int = 20) -> str:
        """Indented snapshot of the disk selection state (debug aid)."""
        parts = []
        if self.selector.buckets is not None:
            parts.append(self.selector.buckets.dump())
        else:
            parts.append("weighted disk order (top of list selected)")
            for w, dwell, d in list(self.selector.weighted)[-max_disks:]:
                parts.append(f"  disk {d}: weight={w:.4f} dwell={dwell:.6f}")
        parts.append(f"catalog: {self.catalog.n_disks} disks, first {max_disks}:")
        for disk in self.catalog.disks[:max_disks]:
            live = [t for t in disk.tasks if t not in self.scheduled]
            parts.append(
                f"  disk {disk.id} prf {disk.prf_index} "
                f"center {disk.center(self.catalog.grid)}: live {live}"
            )
        return "\n".join(parts)

    def next_look(self, j: int):
        d = self.selector.select(self.rngs["disk"])
        if d is None:
            raise InternalInvariantError("disk selection returned an empty disk")
        disk = self.catalog.disks[d]
        p = disk.prf_index
        table = self.table
        look = ScheduledLook(index=j, prf_index=p, f_r=table.prfs[p].f_r,
                             dwell=table.dwell(p), disk_id=d,
                             disk_center=self.catalog.center(d))
        return self._disk_backend(disk), look

    def consume(self, tid: int) -> None:
        self.scheduled.add(tid)
        disks = self.catalog.task_disks[tid]
        if self.selector.buckets is not None:
            self.selector.buckets.decrement(disks)
            return
        recip = self.reciprocal[tid]
        for d in disks:
            self.selector.remove_member(d, recip)

    def run(self) -> Schedule:
        cfg = self.cfg
        return run_looks(self, self.table, self.counters, {
            "mode": "sdbf", "disk_rule": cfg.disk_rule, "sub_rule": cfg.sub_rule,
            "task_rule": cfg.task_rule, "seed": str(cfg.seed),
        })


def hisd(catalog: DiskCatalog, cfg: DiskHeuristicConfig,
         counters: OpCounters | None = None) -> Schedule:
    """Schedule every schedulable task through disk-constrained looks."""
    return SdbfRun(catalog, cfg, counters).run()
