"""Subarray-level scheduler: the disk look source of the shared look loop.

Looks are tied to re-steering disks from the catalog.  ``SdbfRun`` plugs
into ``edbf.run_looks``, the loop both schedulers share: each round it
selects a disk by cardinality (greedy, reverse greedy) or weighted
cardinality and builds a selection backend over the disk's rows that the
run's task store still holds live, sorted by the store's priority rank at
the disk's PRF; the loop packs them with the backward procedure, and the
source then removes each scheduled task from every disk that encloses it,
in one ``DiskSelector.consume`` call per task.  The selector is the one
place that computes a disk rule, the WGD weights included.  Duplicate and
subset disks stay in play; consuming tasks empties them out naturally.  Every structure here indexes tasks by table row; task
ids are looked up only for ``dump_structures``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from sortedcontainers import SortedList

from .errors import InternalInvariantError
from .edbf import TASK_RULES, derive_rngs, run_looks, task_store
from .geometry import DiskCatalog
from .ip import Schedule, make_look
from .structures import BACKEND_KINDS, BucketList, OpCounters, build_backend

DISK_RULES = ("GD", "RGD", "WGD")
SUB_RULES = ("R", "SD")
DUMP_DISKS = 20                # disks listed by ``SdbfRun.dump_structures``


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
    """The disk rules: orders live disks by the main index with the
    configured tie-break, and consumes each placed task's memberships.
    Disks are the catalog's dense ids, and every per-disk state is a list
    indexed by them, read from the catalog's columns.

    GD and RGD with the random sub-rule ride on the integer bucket list
    (constant-time selection).  The dwell sub-index and the weighted rule
    need an ordered structure: one SortedList of (primary, dwell, disk id)
    entries, whose primary is the weight (WGD), the live member count (GD)
    or minus it (RGD), so the selection takes the largest primary, then the
    smallest dwell and id, at a logarithm of the live disk count.  A WGD
    weight is built here from the catalog it is given: each task's share
    1/|available disks of task|, summed left to right over the disk's tasks.
    A consumed task takes its share off each of its disks; an entry leaves
    when its member count reaches 0, never by float weight.  Only what the
    rules read is built: dwell times, member counts and primaries for the
    ordered list (the bucket list holds the other greedy counts).
    """

    def __init__(self, main_rule, sub_rule, catalog: DiskCatalog,
                 counters: OpCounters):
        self.main_rule = main_rule
        self.sub_rule = sub_rule
        self.counters = counters
        self.dwell = self.count = self.primary = None
        self.buckets = self.ordered = None
        offsets = catalog.offsets
        if sub_rule == "R" and main_rule != "WGD":
            self.buckets = BucketList(np.diff(offsets), counters=counters)
            return
        table = catalog.table
        dwells = [table.dwell(p) for p in range(table.n_prfs)]
        self.dwell = [dwells[p] for p in catalog.prf_index]
        self.count = counts = np.diff(offsets).tolist()
        if main_rule == "WGD":
            share = [1.0 / len(ds) if ds else 0.0 for ds in catalog.task_disks]
            members = catalog.members
            self.primary = [sum(map(share.__getitem__, members[a:b]))
                            for a, b in zip(offsets, offsets[1:])]
        else:
            sign = 1 if main_rule == "GD" else -1
            self.primary = [sign * c for c in counts]
        # what one consumed member takes off the primary; WGD takes the
        # task's share instead
        self._drop = {"GD": 1, "RGD": -1}.get(main_rule)
        self.ordered = SortedList(
            (self.primary[d], self.dwell[d], d) for d, c in enumerate(counts) if c)

    def select(self, rng: random.Random):
        """One selection, counted once in ``selector_ops`` (by the bucket
        list for GD and RGD with the random sub-rule)."""
        if self.buckets is not None:
            extreme = "max" if self.main_rule == "GD" else "min"
            return self.buckets.select(extreme, tie="random", rng=rng)
        self.counters.selector_ops += 1
        if not self.ordered:
            return None
        top = self.ordered[-1][0]
        lo = self.ordered.bisect_left((top,))
        if self.sub_rule == "SD":
            return self.ordered[lo][2]
        return self.ordered[rng.randrange(lo, len(self.ordered))][2]

    def consume(self, disks) -> None:
        """A placed task leaves each disk of ``disks``, its available-disk
        ids, in turn.  All ``len(disks)`` ``bucket_ops`` are counted up
        front, as ``BucketList.decrement`` does."""
        if self.buckets is not None:
            self.buckets.decrement(disks)
            return
        self.counters.bucket_ops += len(disks)
        drop = 1.0 / len(disks) if self._drop is None else self._drop
        count, primary, dwell, ordered = self.count, self.primary, self.dwell, self.ordered
        for d in disks:
            c = count[d]
            if c == 0:
                raise InternalInvariantError("disk member count went negative")
            count[d] = c - 1
            ordered.remove((primary[d], dwell[d], d))
            if c > 1:
                primary[d] -= drop
                ordered.add((primary[d], dwell[d], d))

    def dump(self) -> str:
        """Indented snapshot of the selection state (debug aid)."""
        if self.buckets is not None:
            return self.buckets.dump()
        if self.main_rule != "WGD":
            # GD/RGD with SD: the live counts, grouped as a bucket list
            return BucketList(self.count).dump()
        parts = ["weighted disk order (top of list selected)"]
        for w, dwell, d in self.ordered[-DUMP_DISKS:]:
            parts.append(f"  disk {d}: weight={w:.4f} dwell={dwell:.6f}")
        return "\n".join(parts)


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
        self.store = task_store(self.table, cfg.task_rule, self.rngs["task"])
        self.selector = DiskSelector(cfg.disk_rule, cfg.sub_rule, catalog, self.counters)

    def _live_rows(self, d):
        live = self.store.live
        return [row for row in self.catalog.disk_tasks(d) if live[row]]

    def _disk_backend(self, d):
        """Selection structure over disk ``d``'s live rows.

        Built when the disk is selected rather than up front, from the
        store's shared columns, over the live rows sorted by the store's
        rank at the disk's PRF, the order a backend takes; the work is
        proportional to the disk's task list, so the total across a run
        stays within the per-look structure costs the schedulers are
        budgeted for.
        """
        p = self.catalog.prf_index[d]
        order = sorted(self._live_rows(d), key=self.store.rank[p].__getitem__)
        return build_backend(self.cfg.backend, self.store, p, order, self.counters)

    def dump_structures(self) -> str:
        """Indented snapshot of the disk selection state (debug aid)."""
        catalog = self.catalog
        parts = [self.selector.dump(),
                 f"catalog: {catalog.n_disks} disks, first {DUMP_DISKS}:"]
        for d in range(min(DUMP_DISKS, catalog.n_disks)):
            live = [self.store.ids[row] for row in self._live_rows(d)]
            parts.append(
                f"  disk {d} prf {catalog.prf_index[d]} "
                f"center {catalog.center(d)}: live {live}"
            )
        return "\n".join(parts)

    def next_look(self, j: int):
        d = self.selector.select(self.rngs["disk"])
        if d is None:
            raise InternalInvariantError("disk selection returned an empty disk")
        look = make_look(j, self.table, self.catalog.prf_index[d], self.catalog, d)
        return self._disk_backend(d), look

    def consume(self, rows) -> None:
        """The store and the look's backend dropped each row when it was
        placed; only the disk selector is left, which takes each row in
        turn (a WGD share is per task)."""
        task_disks, consume = self.catalog.task_disks, self.selector.consume
        for row in rows:
            consume(task_disks[row])

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
