"""Subarray-level scheduler: the disk look source of the shared look loop.

Looks are tied to re-steering disks from the catalog.  ``SdbfRun`` plugs
into ``edbf.run_looks``, the loop both schedulers share: each round it
selects a disk by cardinality (greedy, reverse greedy) or weighted
cardinality and hands the loop the disk id, the look's base, with a
selection backend over the disk's rows that the run's task store still
holds live, sorted by the store's priority rank at the disk's PRF; the loop
packs them with the backward procedure (``ip.schedule_of`` builds the look
from the disk id), and the source then removes each scheduled task from
every disk that encloses it, in one ``DiskSelector.consume`` call per task.
The selector is the one place that computes a disk rule, the WGD weights
included, on the bucket list or on a heap refreshed at its top.  Duplicate
and subset disks stay in play; consuming tasks empties them out.  Every
structure here indexes tasks by table row; task ids are looked up only for
``dump_structures``.

The module ends with the one mode switch: ``MODES`` maps each mode to its
config, ``mode_source`` turns a mode into the bases it schedules on (the
table, or the disk catalog on a grid), ``look_source`` into its look source
(``EdbfRun`` or ``SdbfRun`` with its config), and ``exact_source`` gives
the bases the exact solver and the LP export take.  The CLI and the scaling
harness call these and branch on no mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import ClassVar

import numpy as np

from .errors import InternalInvariantError
from .edbf import (TASK_RULES, EdbfRun, HeuristicConfig, check_choices, derive_rngs,
                   run_looks, schedule_meta, task_store)
from .geometry import DiskCatalog, GridSpec, dedup_disks, enumerate_disks
from .ip import Schedule
from .radar import AvailabilityTable
from .structures import BucketList, OpCounters, build_backend

DISK_RULES = ("GD", "RGD", "WGD")
SUB_RULES = ("R", "SD")
DUMP_DISKS = 20                # disks listed by ``SdbfRun.dump_structures``


@dataclass(frozen=True)
class DiskHeuristicConfig:
    """Disk main/sub rules plus the task rule, backend, and seed."""

    MODE: ClassVar[str] = "sdbf"
    RULES: ClassVar[dict] = {"disk_rule": DISK_RULES, "sub_rule": SUB_RULES,
                             "task_rule": TASK_RULES}

    disk_rule: str = "GD"
    sub_rule: str = "R"
    task_rule: str = "SAR"
    backend: str = "rangetree"
    seed: int = 0

    __post_init__ = check_choices


class DiskSelector:
    """The disk rules: orders live disks by the main index with the
    configured tie-break, and consumes each placed task's memberships.
    Disks are the catalog's dense ids, and every per-disk state is a list
    indexed by them, read from the catalog's columns.

    GD and RGD with the random sub-rule ride on the integer bucket list
    (constant-time selection); the other rules keep one heap of (-primary,
    dwell, disk id), the primary being the weight (WGD), the member count
    (GD) or minus it (RGD), refreshed at its top only (Minoux's lazy greedy):
    a GD or WGD primary only falls, so its entry is re-keyed once on top; a
    rising RGD primary pushes a new entry; old and empty-disk entries leave
    at the top, and once the heap holds more than twice as many entries as
    there are live disks, it is rebuilt from each live disk's one entry
    that is not an older RGD entry.  Keys are unique, so a rebuild changes
    no selection.  A WGD weight sums each task's share 1/|available disks of
    task| over the disk's tasks, left to right; a consumed task takes its
    share off each of its disks.  Only what the rules read is built.
    """

    def __init__(self, main_rule, sub_rule, catalog: DiskCatalog,
                 counters: OpCounters):
        self.main_rule = main_rule
        self.sub_rule = sub_rule
        self.counters = counters
        self.dwell = self.count = self.primary = None
        self.buckets = self.heap = None
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
        self.heap = [(-self.primary[d], self.dwell[d], d) for d, c in enumerate(counts) if c]
        heapify(self.heap)
        self._live = len(self.heap)

    def _top(self):
        """The top entry's disk, once the entry is current; None if none is live."""
        heap, count, primary = self.heap, self.count, self.primary
        while heap:
            key, dwell, d = heap[0]
            if not count[d] or key > -primary[d]:   # empty disk, older RGD entry
                heappop(heap)
            elif key < -primary[d]:                 # a GD or WGD upper bound
                heapreplace(heap, (-primary[d], dwell, d))
            else:
                return d
        return None

    def select(self, rng: random.Random):
        """One selection, counted once in ``selector_ops`` (by the bucket
        list for GD and RGD with the random sub-rule)."""
        if self.buckets is not None:
            extreme = "max" if self.main_rule == "GD" else "min"
            return self.buckets.select(extreme, tie="random", rng=rng)
        self.counters.selector_ops += 1
        d = self._top()
        if d is None or self.sub_rule == "SD":
            return d
        ties = [heappop(self.heap)]     # WGD+R: ties leave in (dwell, id) order
        while self._top() is not None and self.heap[0][0] == ties[0][0]:
            ties.append(heappop(self.heap))
        for entry in ties:
            heappush(self.heap, entry)
        return ties[rng.randrange(len(ties))][2]

    def consume(self, disks) -> None:
        """A placed task leaves each disk of ``disks``, its available-disk
        ids, in turn.  All ``len(disks)`` ``bucket_ops`` are counted up
        front, as ``BucketList.decrement`` does."""
        if self.buckets is not None:
            self.buckets.decrement(disks)
            return
        self.counters.bucket_ops += len(disks)
        drop = 1.0 / len(disks) if self._drop is None else self._drop
        count, primary = self.count, self.primary
        for d in disks:
            c = count[d]
            if c == 0:
                raise InternalInvariantError("disk member count went negative")
            count[d] = c - 1
            if c > 1:
                primary[d] -= drop
                if drop < 0:        # an RGD key moves toward the top
                    heappush(self.heap, (-primary[d], self.dwell[d], d))
            else:
                self._live -= 1
        if len(self.heap) > 2 * self._live:
            # keep each live disk's one entry: the current RGD key, or the
            # GD or WGD key, which may be an upper bound
            self.heap = [e for e in self.heap if count[e[2]] and e[0] <= -primary[e[2]]]
            heapify(self.heap)

    def dump(self) -> str:
        """Indented snapshot of the selection state (debug aid)."""
        if self.buckets is not None:
            return self.buckets.dump()
        if self.main_rule != "WGD":
            # GD/RGD with SD: the live counts, grouped as a bucket list
            return BucketList(self.count).dump()
        parts = ["weighted disk order (top of list selected)"]
        for w, dwell, d in sorted((self.primary[d], self.dwell[d], d)
                                  for d, c in enumerate(self.count) if c)[-DUMP_DISKS:]:
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

    def next_look(self):
        """Select the disk of the next look: (its backend, its disk id)."""
        d = self.selector.select(self.rngs["disk"])
        if d is None:
            raise InternalInvariantError("disk selection returned an empty disk")
        return self._disk_backend(d), d

    def consume(self, disk, rows) -> None:
        """The store and the look's backend dropped each row when it was
        placed; only the disk selector is left, which takes each row in
        turn (a WGD share is per task), from every disk that encloses it,
        ``disk`` among them."""
        task_disks, consume = self.catalog.task_disks, self.selector.consume
        for row in rows:
            consume(task_disks[row])

    def run(self) -> Schedule:
        return run_looks(self, self.catalog, self.counters, schedule_meta(self.cfg))


def hisd(catalog: DiskCatalog, cfg: DiskHeuristicConfig,
         counters: OpCounters | None = None) -> Schedule:
    """Schedule every schedulable task through disk-constrained looks."""
    return SdbfRun(catalog, cfg, counters).run()


# each mode's config, by name
MODES = {cfg.MODE: cfg for cfg in (HeuristicConfig, DiskHeuristicConfig)}


def mode_source(mode: str, table: AvailabilityTable, grid: GridSpec):
    """The bases ``mode`` schedules ``table`` on: the table itself (one base
    per PRF), or in subarray mode its disk catalog on ``grid``."""
    return enumerate_disks(table, grid) if mode == "sdbf" else table


def look_source(mode: str, source, counters: OpCounters | None = None, **fields):
    """``mode``'s look source over ``source`` (from ``mode_source``), its
    config built from ``fields``."""
    cfg = MODES[mode](**fields)
    return (SdbfRun if mode == "sdbf" else EdbfRun)(source, cfg, counters)


def exact_source(source):
    """The bases the exact solver and the LP export take from a
    ``mode_source``: the table's PRFs, or the catalog without duplicate and
    subset disks (``dedup_disks``)."""
    return dedup_disks(source) if isinstance(source, DiskCatalog) else source
