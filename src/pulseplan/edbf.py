"""Element-level scheduler and the look loop both schedulers share.

Element and subarray scheduling solve the same integer program by the same
procedure, written once in ``run_looks``: a look source selects the base of
the next look and hands over a selection backend over its live tasks, an
``Episode`` packs that backend into the look's slots, and the source then
consumes every placed task from the rest of its structures.  Each run keeps
one ``TaskStore`` (``task_store``): the table rows' liveness plus their
A_l, A_r and priority-rank columns and each PRF's rows in priority order,
shared by all the run's backends, which index table rows.  The store is the
one place that orders a PRF's task set K_p; every backend takes its rows in
that order.  ``Episode`` kills a placed row in the store and deletes it
from the look's backend; the source then consumes the look's placed rows in
one call, which deletes each once from every other backend that holds it
and updates the base selector.  ``EdbfRun`` is the element-level source
(PRF cardinality rules over a bucket list, one backend per PRF built up
front over the store's ``order[p]`` list itself, whose length is the PRF's
bucket count); ``sdbf.SdbfRun`` is the subarray-level source (re-steering
disks, one backend per selected disk built on demand from the disk's live
rows, sorted by the store's rank).

Packing scans the look's slots from the rightmost leftward.  When no task
fits the current slot the partial schedule is shifted left to free room at
its right end (one slot at a time, or all the way when nothing can extend it
on the left), and the freed slots are filled by a bounded recursion.  The
procedure visits at most twice the interleaving capacity of loop iterations
per look, which an instrumented counter enforces.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError
from .ip import Assignments, Schedule, ScheduledLook, make_look
from .radar import AvailabilityTable
from .structures import (
    BACKEND_KINDS,
    BucketList,
    IndexedSet,
    OpCounters,
    TaskStore,
    build_backend,
)

PRF_RULES = ("G", "RG", "R")
TASK_RULES = ("SAR", "LAR", "R", "SAP", "SLA", "SRA")


@dataclass(frozen=True)
class HeuristicConfig:
    """PRF rule, task rule, selection backend, and the run seed."""

    prf_rule: str = "G"
    task_rule: str = "SAR"
    backend: str = "rangetree"
    seed: int = 0

    def __post_init__(self):
        if self.prf_rule not in PRF_RULES:
            raise ValueError(f"prf_rule must be one of {PRF_RULES}")
        if self.task_rule not in TASK_RULES:
            raise ValueError(f"task_rule must be one of {TASK_RULES}")
        if self.backend not in BACKEND_KINDS:
            raise ValueError(f"backend must be one of {BACKEND_KINDS}")


def derive_rngs(seed: int) -> dict[str, random.Random]:
    """Independent deterministic streams for the three random rules."""
    return {
        "task": random.Random(seed * 3 + 1),
        "prf": random.Random(seed * 3 + 2),
        "disk": random.Random(seed * 3 + 3),
    }


def task_priorities(rule: str, table: AvailabilityTable,
                    rng: random.Random | None = None):
    """Priorities of every table row under a task rule; larger wins.

    The ambiguous-range rules give a [row, PRF] array, the fold at each
    PRF; the others give one column that every PRF shares: frozen sums over
    the whole table, or for ``R`` random values drawn from ``rng`` in
    ascending id order over the schedulable rows, so every backend kind
    sees identical values for one seed.
    """
    if rule == "SAR":
        return -table.ra
    if rule == "LAR":
        return table.ra
    if rule == "R":
        rows = sorted(table.schedulable_rows(), key=table.tasks.ids.__getitem__)
        prio = np.zeros(table.n_tasks, dtype=np.int64)
        prio[rows] = [rng.getrandbits(63) for _ in rows]
        return prio
    if rule == "SAP":
        return -table.av.sum(axis=1)
    if rule == "SLA":
        return -table.al.sum(axis=1)
    if rule == "SRA":
        return -table.ar.sum(axis=1)
    raise ValueError(f"unknown task rule {rule!r}")


def task_store(table: AvailabilityTable, task_rule: str, rng: random.Random) -> TaskStore:
    """The live-task store of one run over every table row."""
    return TaskStore(table.cfg.n_intlv, table.tasks.ids, table.av,
                     table.al, table.ar, task_priorities(task_rule, table, rng))


def prf_select(rule: str, buckets: BucketList, live_prfs: IndexedSet | None,
               rng: random.Random):
    """Pick the PRF for the next look among PRFs with live trackable tasks.

    The greedy rules read the bucket list; the random rule draws from
    ``live_prfs``, the PRFs whose count is nonzero.
    """
    if rule == "G":
        return buckets.select("max", tie="min_id")
    if rule == "RG":
        return buckets.select("min", tie="min_id")
    if rule == "R":
        if len(live_prfs) == 0:
            return None
        buckets.counters.selector_ops += 1
        return live_prfs.choose(rng)
    raise ValueError(f"unknown PRF rule {rule!r}")


class _Run:
    """A contiguous block of placed tasks; shifts are O(1) offset moves.

    ``rel_tol`` is min over members of (offset + A_l): the last slot, counted
    from ``start``, that later pulses may occupy before hitting a member's
    echo window.
    """

    __slots__ = ("start", "tasks", "rel_tol")

    def __init__(self, start, tid, al):
        self.start = start
        self.tasks = deque((tid,))
        self.rel_tol = al

    @property
    def end(self):
        return self.start + len(self.tasks) - 1

    @property
    def tol_abs(self):
        return self.start + self.rel_tol

    def prepend(self, tid, al):
        self.start -= 1
        self.tasks.appendleft(tid)
        self.rel_tol = min(self.rel_tol + 1, al)

    def append(self, tid, al):
        self.tasks.append(tid)
        self.rel_tol = min(self.rel_tol, len(self.tasks) - 1 + al)


class _LookBuild:
    """Partial schedule of one look: an immobile left block plus the run
    being built; at most two contiguous runs at any time."""

    __slots__ = ("base", "work")

    def __init__(self):
        self.base = None
        self.work = None

    def als(self, tail, n_intlv):
        """Slots after ``tail`` still clear of every member's echo window."""
        tols = []
        if self.base is not None:
            tols.append(self.base.tol_abs)
        if self.work is not None:
            tols.append(self.work.tol_abs)
        if not tols:
            return n_intlv
        return min(tols) - tail

    def place(self, tid, al, cursor):
        if self.work is None:
            if self.base is not None and cursor <= self.base.end:
                raise InternalInvariantError("placement collides with the block")
            self.work = _Run(cursor, tid, al)
        elif cursor == self.work.start - 1:
            self.work.prepend(tid, al)
        elif cursor == self.work.end + 1:
            self.work.append(tid, al)
        else:
            raise InternalInvariantError(
                f"placement at {cursor} not adjacent to run [{self.work.start}, {self.work.end}]"
            )

    def shift_work(self):
        if self.work is not None:
            self.work.start -= 1
            if self.base is not None and self.work.start <= self.base.end:
                raise InternalInvariantError("left shift ran into the block")

    def compact_work(self, e_l):
        """Slide the working run against the left edge (or the block)."""
        if self.work is None:
            return
        if self.base is None:
            self.work.start = e_l
            self.base = self.work
        else:
            if e_l != self.base.end + 1:
                raise InternalInvariantError("compaction edge does not abut the block")
            self.base.rel_tol = min(
                self.base.rel_tol, len(self.base.tasks) + self.work.rel_tol
            )
            self.base.tasks.extend(self.work.tasks)
        self.work = None

    def items(self):
        for run in (self.base, self.work):
            if run is not None:
                for off, tid in enumerate(run.tasks):
                    yield (run.start + off, tid)


class Episode:
    """One look's scheduling pass over a selection backend.

    The backend plays the role of the available-task set: a placed row is
    killed in the backend's store and deleted from the backend at once.
    ``tail`` and the partial schedule are shared across the recursion.
    ``run`` returns the placed rows in slot order; their slots are 1..m.
    """

    def __init__(self, backend, n_intlv, counters: OpCounters):
        self.backend = backend
        self.n = n_intlv
        self.counters = counters
        self.look = _LookBuild()
        self.tail = 0
        self.iters = 0

    def run(self) -> list[int]:
        self.counters.bi_calls += 1
        self._bi(1, self.n)
        items = sorted(self.look.items())
        slots = [s for s, _ in items]
        if slots != list(range(1, len(slots) + 1)):
            raise InternalInvariantError(f"look occupancy {slots} is not a prefix")
        self.counters.bi_iterations += self.iters
        if self.iters > self.counters.bi_max_iterations:
            self.counters.bi_max_iterations = self.iters
        return [row for _, row in items]

    def _bi(self, e_l, e_r):
        self.tail = e_r
        cursor = e_r
        n, look, backend = self.n, self.look, self.backend
        best_in, has_left, al = backend.best_in, backend.has_left, backend.al
        kill, delete, place = backend.store.kill, backend.delete, look.place
        while cursor >= e_l:
            self.iters += 1
            if self.iters > 2 * n:
                raise InternalInvariantError(
                    f"backward interleaving exceeded {2 * n} iterations in one look"
                )
            gap = self.tail - cursor
            # a row from best_in implies has_left, so has_left is asked
            # only when best_in finds nothing
            row = best_in(gap, cursor)
            if row is not None:
                place(row, al[row], cursor)
                kill(row)
                delete((row,))
            elif has_left(gap):
                if cursor == e_r:
                    self.tail -= 1
                else:
                    # One-step left shift frees the slot at the old tail for
                    # a task with a large rightward but small leftward
                    # availability; at most one task fits there.  Nothing
                    # was placed in this iteration, so ``als`` is the value
                    # at its start.
                    als = look.als(self.tail, n)
                    look.shift_work()
                    freed = self.tail
                    self._bi(freed, freed + min(0, als - 1))
                    work = look.work
                    self.tail = work.end if work is not None else freed - 1
            elif cursor != e_r and look.work is not None:
                # Nothing can extend the schedule on the left: push it
                # flush left and fill, once, the slots that the shift
                # opened on its right.
                als = look.als(self.tail, n)
                new_el = e_l + self.tail - cursor
                look.compact_work(e_l)
                self._bi(new_el, min(self.tail, als + new_el - 1))
                return
            cursor -= 1


def run_looks(source, table: AvailabilityTable, counters: OpCounters,
              meta: dict) -> Schedule:
    """The look loop of both schedulers.

    ``source.next_look(j)`` selects the base of look ``j`` and returns a
    selection backend over its live rows plus the ``ScheduledLook``;
    ``source.consume(rows)`` removes the look's placed rows, in slot order,
    from the source's other structures.  Every selected base must hold a
    live task and every look must place at least one, which bounds the loop
    by the number of schedulable tasks.  A look's placed slots are 1..m
    (``Episode.run`` checks it and returns the rows in slot order), so the
    assignment columns are filled per look.  They are sized once, one entry
    per schedulable task: grown look by look, the three lists'
    reallocations fragment the heap, and the memory a process holds after a
    64k-task run creeps up from run to run.
    """
    looks: list[ScheduledLook] = []
    live = int(table.av.any(axis=1).sum())
    task, look_index, slot = [0] * live, [0] * live, [0] * live
    k = 0
    while live > 0:
        j = len(looks) + 1
        backend, look = source.next_look(j)
        if backend.live_count == 0:
            raise InternalInvariantError(
                f"look {j}: the selected base has no task left")
        rows = Episode(backend, table.cfg.n_intlv, counters).run()
        if not rows:
            raise InternalInvariantError("a look scheduled no task")
        looks.append(look)
        m = len(rows)
        task[k:k + m] = map(backend.store.ids.__getitem__, rows)
        look_index[k:k + m] = [j] * m
        slot[k:k + m] = range(1, m + 1)
        k += m
        source.consume(rows)
        live -= m
    return Schedule(
        looks=looks,
        assignments=Assignments(task, look_index, slot),
        meta={**meta, "n_intlv": str(table.cfg.n_intlv)},
        unschedulable=table.unschedulable,
    )


class EdbfRun:
    """Element-level look source: PRF selection over per-PRF backends.

    Preprocessing (``__init__``) and the look loop (``run``) are split so
    benchmarks can time them apart.
    """

    def __init__(self, table: AvailabilityTable, cfg: HeuristicConfig,
                 counters: OpCounters | None = None):
        self.table = table
        self.cfg = cfg
        self.counters = counters if counters is not None else OpCounters()
        self.rngs = derive_rngs(cfg.seed)
        self.store = task_store(table, cfg.task_rule, self.rngs["task"])
        self.backends = [
            build_backend(cfg.backend, self.store, p, order, self.counters)
            for p, order in enumerate(self.store.order)
        ]
        self._look_prf = None
        counts = list(map(len, self.store.order))
        self.buckets = BucketList(counts, counters=self.counters)
        # the random rule's own set: the PRFs whose count is nonzero
        self.live_prfs = (IndexedSet(p for p, c in enumerate(counts) if c)
                          if cfg.prf_rule == "R" else None)

    def dump_structures(self) -> str:
        """Indented snapshot of the live selection structures (debug aid)."""
        parts = [self.buckets.dump()]
        for p, backend in enumerate(self.backends):
            parts.append(f"prf {p} ({self.table.prfs[p].f_r:g} Hz)")
            parts.append("  " + backend.dump().replace("\n", "\n  "))
        return "\n".join(parts)

    def next_look(self, j: int):
        p = prf_select(self.cfg.prf_rule, self.buckets, self.live_prfs,
                       self.rngs["prf"])
        if p is None:
            raise InternalInvariantError("PRF selection returned an empty task set")
        self._look_prf = p
        return self.backends[p], make_look(j, self.table, p)

    def consume(self, rows) -> None:
        """Drop a look's placed rows, in slot order, from the other PRFs'
        backends (one ``delete`` call each) and from the bucket list
        (one ``decrement`` over the rows' PRF sets in turn).  The look's
        own backend dropped each row when it was placed.

        The random rule's set loses each PRF whose count reached 0, in the
        order the counts did: that of each PRF's last occurrence in the
        decremented keys.
        """
        prf_sets = self.table.prf_sets
        keys = []
        groups = [[] for _ in self.backends]
        for row in rows:
            prf_set = prf_sets[row]
            keys += prf_set
            for p in prf_set:
                groups[p].append(row)
        groups[self._look_prf] = ()
        for backend, placed in zip(self.backends, groups):
            if placed:
                backend.delete(placed)
        self.buckets.decrement(keys)
        if self.live_prfs is not None:
            count = self.buckets.count
            for p in reversed(dict.fromkeys(reversed(keys))):
                if count(p) == 0:
                    self.live_prfs.discard(p)

    def run(self) -> Schedule:
        cfg = self.cfg
        return run_looks(self, self.table, self.counters, {
            "mode": "edbf", "prf_rule": cfg.prf_rule, "task_rule": cfg.task_rule,
            "seed": str(cfg.seed),
        })


def hied(table: AvailabilityTable, cfg: HeuristicConfig,
         counters: OpCounters | None = None) -> Schedule:
    """Schedule every schedulable task; unschedulable ids ride along in the
    result for reporting."""
    return EdbfRun(table, cfg, counters).run()
