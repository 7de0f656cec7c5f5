"""Element-level scheduler and the look loop both schedulers share.

Element and subarray scheduling solve the same integer program by the same
procedure, written once in ``run_looks``: a look source selects the base of
the next look (a PRF, or a disk) and hands over the base and a selection
backend over its live tasks, an ``Episode`` packs that backend into the
look's slots, and the source then consumes every placed task from the rest
of its structures.  The loop yields each look as its base and placed rows,
and ``ip.schedule_of`` numbers the looks and writes the assignment columns;
no look source builds a look itself.  Each run keeps
one ``TaskStore`` (``task_store``): the table rows' liveness plus their
A_l, A_r and priority-rank columns and each PRF's rows in priority order,
shared by all the run's backends, which index table rows.  The store is the
one place that orders a PRF's task set K_p; every backend takes its rows in
that order.  ``Episode`` kills a placed row in the store and deletes it
from the look's backend; the source then consumes the look's placed rows in
one call, which deletes each once from every other backend that holds it
and updates the base selector: ``EdbfRun`` groups the rows by PRF and
makes one ``delete`` and one bucket-list ``decrement`` per PRF.  What a delete does is the backend's own:
the pairwise lists unlink the row, while a range tree, whose queries skip
rows the store marks dead, only lowers its live count.  Every backend
keeps that count exact, since the pass reads it.  ``EdbfRun`` is the
element-level source (PRF cardinality rules over a bucket list, one
backend per PRF built up front over the store's ``order[p]`` list itself,
whose length is the PRF's bucket count); ``sdbf.SdbfRun`` is the
subarray-level source (re-steering disks, one backend per selected disk
built on demand from the disk's live rows, sorted by the store's rank).

Packing scans the look's slots from the rightmost leftward.  When no task
fits the current slot the partial schedule is shifted left to free room at
its right end (one slot at a time, or all the way when nothing can extend it
on the left), and the freed slots are filled by a bounded recursion.  The
procedure visits at most twice the interleaving capacity of loop iterations
per look, which an instrumented counter enforces.  It asks no backend query
whose answer it already holds (see ``Episode``): an empty backend is asked
nothing, ``has_left(0)`` is read as the live count, and a one-step shift
with nothing to move lowers the tail without repeating its failed query.
During a pass the store only changes by the pass's own kills and deletes,
so each skipped call would have returned the answer the pass uses, and
the placements are the same.

Each config (``HeuristicConfig`` here, ``sdbf.DiskHeuristicConfig``) names
its mode in ``MODE`` and declares its rule fields and their choices once,
in ``RULES``; ``check_choices`` validates them, then the backend, and
``schedule_meta`` writes a run's schedule meta from them.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InternalInvariantError
from .ip import Schedule, schedule_of, split_source
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


def _random_priorities(table: AvailabilityTable, rng: random.Random):
    rows = sorted(table.schedulable_rows(), key=table.tasks.ids.__getitem__)
    prio = np.zeros(table.n_tasks, dtype=np.int64)
    prio[rows] = [rng.getrandbits(63) for _ in rows]
    return prio


# each task rule's priority function of (table, rng), in the order the
# rules are listed (``TASK_RULES``)
TASK_PRIORITIES = {
    "SAR": lambda table, rng: -table.ra,
    "LAR": lambda table, rng: table.ra,
    "R": _random_priorities,
    "SAP": lambda table, rng: -table.av.sum(axis=1),
    "SLA": lambda table, rng: -table.al.sum(axis=1),
    "SRA": lambda table, rng: -table.ar.sum(axis=1),
}
TASK_RULES = tuple(TASK_PRIORITIES)


def check_choices(cfg) -> None:
    """Check a config's rule fields, in ``RULES`` order, then its backend."""
    for name, choices in (*cfg.RULES.items(), ("backend", BACKEND_KINDS)):
        if getattr(cfg, name) not in choices:
            raise ValueError(f"{name} must be one of {choices}")


def schedule_meta(cfg) -> dict:
    """A run's schedule meta: its mode, rule fields and seed, never the
    backend (every backend gives the same schedule)."""
    return {"mode": cfg.MODE, **{name: getattr(cfg, name) for name in cfg.RULES},
            "seed": str(cfg.seed)}


@dataclass(frozen=True)
class HeuristicConfig:
    """PRF rule, task rule, selection backend, and the run seed."""

    MODE: ClassVar[str] = "edbf"
    RULES: ClassVar[dict] = {"prf_rule": PRF_RULES, "task_rule": TASK_RULES}

    prf_rule: str = "G"
    task_rule: str = "SAR"
    backend: str = "rangetree"
    seed: int = 0

    __post_init__ = check_choices


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
    if rule not in TASK_PRIORITIES:
        raise ValueError(f"unknown task rule {rule!r}")
    return TASK_PRIORITIES[rule](table, rng)


def task_store(table: AvailabilityTable, task_rule: str, rng: random.Random) -> TaskStore:
    """The live-task store of one run over every table row."""
    return TaskStore(table.cfg.n_intlv, table.tasks.ids, table.av,
                     table.al, table.ar, task_priorities(task_rule, table, rng))


class Episode:
    """One look's scheduling pass over a selection backend.

    The backend plays the role of the available-task set: a placed row is
    killed in the backend's store and deleted from the backend at once.
    ``tail`` and the partial schedule are shared across the recursion.
    ``run`` returns the placed rows in slot order; their slots are 1..m.

    The partial schedule is an immobile ``block`` at slots 1..len(block)
    and one working run ``work`` starting at slot ``start``, which a shift
    moves left in O(1).  ``block_tol`` and ``work_tol`` are absolute slots,
    min over each run's members of slot + A_l (``None`` while the run is
    empty): the last slot later pulses may occupy before hitting a
    member's echo window.

    The pass asks the backend no query whose answer it already holds.
    Between two deletes the store does not change, so a query that failed
    fails again, and the pass keeps to these rules:

    * an empty backend (``live_count`` 0) is asked nothing: no row can be
      found and ``has_left`` is false;
    * ``has_left(0)`` is ``live_count > 0``, since every row has A_l >= 0;
    * a failed ``best_in(0, cursor)`` (when a task is left) lowers the
      tail by one, below the pass's right end as at it.  Below it, a gap
      of 0 means there is no working run (a run placed right of the cursor
      makes a gap), so the one-step shift has nothing to move, and its
      pass would ask the same failed query and lower the tail by one.

    Each rule replaces calls by the answers they would give on an unchanged
    store, so the placements, and the schedule bytes, are those of the pass
    that asks them (``tests/oracles.py`` keeps that pass as the reference).
    """

    def __init__(self, backend, n_intlv, counters: OpCounters):
        self.backend = backend
        self.n = n_intlv
        self.counters = counters
        self.block, self.block_tol = [], None
        self.work = self.start = self.work_tol = None
        self.tail = 0
        self.iters = 0

    def run(self) -> list[int]:
        self.counters.bi_calls += 1
        self._bi(1, self.n)
        if self.work is not None and self.start != len(self.block) + 1:
            raise InternalInvariantError(f"look occupancy: a run at slot {self.start} "
                                         f"after a {len(self.block)}-slot block is no prefix")
        self.counters.bi_iterations += self.iters
        if self.iters > self.counters.bi_max_iterations:
            self.counters.bi_max_iterations = self.iters
        return self.block + list(self.work or ())

    def _als(self):
        """Slots after ``tail`` still clear of every member's echo window."""
        tols = [t for t in (self.block_tol, self.work_tol) if t is not None]
        return min(tols) - self.tail if tols else self.n

    def _place(self, row, al, cursor):
        """Place ``row`` at ``cursor``, at either end of the working run."""
        if self.work is None:
            if cursor <= len(self.block):
                raise InternalInvariantError("placement collides with the block")
            # an empty run that ends at the cursor
            self.work, self.start, self.work_tol = deque(), cursor + 1, cursor + al
        work = self.work
        if cursor == self.start - 1:
            self.start = cursor
            work.appendleft(row)
        elif cursor == self.start + len(work):
            work.append(row)
        else:
            raise InternalInvariantError(
                f"placement at {cursor} not adjacent to run "
                f"[{self.start}, {self.start + len(work) - 1}]")
        self.work_tol = min(self.work_tol, cursor + al)

    def _shift(self):
        """Move the working run one slot left."""
        if self.work is not None:
            self.start -= 1
            self.work_tol -= 1
            if self.start <= len(self.block):
                raise InternalInvariantError("left shift ran into the block")

    def _compact(self, e_l):
        """Slide the working run to ``e_l``, against the block's end, and
        make it part of the block."""
        if self.work is None:
            return
        if e_l != len(self.block) + 1:
            raise InternalInvariantError("compaction edge does not abut the block")
        tol = self.work_tol - (self.start - e_l)
        self.block_tol = tol if self.block_tol is None else min(self.block_tol, tol)
        self.block += self.work
        self.work = self.start = self.work_tol = None

    def _bi(self, e_l, e_r):
        self.tail = e_r
        cursor = e_r
        n, backend = self.n, self.backend
        best_in, has_left, al = backend.best_in, backend.has_left, backend.al
        kill, delete, place = backend.store.kill, backend.delete, self._place
        while cursor >= e_l:
            self.iters += 1
            if self.iters > 2 * n:
                raise InternalInvariantError(
                    f"backward interleaving exceeded {2 * n} iterations in one look"
                )
            gap = self.tail - cursor
            # An empty backend is asked nothing.  A row from best_in implies
            # has_left, so has_left is asked only when best_in finds
            # nothing, and at gap 0 it is the live count (every A_l >= 0).
            live = backend.live_count
            row = best_in(gap, cursor) if live else None
            if row is not None:
                place(row, al[row], cursor)
                kill(row)
                delete((row,))
            elif live and (not gap or has_left(gap)):
                if not gap:
                    # Gap 0 is the pass's right end or, below it, a cursor
                    # with no working run (a placed run right of the cursor
                    # makes a gap): a one-step shift would move nothing, and
                    # its pass would ask this failed query again on the
                    # same store and lower the tail by one.
                    self.tail -= 1
                else:
                    # One-step left shift frees the slot at the old tail for
                    # a task with a large rightward but small leftward
                    # availability; at most one task fits there.  Nothing
                    # was placed in this iteration, so ``als`` is the value
                    # at its start.
                    als = self._als()
                    self._shift()
                    freed = self.tail
                    self._bi(freed, freed + min(0, als - 1))
                    work = self.work
                    self.tail = self.start + len(work) - 1 if work is not None else freed - 1
            elif cursor != e_r and self.work is not None:
                # Nothing can extend the schedule on the left: push it
                # flush left and fill, once, the slots that the shift
                # opened on its right.
                als = self._als()
                new_el = e_l + self.tail - cursor
                self._compact(e_l)
                self._bi(new_el, min(self.tail, als + new_el - 1))
                return
            cursor -= 1


def run_looks(source, bases, counters: OpCounters, meta: dict) -> Schedule:
    """The look loop of both schedulers, over the bases of ``bases`` (an
    availability table or a disk catalog), built by ``ip.schedule_of``.

    ``source.next_look()`` selects the base of the next look and returns a
    selection backend over its live rows plus the base;
    ``source.consume(base, rows)`` removes the look's placed rows, in slot
    order, from the source's other structures.  Every selected base must
    hold a live task and every look must place at least one, which bounds
    the loop by the number of schedulable tasks.  A look's placed slots are
    1..m (``Episode.run`` checks it and returns the rows in slot order).
    """
    table, _ = split_source(bases)
    n = table.cfg.n_intlv

    def looks():
        live = table.n_tasks - len(table.unschedulable)
        j = 0
        while live > 0:
            j += 1
            backend, base = source.next_look()
            if backend.live_count == 0:
                raise InternalInvariantError(
                    f"look {j}: the selected base has no task left")
            rows = Episode(backend, n, counters).run()
            if not rows:
                raise InternalInvariantError("a look scheduled no task")
            yield base, rows
            source.consume(base, rows)
            live -= len(rows)

    return schedule_of(bases, looks(), {**meta, "n_intlv": str(n)})


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

    def next_look(self):
        """Pick the PRF of the next look among PRFs with live tasks: the
        greedy rules read the bucket list, the random rule draws from
        ``live_prfs``."""
        rule = self.cfg.prf_rule
        if rule != "R":
            p = self.buckets.select("max" if rule == "G" else "min", tie="min_id")
        elif self.live_prfs:
            self.counters.selector_ops += 1
            p = self.live_prfs.choose(self.rngs["prf"])
        else:
            p = None
        if p is None:
            raise InternalInvariantError("PRF selection returned an empty task set")
        return self.backends[p], p

    def consume(self, look_prf, rows) -> None:
        """Drop a look's placed rows, in slot order, from the structures of
        their PRFs: the rows are grouped by PRF once, and each PRF makes one
        ``delete`` from its backend (but ``look_prf``, whose backend
        dropped each row when it was placed) and one bucket-list
        ``decrement`` by its row count.

        The random rule's set loses each PRF whose count reached 0 in the
        order one decrement per row gives: by the slot of the last row
        holding the PRF, then by PRF index.
        """
        prf_sets = self.table.prf_sets
        groups = [[] for _ in self.backends]
        for row in rows:
            for p in prf_sets[row]:
                groups[p].append(row)
        decrement = self.buckets.decrement
        for p, (backend, placed) in enumerate(zip(self.backends, groups)):
            if placed:
                if p != look_prf:
                    backend.delete(placed)
                decrement((p,), len(placed))
        if self.live_prfs is not None:
            count = self.buckets.count
            zeroed = [p for p, placed in enumerate(groups) if placed and not count(p)]
            # a stable sort keeps PRF order among PRFs of one last row
            for p in sorted(zeroed, key=lambda p: rows.index(groups[p][-1])):
                self.live_prfs.discard(p)

    def run(self) -> Schedule:
        return run_looks(self, self.table, self.counters, schedule_meta(self.cfg))


def hied(table: AvailabilityTable, cfg: HeuristicConfig,
         counters: OpCounters | None = None) -> Schedule:
    """Schedule every schedulable task; unschedulable ids ride along in the
    result for reporting."""
    return EdbfRun(table, cfg, counters).run()
