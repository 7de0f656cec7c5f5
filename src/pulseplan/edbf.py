"""Element-level scheduler and the look loop both schedulers share.

Element and subarray scheduling solve the same integer program by the same
procedure, written once in ``run_looks``: a look source selects the base of
the next look and hands over a selection backend over its live tasks, an
``Episode`` packs that backend into the look's slots, and the source then
consumes every placed task from all of its structures.  ``EdbfRun`` is the
element-level source (PRF cardinality rules over a bucket list, one backend
per PRF built up front); ``sdbf.SdbfRun`` is the subarray-level source
(re-steering disks, one backend per selected disk built on demand).

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

from .errors import InternalInvariantError
from .ip import Schedule, ScheduledLook
from .radar import AvailabilityTable
from .structures import BACKEND_KINDS, OpCounters, BucketList, build_backend

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


def random_priorities(table: AvailabilityTable, task_rule: str,
                      rng: random.Random) -> dict[int, int] | None:
    """Per-task random priorities for the ``R`` task rule (None for the
    other rules), drawn in ascending id order so every backend kind sees
    identical values for one seed."""
    if task_rule != "R":
        return None
    ids = sorted(table.tasks[row].id for row in table.schedulable_rows())
    return {tid: rng.getrandbits(63) for tid in ids}


def task_priority(rule: str, table: AvailabilityTable, row: int, prf_index: int,
                  rand_values=None):
    """Priority of one task for one PRF's structure; larger wins.

    Ambiguous-range rules use the fold at the structure's own PRF; the
    availability-sum rules are frozen sums over the whole table.
    """
    if rule == "SAR":
        return -float(table.ra[row, prf_index])
    if rule == "LAR":
        return float(table.ra[row, prf_index])
    if rule == "R":
        return rand_values[table.tasks[row].id]
    if rule == "SAP":
        return -len(table.prf_sets[row])
    if rule == "SLA":
        return -int(table.al[row].sum())
    if rule == "SRA":
        return -int(table.ar[row].sum())
    raise ValueError(f"unknown task rule {rule!r}")


def prf_select(rule: str, buckets: BucketList, rng: random.Random):
    """Pick the PRF for the next look among PRFs with live trackable tasks."""
    if rule == "G":
        return buckets.select("max", skip_zero=True, tie="min_id")
    if rule == "RG":
        return buckets.select("min", skip_zero=True, tie="min_id")
    if rule == "R":
        if len(buckets.nonzero) == 0:
            return None
        buckets.counters.selector_ops += 1
        return buckets.nonzero.choose(rng)
    raise ValueError(f"unknown PRF rule {rule!r}")


def task_backend(table: AvailabilityTable, cfg, p: int, rows, rand_values,
                 counters: OpCounters):
    """Selection backend over the given table rows at PRF ``p``.

    Entries are (task id, A_l, A_r, priority) with the priority of
    ``cfg.task_rule``; ``cfg.backend`` picks the structure.
    """
    entries = [
        (
            table.tasks[row].id,
            int(table.al[row, p]),
            int(table.ar[row, p]),
            task_priority(cfg.task_rule, table, row, p, rand_values),
        )
        for row in rows
    ]
    return build_backend(cfg.backend, table.cfg.n_intlv, entries, counters)


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

    def count(self):
        n = 0
        if self.base is not None:
            n += len(self.base.tasks)
        if self.work is not None:
            n += len(self.work.tasks)
        return n

    def rightmost(self):
        if self.work is not None:
            return self.work.end
        if self.base is not None:
            return self.base.end
        return None

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

    The backend plays the role of the available-task set: placed tasks are
    deleted from it immediately.  ``tail`` and the partial schedule are
    shared across the recursion.
    """

    def __init__(self, backend, n_intlv, counters: OpCounters):
        self.backend = backend
        self.n = n_intlv
        self.counters = counters
        self.look = _LookBuild()
        self.tail = 0
        self.iters = 0

    def run(self) -> list[tuple[int, int]]:
        self.counters.bi_calls += 1
        self._bi(1, self.n)
        items = sorted(self.look.items())
        slots = [s for s, _ in items]
        if slots != list(range(1, len(slots) + 1)):
            raise InternalInvariantError(f"look occupancy {slots} is not a prefix")
        self.counters.bi_iterations += self.iters
        if self.iters > self.counters.bi_max_iterations:
            self.counters.bi_max_iterations = self.iters
        return [(tid, slot) for slot, tid in items]

    def _bi(self, e_l, e_r):
        self.tail = e_r
        cursor = e_r
        while cursor >= e_l:
            self.iters += 1
            if self.iters > 2 * self.n:
                raise InternalInvariantError(
                    f"backward interleaving exceeded {2 * self.n} iterations in one look"
                )
            gap = self.tail - cursor
            als = self.look.als(self.tail, self.n)
            if self.backend.has_left(gap):
                tid = self.backend.best_in(gap, cursor)
                if tid is not None:
                    self.look.place(tid, self.backend.al[tid], cursor)
                    self.backend.delete(tid)
                elif cursor == e_r:
                    self.tail -= 1
                else:
                    # One-step left shift frees the slot at the old tail for
                    # a task with a large rightward but small leftward
                    # availability; at most one task fits there.
                    self.look.shift_work()
                    freed = self.tail
                    self._bi(freed, freed + min(0, als - 1))
                    work = self.look.work
                    self.tail = work.end if work is not None else freed - 1
            else:
                if cursor != e_r and self.look.work is not None:
                    # Nothing can extend the schedule on the left: push it
                    # flush left and fill, once, the slots that the shift
                    # opened on its right.
                    new_el = e_l + self.tail - cursor
                    self.look.compact_work(e_l)
                    self._bi(new_el, min(self.tail, als + new_el - 1))
                    return
            cursor -= 1


def run_looks(source, table: AvailabilityTable, counters: OpCounters,
              meta: dict) -> Schedule:
    """The look loop of both schedulers.

    ``source.next_look(j)`` selects the base of look ``j`` and returns a
    selection backend over its live tasks plus the ``ScheduledLook``;
    ``source.consume(tid)`` removes a placed task from every structure of
    the source.  Every selected base must hold a live task and every look
    must place at least one, which bounds the loop by the number of
    schedulable tasks.
    """
    looks: list[ScheduledLook] = []
    assignments: list[tuple[int, int, int]] = []
    live = len(table.schedulable_rows())
    while live > 0:
        j = len(looks) + 1
        backend, look = source.next_look(j)
        if backend.live_count == 0:
            raise InternalInvariantError(
                f"look {j}: the selected base has no task left")
        placed = Episode(backend, table.cfg.n_intlv, counters).run()
        if not placed:
            raise InternalInvariantError("a look scheduled no task")
        looks.append(look)
        for tid, slot in placed:
            assignments.append((tid, j, slot))
            source.consume(tid)
        live -= len(placed)
    return Schedule(
        looks=looks,
        assignments=assignments,
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
        rand_values = random_priorities(table, cfg.task_rule, self.rngs["task"])
        self.backends = [
            task_backend(table, cfg, p, table.task_sets[p], rand_values, self.counters)
            for p in range(table.n_prfs)
        ]
        memberships = [p for p in range(table.n_prfs) for _ in table.task_sets[p]]
        self.buckets = BucketList(range(table.n_prfs), memberships, counters=self.counters)

    def dump_structures(self) -> str:
        """Indented snapshot of the live selection structures (debug aid)."""
        parts = [self.buckets.dump()]
        for p, backend in enumerate(self.backends):
            parts.append(f"prf {p} ({self.table.prfs[p].f_r:g} Hz)")
            parts.append("  " + backend.dump().replace("\n", "\n  "))
        return "\n".join(parts)

    def next_look(self, j: int):
        p = prf_select(self.cfg.prf_rule, self.buckets, self.rngs["prf"])
        if p is None:
            raise InternalInvariantError("PRF selection returned an empty task set")
        table = self.table
        look = ScheduledLook(index=j, prf_index=p, f_r=table.prfs[p].f_r,
                             dwell=table.dwell(p))
        return self.backends[p], look

    def consume(self, tid: int) -> None:
        for p in self.table.prf_sets[self.table.row_of(tid)]:
            self.backends[p].delete(tid)
            self.buckets.adjust(p, -1)

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
