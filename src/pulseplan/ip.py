"""Integer-program view of pulse interleaving.

The program minimizes total tracking time sum_j t_d,j * f_j over binary
assignment variables h_ijk (task i at slot k of look j) subject to:

  C1  at most n_intlv tasks per look, coupled to the look-open flag f_j
  C2  every task scheduled exactly once
  C3  at most one task per (look, slot)
  C4  occupied slots of a look form the prefix 1..m with no gaps
  C5  a task only joins a look whose PRF (and disk, for subarray mode) is
      available to it
  C6  slot index never exceeds the task's rightward availability
  C7  a look with m tasks keeps every assignment within m <= k + A_l
  C8  binary domains

One look type serves both sides: a ``ScheduledLook`` is a look of a
schedule and a candidate look of an instance alike, and ``make_look``
builds every one.  A schedule holds its looks as ``Looks`` columns, an index
and a key per look into a table of look fields, and reads them as
``ScheduledLook``s.  A look is a base plus the table rows in its slots 1..m;
a base is a PRF of an availability table or a disk of a disk catalog, the
two sources ``split_source`` tells apart.  ``schedule_of`` is the one
constructor from looks given as (base, rows in slot order) to a
``Schedule``: the look loop of both schedulers and the exact solver return
through it.  It keys each look by its base and builds each base's fields
once, so it builds no object per look.  An ``IpInstance`` is the
availability table (and, in subarray mode, the disk catalog) plus a copy
count, read by table row and by base; it builds its candidate looks when
``looks`` is first read, so the checker and the exact solver, which read
none of them, never pay for them.  A schedule look that is no candidate look
of the instance, or that repeats an index, is a C8 violation.

This module validates any schedule against those constraints, solves small
instances exactly by depth-first branch and bound, and writes instances as
LP text (``export_lp``), optionally as the capacitated facility-location
relaxation that drops slot structure.  The LP text is output only: its rows
are formatted straight from the ``IpInstance`` (looks, ``av`` and the
table's A_l and A_r), which is also what a numeric solver should build its
matrices from.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .errors import InfeasibleError, InternalInvariantError, ResourceLimitError
from .geometry import DiskCatalog
from .radar import AvailabilityTable

ORACLE_MAX_TASKS = 10
ORACLE_MAX_BASES = 48
ORACLE_MAX_INTLV = 4
DEFAULT_NODE_BUDGET = 2_000_000
LP_MAX_TERMS = 5_000_000        # variable terms one ``export_lp`` may write


@dataclass(frozen=True)
class ScheduledLook:
    """One look: of a produced schedule, or a candidate look of an instance."""

    index: int                     # 1-based position in the schedule or instance
    prf_index: int
    f_r: float
    dwell: float
    disk_id: int | None = None
    disk_center: tuple[float, float] | None = None


def _look_fields(look: ScheduledLook) -> tuple:
    """A look's fields but its index, in ``ScheduledLook`` order."""
    return look.prf_index, look.f_r, look.dwell, look.disk_id, look.disk_center


class Looks(Sequence):
    """A schedule's looks as columns, one entry per look: ``index`` (look
    index) and ``key``, a key into ``fields``, which maps each key to the
    fields of its looks but the index, in ``ScheduledLook`` order (PRF
    index, f_r, dwell, disk id, disk center).  A scheduler's looks are
    keyed by their base, so the table holds one entry per base used.

    It reads as a sequence of ``ScheduledLook``, built on each read, and
    equals a list or tuple of the same looks.  ``Looks.of`` gives each
    look of a sequence its own key, so no two looks whose fields compare
    equal but write differently (0.0 and -0.0) share one.
    """

    __slots__ = ("index", "key", "fields")

    def __init__(self, index=(), key=(), fields=None):
        self.index, self.key = list(index), list(key)
        self.fields = {} if fields is None else fields
        if len(self.index) != len(self.key):
            raise ValueError("look columns differ in length")

    @classmethod
    def of(cls, looks) -> Looks:
        looks = list(looks)
        return cls([lk.index for lk in looks], range(len(looks)),
                   dict(enumerate(map(_look_fields, looks))))

    def __len__(self):
        return len(self.index)

    def __iter__(self):
        fields = self.fields
        return (ScheduledLook(j, *fields[k]) for j, k in zip(self.index, self.key))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Looks(self.index[i], self.key[i], self.fields)
        return ScheduledLook(self.index[i], *self.fields[self.key[i]])

    def __eq__(self, other):
        if isinstance(other, (Looks, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"Looks({list(self)!r})"


class Assignments(Sequence):
    """A schedule's assignments as three int columns, one entry per
    assignment: ``task`` (task id), ``look`` (look index) and ``slot``.

    It reads as a sequence of (task id, look, slot) tuples, and equals a
    list or tuple of the same tuples.
    """

    __slots__ = ("task", "look", "slot")

    def __init__(self, task=(), look=(), slot=()):
        self.task, self.look, self.slot = list(task), list(look), list(slot)
        if not len(self.task) == len(self.look) == len(self.slot):
            raise ValueError("assignment columns differ in length")

    def __len__(self):
        return len(self.task)

    def __iter__(self):
        return zip(self.task, self.look, self.slot)

    def __getitem__(self, i):
        return self.task[i], self.look[i], self.slot[i]

    def __eq__(self, other):
        if isinstance(other, Assignments):
            return (self.task, self.look, self.slot) == (other.task, other.look, other.slot)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"Assignments({list(self)!r})"


@dataclass
class Schedule:
    """Look and assignment columns plus metadata; the scheduler's output.

    ``looks`` may be given as any iterable of ``ScheduledLook`` and is kept
    as ``Looks`` columns (``Looks.of``); ``assignments`` may be given as
    any iterable of (task id, look, slot) tuples and is kept as
    ``Assignments`` columns.  The used looks are found once, on first read:
    a schedule is not edited after it is built.
    """

    looks: Looks
    assignments: Assignments
    meta: dict = field(default_factory=dict)
    unschedulable: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.looks, Looks):
            self.looks = Looks.of(self.looks)
        if not isinstance(self.assignments, Assignments):
            self.assignments = Assignments(*zip(*self.assignments))

    @cached_property
    def _assigned(self) -> set[int]:
        return set(self.assignments.look)

    @cached_property
    def _used_keys(self) -> list:
        """The keys of the looks that carry an assignment, in look order:
        the one set both objectives sum over."""
        looks, assigned = self.looks, self._assigned
        return [k for j, k in zip(looks.index, looks.key) if j in assigned]

    def objective(self) -> float:
        """Total dwell (s) of the used looks, summed in look order; the
        exact rational form is ``exact_objective``."""
        dwell = {k: fields[2] for k, fields in self.looks.fields.items()}
        return sum(map(dwell.__getitem__, self._used_keys))

    def n_looks_used(self) -> int:
        """Distinct looks the assignments name; a hand-built schedule may
        name a look it does not list, which no objective sums."""
        return len(self._assigned)


@dataclass
class Violation:
    constraint: str
    detail: str
    look: int | None = None
    task: int | None = None

    def __str__(self):
        where = []
        if self.look is not None:
            where.append(f"look {self.look}")
        if self.task is not None:
            where.append(f"task {self.task}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"{self.constraint}: {self.detail}{suffix}"


def make_look(index: int, table: AvailabilityTable, prf_index: int,
              catalog: DiskCatalog | None = None,
              disk_id: int | None = None) -> ScheduledLook:
    """Look ``index`` of one base: PRF ``prf_index`` with its f_r and dwell,
    and in subarray mode disk ``disk_id`` of ``catalog`` with its center.
    Schedules (``schedule_of``) and the instance's candidate looks build
    their looks here."""
    center = None if disk_id is None else catalog.center(disk_id)
    return ScheduledLook(index, prf_index, table.prfs[prf_index].f_r,
                         table.dwell(prf_index), disk_id, center)


def split_source(source) -> tuple[AvailabilityTable, DiskCatalog | None]:
    """The availability table of a source of bases, and its disk catalog:
    ``None`` for a table (element mode, one base per PRF), the catalog
    itself in subarray mode (one base per disk)."""
    if isinstance(source, DiskCatalog):
        return source.table, source
    if isinstance(source, AvailabilityTable):
        return source, None
    raise TypeError("source must be an AvailabilityTable or DiskCatalog")


def schedule_of(source, looks, meta: dict) -> Schedule:
    """The schedule of ``looks`` over the bases of ``source``: look j (from
    1) is the j-th (base, rows) pair, at a base of ``source`` (a PRF index
    of a table, a disk id of a catalog), with table rows ``rows`` in slots
    1..len(rows).  The looks must place every schedulable row once; the
    table's unschedulable ids ride along.

    The assignment columns are sized once, one entry per schedulable row:
    grown look by look, the three lists' reallocations fragment the heap,
    and the memory a process holds after a 64k-task run creeps up from run
    to run.
    """
    table, catalog = split_source(source)
    ids = table.tasks.ids
    size = table.n_tasks - len(table.unschedulable)
    task, look, slot = [0] * size, [0] * size, [0] * size
    bases = []
    k = 0
    for j, (base, rows) in enumerate(looks, 1):
        bases.append(base)
        m = len(rows)
        task[k:k + m] = map(ids.__getitem__, rows)
        look[k:k + m] = [j] * m
        slot[k:k + m] = range(1, m + 1)
        k += m
    if k != size:
        raise InternalInvariantError(f"the looks place {k} rows of {size} schedulable")
    fields = {base: _look_fields(
        make_look(0, table, base) if catalog is None else
        make_look(0, table, catalog.prf_index[base], catalog, base))
        for base in dict.fromkeys(bases)}
    return Schedule(Looks(range(1, len(bases) + 1), bases, fields),
                    Assignments(task, look, slot), meta, table.unschedulable)


@dataclass
class IpInstance:
    """A concrete instance: the availability table, the disk catalog in
    subarray mode (``None`` in element mode), and ``copies`` identical
    candidate looks per base, read by table row and by base.

    A base is a PRF in element mode and a disk in subarray mode; ``bases``
    lists them as (PRF, disk) pairs in PRF index or disk id order.
    ``looks`` lists the candidate looks, built on first read: base-major,
    ``copies`` per base, indexed from 1.
    """

    table: AvailabilityTable
    catalog: DiskCatalog | None
    copies: int

    @property
    def mode(self) -> str:
        return "edbf" if self.catalog is None else "sdbf"

    @property
    def n_intlv(self) -> int:
        return self.table.cfg.n_intlv

    @property
    def bases(self) -> list[tuple[int, int | None]]:
        if self.catalog is None:
            return [(p, None) for p in range(self.table.n_prfs)]
        return [(p, d) for d, p in enumerate(self.catalog.prf_index)]

    @property
    def l_inf(self) -> int:
        """Smallest valid big-M for C7: n_intlv + max leftward availability + 1."""
        max_al = int(self.table.al.max()) if self.table.al.size else 0
        return self.table.cfg.n_intlv + max_al + 1

    @cached_property
    def looks(self) -> list[ScheduledLook]:
        return [make_look(j, self.table, p, self.catalog, d) for j, (p, d) in enumerate(
            (base for base in self.bases for _ in range(self.copies)), 1)]

    def is_candidate(self, look: ScheduledLook) -> bool:
        """Whether the look equals a candidate look of the instance, up to
        its index: a PRF in 0..P-1 (in subarray mode, a catalog disk of that
        PRF) with that PRF's f_r and dwell and the disk's center."""
        p, d = look.prf_index, look.disk_id
        if self.catalog is None:
            known = d is None and 0 <= p < self.table.n_prfs
        else:
            known = (d is not None and 0 <= d < self.catalog.n_disks
                     and self.catalog.prf_index[d] == p)
        return known and look == make_look(look.index, self.table, p, self.catalog, d)

    def av(self, row: int, look: ScheduledLook) -> bool:
        """C5: whether table row ``row`` may join the look, i.e. the look's
        PRF is available to it and, in subarray mode, the look's disk
        encloses it."""
        return bool(self.table.av[row, look.prf_index]) and (
            self.catalog is None or look.disk_id in self.catalog.task_disks[row])


def dwell_fraction(table: AvailabilityTable, prf_index: int) -> Fraction:
    return Fraction(table.cfg.pulses_per_look) / Fraction(table.prfs[prf_index].f_r)


def build_instance(source, copies: int | None = None) -> IpInstance:
    """Build the instance from an availability table (element mode) or a
    disk catalog (subarray mode).

    ``copies`` is the number of identical candidate looks per PRF or disk;
    element mode defaults to the task count (always enough), subarray mode
    defaults to one look per disk; an explicit ``copies`` below one raises
    ``ValueError``.  Raises when some task has no available look; drop
    unschedulable tasks before building.  No look is built here: the
    instance builds its candidate looks when ``looks`` is first read.
    """
    if copies is not None and copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    table, catalog = split_source(source)
    if table.unschedulable:
        raise InfeasibleError(
            f"{len(table.unschedulable)} task(s) trackable with no PRF",
            task_ids=table.unschedulable,
        )
    if catalog is None:
        n_copies = max(1, table.n_tasks) if copies is None else copies
    else:
        n_copies = 1 if copies is None else copies
        uncovered = [tid for tid, disks in zip(table.tasks.ids, catalog.task_disks)
                     if not disks]
        if uncovered:
            raise InfeasibleError(
                f"{len(uncovered)} task(s) enclosed by no disk", task_ids=uncovered
            )
    return IpInstance(table=table, catalog=catalog, copies=n_copies)


def check_feasible(schedule: Schedule, inst: IpInstance) -> list[Violation]:
    """Validate a schedule against C1..C8; violations are data, not errors.

    Each assignment's task id is mapped to its table row once; an id with no
    row is one C8 violation.  C2 is counted per row and C5..C7 read the row.

    Each schedule look must be a candidate look of the instance up to its
    index (``IpInstance.is_candidate``), and look indices must be unique;
    any other look is one C8 violation, and its assignments are not checked
    against its PRF or disk (C5..C7).  A schedule may use more looks of one
    PRF or disk than the instance has copies without penalty; every
    constraint is per look or per task.
    """
    out: list[Violation] = []
    n = inst.n_intlv
    table = inst.table
    looks = schedule.looks
    # the looks of one key share their fields, so one check answers for
    # all of them, and a look is read from its key only when its
    # assignments are checked
    candidate: dict = {}
    look_map: dict = {}                 # look index -> key of its first look
    foreign: set[int] = set()
    for j, key in zip(looks.index, looks.key):
        if j in look_map:
            out.append(Violation("C8", "look index declared more than once", look=j))
            foreign.add(j)
            continue
        if key not in candidate:
            candidate[key] = inst.is_candidate(ScheduledLook(j, *looks.fields[key]))
        if not candidate[key]:
            out.append(Violation("C8", "look is not a candidate look of the instance", look=j))
            foreign.add(j)
        look_map[j] = key

    task_rows = table.task_rows
    seen = [0] * table.n_tasks
    per_look: dict[int, list[tuple[int, int, int]]] = {}
    for tid, j, k in schedule.assignments:
        row = task_rows.get(tid)
        if row is None:
            out.append(Violation("C8", f"unknown task id {tid}", look=j, task=tid))
            continue
        if j not in look_map:
            out.append(Violation("C8", f"assignment to undeclared look {j}", look=j, task=tid))
            continue
        if not 1 <= k <= n:
            out.append(Violation("C8", f"slot {k} outside 1..{n}", look=j, task=tid))
            continue
        seen[row] += 1
        per_look.setdefault(j, []).append((tid, row, k))

    for tid, count in zip(table.tasks.ids, seen):
        if count != 1:
            out.append(Violation("C2", f"task scheduled {count} times", task=tid))

    for j, members in sorted(per_look.items()):
        lk = ScheduledLook(j, *looks.fields[look_map[j]])
        if len(members) > n:
            out.append(Violation("C1", f"{len(members)} tasks in one look", look=j))
        slots = [k for _, _, k in members]
        if len(set(slots)) != len(slots):
            out.append(Violation("C3", "slot assigned to more than one task", look=j))
        m = max(slots)
        if sorted(set(slots)) != list(range(1, m + 1)):
            out.append(Violation("C4", f"occupied slots {sorted(set(slots))} are not 1..{m}", look=j))
        if j in foreign:
            continue
        p = lk.prf_index
        for tid, row, k in members:
            if not inst.av(row, lk):
                out.append(Violation("C5", "task not available for this look", look=j, task=tid))
                continue
            ar, al = int(table.ar[row, p]), int(table.al[row, p])
            if k > ar:
                out.append(
                    Violation("C6", f"slot {k} exceeds rightward availability {ar}", look=j, task=tid)
                )
            if m > k + al:
                out.append(
                    Violation(
                        "C7",
                        f"{m} tasks overlap the echo window of slot {k} (A_l={al})",
                        look=j,
                        task=tid,
                    )
                )
    return out


def exact_objective(schedule: Schedule, inst: IpInstance) -> Fraction:
    """Exact rational sum of the dwell times of the schedule's used looks."""
    fields = schedule.looks.fields
    return sum((dwell_fraction(inst.table, fields[k][0]) for k in schedule._used_keys),
               Fraction(0))


class _OpenLook:
    __slots__ = ("base", "slots", "max_slot", "min_tol")

    def __init__(self, base, n_intlv):
        self.base = base                        # position in the base list
        self.slots = [None] * (n_intlv + 1)     # table row per slot 1..n_intlv
        self.max_slot = 0
        self.min_tol = n_intlv + 10 ** 9


def check_exact_task_limit(n_tasks: int) -> None:
    """Raise ``ResourceLimitError`` when ``solve_exact`` would refuse an
    instance of ``n_tasks`` tasks; callers check it before any other work."""
    if n_tasks > ORACLE_MAX_TASKS:
        raise ResourceLimitError(
            f"{n_tasks} tasks exceed the exact-solver limit of {ORACLE_MAX_TASKS}",
            limit="exact")


def solve_exact(
    inst: IpInstance,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Schedule | None:
    """Depth-first branch and bound; provably optimal at desk scale.

    Tasks are placed in ascending id order, each into an open look or a
    look it opens on a base (in base order).  Identical look copies of one
    base are interchangeable, so a base opens at most ``inst.copies`` looks,
    one branch each.  Partial objectives at or above the incumbent are
    pruned, as are states whose slot gaps can no longer be filled.  Returns
    None when the instance admits no feasible schedule.
    """
    table, catalog, bases = inst.table, inst.catalog, inst.bases
    n_t = table.n_tasks
    check_exact_task_limit(n_t)
    if len(bases) > ORACLE_MAX_BASES:
        raise ResourceLimitError(
            f"{len(bases)} look templates exceed the exact-solver limit of {ORACLE_MAX_BASES}",
            limit="exact")
    if inst.n_intlv > ORACLE_MAX_INTLV:
        raise ResourceLimitError(
            f"n_intlv={inst.n_intlv} exceeds the exact-solver limit of {ORACLE_MAX_INTLV}",
            limit="exact")

    n = inst.n_intlv
    ids = table.tasks.ids
    order = sorted(range(n_t), key=ids.__getitem__)
    dwell = [dwell_fraction(table, p) for p, _ in bases]
    min_dwell = min(dwell, default=0)
    # row x base availability, A_l and A_r; one look per base, indexed from 1
    base_looks = [make_look(b, table, p, catalog, d) for b, (p, d) in enumerate(bases, 1)]
    av = [[inst.av(row, lk) for lk in base_looks] for row in range(n_t)]
    al = [[int(table.al[row, p]) for p, _ in bases] for row in range(n_t)]
    ar = [[int(table.ar[row, p]) for p, _ in bases] for row in range(n_t)]

    best_obj = None
    best = None                     # (base, rows in slot order) of each incumbent look
    open_looks: list[_OpenLook] = []
    used = [0] * len(bases)
    # objective of the open looks, their free slots, the unfilled slots
    # below each one's highest occupied slot, and the nodes visited
    obj, free, gaps, nodes = Fraction(0), 0, 0, 0

    def branch(ol: _OpenLook, row: int, idx: int) -> None:
        """Place the row in each slot of the look that C3, C5, C6 and C7
        allow, and search on from each placement."""
        nonlocal free, gaps
        b = ol.base
        if not av[row][b]:
            return
        for k in range(1, n + 1):
            if ol.slots[k] is not None or k > ar[row][b]:
                continue
            max_slot, min_tol = ol.max_slot, ol.min_tol
            new_max, new_tol = max(max_slot, k), min(min_tol, k + al[row][b])
            if new_max > new_tol:
                continue
            ol.slots[k] = row
            ol.max_slot, ol.min_tol = new_max, new_tol
            free -= 1
            gaps += new_max - max_slot - 1
            dfs(idx + 1)
            ol.slots[k] = None
            ol.max_slot, ol.min_tol = max_slot, min_tol
            free += 1
            gaps -= new_max - max_slot - 1

    def dfs(idx: int) -> None:
        nonlocal best, best_obj, obj, free, nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(f"exact solver exceeded {node_budget} nodes",
                                     limit="exact")
        rem = n_t - idx
        if rem == 0:
            if gaps == 0 and (best_obj is None or obj < best_obj):
                best_obj = obj
                best = [(ol.base, ol.slots[1:ol.max_slot + 1]) for ol in open_looks]
            return
        if gaps > rem:
            return
        # every task left that no free slot takes needs a share of a new look
        if best_obj is not None and (
                obj + max(0, math.ceil((rem - free) / n)) * min_dwell >= best_obj):
            return
        row = order[idx]
        for ol in open_looks:
            branch(ol, row, idx)
        for b in range(len(bases)):
            if used[b] >= inst.copies or not av[row][b]:
                continue
            used[b] += 1
            open_looks.append(_OpenLook(b, n))
            free += n
            obj += dwell[b]
            branch(open_looks[-1], row, idx)
            obj -= dwell[b]
            free -= n
            open_looks.pop()
            used[b] -= 1

    dfs(0)
    if best is None:
        return None
    return schedule_of(table if catalog is None else catalog, best,
                       {"mode": f"exact-{inst.mode}", "nodes": str(nodes)})


# ---------------------------------------------------------------------------
# LP text export


def _expr(terms) -> str:
    """LP expression of (coefficient, variable) pairs: unit coefficients are
    left out and negative ones are written ``- ``."""
    parts = []
    for coeff, var in terms:
        mag = abs(coeff)
        if mag != 1:
            var = f"{int(mag) if mag == int(mag) else mag} {var}"
        parts.append(("- " if coeff < 0 else "+ " if parts else "") + var)
    return " ".join(parts)


def export_lp(inst: IpInstance, sscfl: bool = False) -> str:
    """The instance's integer program as LP text, rows in C1..C7 order.

    Raises ``ResourceLimitError``, before any look is built, when the text
    could hold more than ``LP_MAX_TERMS`` variable terms.

    With ``sscfl`` the slot dimension is dropped along with the successive
    placement and echo-window rows, leaving the capacitated single-source
    facility-location core.
    """
    n = inst.n_intlv
    table = inst.table
    # each (look, task) pair writes at most n(n + 8) terms (n^2 of them in
    # C7), or 4 in the relaxation, and each look 3 more: refused before
    # ``inst.looks`` builds a look
    terms = len(inst.bases) * inst.copies * (table.n_tasks * (4 if sscfl else n * (n + 8)) + 3)
    if terms > LP_MAX_TERMS:
        raise ResourceLimitError(
            f"the LP export would write up to {terms} terms, "
            f"over the limit of {LP_MAX_TERMS}", limit="lp")
    # (task id, table row) in id order: ids name the variables, rows are read
    tasks = sorted(zip(table.tasks.ids, range(table.n_tasks)))
    al, ar = table.al.tolist(), table.ar.tolist()
    looks = inst.looks
    slots = range(1, n + 1)
    l_inf = inst.l_inf
    lines = [
        f"\\ pulseplan {'sscfl' if sscfl else 'ip'} export v1",
        f"\\ mode={inst.mode} tasks={len(tasks)} looks={len(looks)} "
        f"n_intlv={n} l_inf={l_inf}",
        "Minimize",
        " obj: " + _expr((lk.dwell, f"f_{lk.index}") for lk in looks),
        "Subject To",
    ]

    def row(name, terms, sense, rhs):
        lines.append(f" {name}: {_expr(terms)} {sense} {rhs}")

    def h(t, j):
        """Task ``t``'s variables in look ``j``: one, or one per slot."""
        return [f"h_{t}_{j}"] if sscfl else [f"h_{t}_{j}_{k}" for k in slots]

    for lk in looks:
        j = lk.index
        row(f"c1_{j}", [(1, v) for t, _ in tasks for v in h(t, j)] + [(-n, f"f_{j}")], "<=", 0)
    for t, _ in tasks:
        row(f"c2_{t}", [(1, v) for lk in looks for v in h(t, lk.index)], "=", 1)
    if not sscfl:
        for lk in looks:
            for k in slots:
                row(f"c3_{lk.index}_{k}", [(1, f"h_{t}_{lk.index}_{k}") for t, _ in tasks],
                    "<=", 1)
        for lk in looks:
            for k in range(1, n):
                row(f"c4_{lk.index}_{k}", [(1, f"h_{t}_{lk.index}_{k}") for t, _ in tasks]
                    + [(-1, f"h_{t}_{lk.index}_{k + 1}") for t, _ in tasks], ">=", 0)
    for t, r in tasks:
        for lk in looks:
            row(f"c5_{t}_{lk.index}", [(1, v) for v in h(t, lk.index)], "<=",
                int(inst.av(r, lk)))
    if not sscfl:
        for lk in looks:
            for k in slots:
                # a task whose A_r equals k has a zero coefficient; an empty
                # row is left out
                terms = [(c, f"h_{t}_{lk.index}_{k}") for t, r in tasks
                         if (c := k - ar[r][lk.prf_index])]
                if terms:
                    row(f"c6_{lk.index}_{k}", terms, "<=", 0)
        for lk in looks:
            for k in slots:
                # l_inf > k + A_l, so every coefficient is at least 1
                row(f"c7_{lk.index}_{k}",
                    [(1 + (l_inf - k - al[r][lk.prf_index] if kk == k else 0),
                      f"h_{t}_{lk.index}_{kk}") for t, r in tasks for kk in slots],
                    "<=", l_inf)
    binaries = [v for t, _ in tasks for lk in looks for v in h(t, lk.index)]
    binaries += [f"f_{lk.index}" for lk in looks]
    lines += ["Binaries", " " + " ".join(binaries), "End"]
    return "\n".join(lines) + "\n"
