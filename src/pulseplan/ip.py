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
schedule and a candidate look of an instance alike.  An ``IpInstance`` is
the availability table (and, in subarray mode, the disk catalog) plus a copy
count; it builds its candidate looks when ``looks`` is first read, so the
checker, which reads none of them, never pays for them.  A schedule look
that is no candidate look of the instance, or that repeats an index, is a
C8 violation.

This module validates any schedule against those constraints, solves small
instances exactly by depth-first branch and bound, and writes instances as
LP text (``export_lp``), optionally as the capacitated facility-location
relaxation that drops slot structure.  The LP text is output only: its rows
are formatted straight from the ``IpInstance`` (looks plus ``av``/``al``/
``ar``), which is also what a numeric solver should build its matrices from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction

from .errors import InfeasibleError, InternalInvariantError, ResourceLimitError
from .geometry import DiskCatalog
from .radar import AvailabilityTable

ORACLE_MAX_TASKS = 10
ORACLE_MAX_BASES = 48
ORACLE_MAX_INTLV = 4
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class ScheduledLook:
    """One look: of a produced schedule, or a candidate look of an instance."""

    index: int                     # 1-based position in the schedule or instance
    prf_index: int
    f_r: float
    dwell: float
    disk_id: int | None = None
    disk_center: tuple[float, float] | None = None


@dataclass
class Schedule:
    """Assignment triples plus per-look metadata; the scheduler's output."""

    looks: list[ScheduledLook]
    assignments: list[tuple[int, int, int]]    # (task_id, look_index, slot)
    meta: dict = field(default_factory=dict)
    unschedulable: tuple[int, ...] = ()

    def objective(self) -> float:
        """Total dwell (s) of the looks that carry an assignment; the exact
        rational form is ``exact_objective``."""
        used = {j for _, j, _ in self.assignments}
        return sum(lk.dwell for lk in self.looks if lk.index in used)

    def n_looks_used(self) -> int:
        return len({j for _, j, _ in self.assignments})

    def by_look(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {lk.index: [] for lk in self.looks}
        for tid, j, k in self.assignments:
            out.setdefault(j, []).append((tid, k))
        return out


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


@dataclass
class IpInstance:
    """A concrete instance: the availability table (element mode) or the
    disk catalog too (subarray mode), plus ``copies`` identical candidate
    looks per base.

    A base is a PRF in element mode and a disk in subarray mode; bases go in
    PRF index or disk id order.  ``looks`` lists the candidate looks, built
    on first read: base-major, ``copies`` per base, indexed from 1.
    """

    mode: str
    table: AvailabilityTable
    task_ids: tuple[int, ...]
    copies: int
    catalog: DiskCatalog | None = None
    _disk_sets: dict[int, frozenset] = field(default_factory=dict, repr=False)

    @property
    def n_intlv(self) -> int:
        return self.table.cfg.n_intlv

    @property
    def n_bases(self) -> int:
        return self.table.n_prfs if self.catalog is None else self.catalog.n_disks

    @property
    def l_inf(self) -> int:
        """Smallest valid big-M for C7: n_intlv + max leftward availability + 1."""
        max_al = int(self.table.al.max()) if self.table.al.size else 0
        return self.table.cfg.n_intlv + max_al + 1

    def candidate(self, index: int, prf_index: int,
                  disk_id: int | None = None) -> ScheduledLook:
        """The candidate look of one base (PRF, and disk in subarray mode)."""
        center = None if disk_id is None else self.catalog.center(disk_id)
        return ScheduledLook(index, prf_index, self.table.prfs[prf_index].f_r,
                             self.table.dwell(prf_index), disk_id, center)

    @cached_property
    def looks(self) -> list[ScheduledLook]:
        if self.catalog is None:
            bases = [(p, None) for p in range(self.table.n_prfs)]
        else:
            bases = [(p, d) for d, p in enumerate(self.catalog.prf_index)]
        return [self.candidate(j, p, d) for j, (p, d) in enumerate(
            (base for base in bases for _ in range(self.copies)), 1)]

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
        return known and look == self.candidate(look.index, p, d)

    def av(self, task_id: int, look: ScheduledLook) -> bool:
        row = self.table.row_of(task_id)
        if not self.table.av[row, look.prf_index]:
            return False
        if self.mode == "sdbf":
            disk_id = look.disk_id
            if disk_id is None:
                return False
            members = self._disk_sets.get(disk_id)
            if members is None:
                members = frozenset(self.catalog.disk_tasks(disk_id))
                self._disk_sets[disk_id] = members
            return row in members
        return True

    def al(self, task_id: int, look: ScheduledLook) -> int:
        return int(self.table.al[self.table.row_of(task_id), look.prf_index])

    def ar(self, task_id: int, look: ScheduledLook) -> int:
        return int(self.table.ar[self.table.row_of(task_id), look.prf_index])


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
    if isinstance(source, DiskCatalog):
        catalog, table, mode = source, source.table, "sdbf"
    elif isinstance(source, AvailabilityTable):
        catalog, table, mode = None, source, "edbf"
    else:
        raise TypeError("source must be an AvailabilityTable or DiskCatalog")

    if table.unschedulable:
        raise InfeasibleError(
            f"{len(table.unschedulable)} task(s) trackable with no PRF",
            task_ids=table.unschedulable,
        )
    task_ids = tuple(table.tasks.ids)

    if mode == "edbf":
        n_copies = max(1, len(task_ids)) if copies is None else copies
    else:
        n_copies = 1 if copies is None else copies
        uncovered = [
            tid for tid, disks in zip(task_ids, catalog.task_disks) if not disks
        ]
        if uncovered:
            raise InfeasibleError(
                f"{len(uncovered)} task(s) enclosed by no disk", task_ids=uncovered
            )
    return IpInstance(
        mode=mode, table=table, task_ids=task_ids, copies=n_copies, catalog=catalog
    )


def check_feasible(schedule: Schedule, inst: IpInstance) -> list[Violation]:
    """Validate a schedule against C1..C8; violations are data, not errors.

    Each schedule look must be a candidate look of the instance up to its
    index (``IpInstance.is_candidate``), and look indices must be unique;
    any other look is one C8 violation, and its assignments are not checked
    against its PRF or disk (C5..C7).  A schedule may use more looks of one
    PRF or disk than the instance has copies without penalty; every
    constraint is per look or per task.
    """
    out: list[Violation] = []
    n = inst.n_intlv
    known = set(inst.task_ids)
    look_map: dict[int, ScheduledLook] = {}
    foreign: set[int] = set()
    for lk in schedule.looks:
        j = lk.index
        if j in look_map:
            out.append(Violation("C8", "look index declared more than once", look=j))
            foreign.add(j)
        elif not inst.is_candidate(lk):
            out.append(Violation("C8", "look is not a candidate look of the instance", look=j))
            foreign.add(j)
        look_map.setdefault(j, lk)

    seen: dict[int, int] = {}
    per_look: dict[int, list[tuple[int, int]]] = {}
    for tid, j, k in schedule.assignments:
        if tid not in known:
            out.append(Violation("C8", f"unknown task id {tid}", look=j, task=tid))
            continue
        if j not in look_map:
            out.append(Violation("C8", f"assignment to undeclared look {j}", look=j, task=tid))
            continue
        if not 1 <= k <= n:
            out.append(Violation("C8", f"slot {k} outside 1..{n}", look=j, task=tid))
            continue
        seen[tid] = seen.get(tid, 0) + 1
        per_look.setdefault(j, []).append((tid, k))

    for tid in inst.task_ids:
        count = seen.get(tid, 0)
        if count != 1:
            out.append(Violation("C2", f"task scheduled {count} times", task=tid))

    for j, rows in sorted(per_look.items()):
        lk = look_map[j]
        if len(rows) > n:
            out.append(Violation("C1", f"{len(rows)} tasks in one look", look=j))
        slots = [k for _, k in rows]
        if len(set(slots)) != len(slots):
            out.append(Violation("C3", "slot assigned to more than one task", look=j))
        m = max(slots)
        if sorted(set(slots)) != list(range(1, m + 1)):
            out.append(Violation("C4", f"occupied slots {sorted(set(slots))} are not 1..{m}", look=j))
        if j in foreign:
            continue
        for tid, k in rows:
            if not inst.av(tid, lk):
                out.append(Violation("C5", "task not available for this look", look=j, task=tid))
                continue
            if k > inst.ar(tid, lk):
                out.append(
                    Violation("C6", f"slot {k} exceeds rightward availability {inst.ar(tid, lk)}", look=j, task=tid)
                )
            if m > k + inst.al(tid, lk):
                out.append(
                    Violation(
                        "C7",
                        f"{m} tasks overlap the echo window of slot {k} (A_l={inst.al(tid, lk)})",
                        look=j,
                        task=tid,
                    )
                )
    return out


def exact_objective(schedule: Schedule, inst: IpInstance) -> Fraction:
    """Exact rational sum of the dwell times of looks with an assignment."""
    used = {j for _, j, _ in schedule.assignments}
    total = Fraction(0)
    for lk in schedule.looks:
        if lk.index in used:
            total += dwell_fraction(inst.table, lk.prf_index)
    return total


class _OpenLook:
    __slots__ = ("look", "base", "slots", "count", "max_slot", "min_tol")

    def __init__(self, look, base, n_intlv):
        self.look = look
        self.base = base
        self.slots = [None] * (n_intlv + 1)
        self.count = 0
        self.max_slot = 0
        self.min_tol = n_intlv + 10 ** 9


def check_exact_task_limit(n_tasks: int) -> None:
    """Raise ``ResourceLimitError`` when ``solve_exact`` would refuse an
    instance of ``n_tasks`` tasks; callers check it before any other work."""
    if n_tasks > ORACLE_MAX_TASKS:
        raise ResourceLimitError(
            f"{n_tasks} tasks exceed the exact-solver limit of {ORACLE_MAX_TASKS}"
        )


def solve_exact(
    inst: IpInstance,
    node_budget: int = DEFAULT_NODE_BUDGET,
    warm: Schedule | None = None,
) -> Schedule | None:
    """Depth-first branch and bound; provably optimal at desk scale.

    Identical look copies of one base are interchangeable, so a fresh look
    is only ever opened on the lowest-index unused copy of each base.
    Partial objectives at or above the incumbent are pruned, as are states
    whose slot gaps can no longer be filled.  Returns None when the
    instance admits no feasible schedule.
    """
    n_t = len(inst.task_ids)
    check_exact_task_limit(n_t)
    if inst.n_bases > ORACLE_MAX_BASES:
        raise ResourceLimitError(
            f"{inst.n_bases} look templates exceed the exact-solver limit of {ORACLE_MAX_BASES}"
        )
    if inst.n_intlv > ORACLE_MAX_INTLV:
        raise ResourceLimitError(
            f"n_intlv={inst.n_intlv} exceeds the exact-solver limit of {ORACLE_MAX_INTLV}"
        )

    n = inst.n_intlv
    tasks = sorted(inst.task_ids)
    # one base per PRF (element mode) or disk (subarray mode)
    by_disk = inst.mode == "sdbf"
    bases: dict[int, list[ScheduledLook]] = {}
    for lk in inst.looks:
        bases.setdefault(lk.disk_id if by_disk else lk.prf_index, []).append(lk)
    base_ids = sorted(bases)
    dwell_frac = [dwell_fraction(inst.table, p) for p in range(inst.table.n_prfs)]
    min_dwell = min(dwell_frac[lk.prf_index] for lk in inst.looks)

    av = {
        (tid, b): inst.av(tid, bases[b][0])
        for tid in tasks
        for b in base_ids
    }
    al = {(tid, b): inst.al(tid, bases[b][0]) for tid in tasks for b in base_ids}
    ar = {(tid, b): inst.ar(tid, bases[b][0]) for tid in tasks for b in base_ids}

    best_obj: list[Fraction | None] = [None]
    best_assign: list[list | None] = [None]
    if warm is not None:
        if check_feasible(warm, inst):
            raise InternalInvariantError("warm-start schedule is infeasible")
        best_obj[0] = exact_objective(warm, inst)

    open_looks: list[_OpenLook] = []
    used_copies = {b: 0 for b in base_ids}
    state = {"obj": Fraction(0), "free": 0, "gaps": 0, "nodes": 0}

    def lower_bound(rem: int) -> Fraction:
        short = rem - state["free"]
        if short <= 0:
            return state["obj"]
        return state["obj"] + math.ceil(short / n) * min_dwell

    def place(ol: _OpenLook, tid: int, k: int) -> tuple | None:
        b = ol.base
        if ol.slots[k] is not None or ol.count >= n:
            return None
        if not av[(tid, b)] or k > ar[(tid, b)]:
            return None
        new_max = max(ol.max_slot, k)
        new_tol = min(ol.min_tol, k + al[(tid, b)])
        if new_max > new_tol:
            return None
        return (ol.max_slot, ol.min_tol)

    def apply(ol: _OpenLook, tid: int, k: int) -> None:
        old_gap = ol.max_slot - ol.count
        ol.slots[k] = tid
        ol.count += 1
        ol.max_slot = max(ol.max_slot, k)
        ol.min_tol = min(ol.min_tol, k + al[(tid, ol.base)])
        state["free"] -= 1
        state["gaps"] += (ol.max_slot - ol.count) - old_gap

    def undo(ol: _OpenLook, k: int, saved) -> None:
        old_gap = ol.max_slot - ol.count
        ol.slots[k] = None
        ol.count -= 1
        ol.max_slot, ol.min_tol = saved
        state["free"] += 1
        state["gaps"] += (ol.max_slot - ol.count) - old_gap

    def record() -> None:
        looks_out = []
        assigns = []
        for ol in open_looks:
            if ol.count == 0:
                continue
            j = len(looks_out) + 1
            looks_out.append(replace(ol.look, index=j))
            for k in range(1, n + 1):
                if ol.slots[k] is not None:
                    assigns.append((ol.slots[k], j, k))
        best_assign[0] = (looks_out, sorted(assigns, key=lambda a: (a[1], a[2])))

    def dfs(idx: int) -> None:
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            raise ResourceLimitError(f"exact solver exceeded {node_budget} nodes")
        rem = n_t - idx
        if rem == 0:
            if state["gaps"] == 0 and (best_obj[0] is None or state["obj"] < best_obj[0]):
                best_obj[0] = state["obj"]
                record()
            return
        if state["gaps"] > rem:
            return
        if best_obj[0] is not None and lower_bound(rem) >= best_obj[0]:
            return
        tid = tasks[idx]
        for ol in open_looks:
            if ol.count == 0:
                continue
            for k in range(1, n + 1):
                saved = place(ol, tid, k)
                if saved is None:
                    continue
                apply(ol, tid, k)
                dfs(idx + 1)
                undo(ol, k, saved)
        for b in base_ids:
            if used_copies[b] >= len(bases[b]) or not av[(tid, b)]:
                continue
            look = bases[b][used_copies[b]]
            ol = _OpenLook(look, b, n)
            used_copies[b] += 1
            open_looks.append(ol)
            state["free"] += n
            state["obj"] += dwell_frac[look.prf_index]
            for k in range(1, n + 1):
                saved = place(ol, tid, k)
                if saved is None:
                    continue
                apply(ol, tid, k)
                dfs(idx + 1)
                undo(ol, k, saved)
            state["obj"] -= dwell_frac[look.prf_index]
            state["free"] -= n
            open_looks.pop()
            used_copies[b] -= 1

    dfs(0)
    if best_assign[0] is None:
        if best_obj[0] is not None and warm is not None:
            return warm
        return None
    looks_out, assigns = best_assign[0]
    return Schedule(
        looks=looks_out,
        assignments=assigns,
        meta={"mode": f"exact-{inst.mode}", "nodes": str(state["nodes"])},
    )


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

    With ``sscfl`` the slot dimension is dropped along with the successive
    placement and echo-window rows, leaving the capacitated single-source
    facility-location core.
    """
    n = inst.n_intlv
    tasks = sorted(inst.task_ids)
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

    if sscfl:
        for lk in looks:
            j = lk.index
            row(f"c1_{j}", [(1, f"h_{t}_{j}") for t in tasks] + [(-n, f"f_{j}")], "<=", 0)
        for t in tasks:
            row(f"c2_{t}", [(1, f"h_{t}_{lk.index}") for lk in looks], "=", 1)
        for t in tasks:
            for lk in looks:
                row(f"c5_{t}_{lk.index}", [(1, f"h_{t}_{lk.index}")], "<=",
                    int(inst.av(t, lk)))
        binaries = [f"h_{t}_{lk.index}" for t in tasks for lk in looks]
    else:
        for lk in looks:
            j = lk.index
            row(f"c1_{j}", [(1, f"h_{t}_{j}_{k}") for t in tasks for k in slots]
                + [(-n, f"f_{j}")], "<=", 0)
        for t in tasks:
            row(f"c2_{t}", [(1, f"h_{t}_{lk.index}_{k}") for lk in looks for k in slots],
                "=", 1)
        for lk in looks:
            for k in slots:
                row(f"c3_{lk.index}_{k}", [(1, f"h_{t}_{lk.index}_{k}") for t in tasks],
                    "<=", 1)
        for lk in looks:
            for k in range(1, n):
                row(f"c4_{lk.index}_{k}", [(1, f"h_{t}_{lk.index}_{k}") for t in tasks]
                    + [(-1, f"h_{t}_{lk.index}_{k + 1}") for t in tasks], ">=", 0)
        for t in tasks:
            for lk in looks:
                row(f"c5_{t}_{lk.index}", [(1, f"h_{t}_{lk.index}_{k}") for k in slots],
                    "<=", int(inst.av(t, lk)))
        for lk in looks:
            for k in slots:
                # a task whose A_r equals k has a zero coefficient; an empty
                # row is left out
                terms = [(c, f"h_{t}_{lk.index}_{k}") for t in tasks
                         if (c := k - inst.ar(t, lk))]
                if terms:
                    row(f"c6_{lk.index}_{k}", terms, "<=", 0)
        for lk in looks:
            for k in slots:
                # l_inf > k + A_l, so every coefficient is at least 1
                row(f"c7_{lk.index}_{k}",
                    [(1 + (l_inf - k - inst.al(t, lk) if kk == k else 0),
                      f"h_{t}_{lk.index}_{kk}") for t in tasks for kk in slots],
                    "<=", l_inf)
        binaries = [f"h_{t}_{lk.index}_{k}" for t in tasks for lk in looks for k in slots]
    binaries += [f"f_{lk.index}" for lk in looks]
    lines += ["Binaries", " " + " ".join(binaries), "End"]
    return "\n".join(lines) + "\n"
