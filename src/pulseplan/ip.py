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

This module validates any schedule against those constraints, solves small
instances exactly by depth-first branch and bound, and exports instances in
LP text format (optionally as the capacitated facility-location relaxation
that drops slot structure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InfeasibleError, InternalInvariantError, ResourceLimitError
from .geometry import DiskCatalog
from .radar import AvailabilityTable

ORACLE_MAX_TASKS = 10
ORACLE_MAX_BASES = 48
ORACLE_MAX_INTLV = 4
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class Look:
    """One candidate look of an instance: a PRF (and disk) with its dwell."""

    index: int
    prf_index: int
    dwell: float
    dwell_frac: Fraction
    base: int                      # base template id (PRF or disk)
    disk_id: int | None = None


@dataclass(frozen=True)
class ScheduledLook:
    """One look of a produced schedule."""

    index: int                     # 1-based position in the schedule
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
    """A concrete instance: candidate looks plus availability lookups.

    Element mode expands each PRF into ``copies`` identical candidate looks
    (enough for any schedule to embed); subarray mode expands each disk.
    """

    mode: str
    table: AvailabilityTable
    looks: list[Look]
    task_ids: tuple[int, ...]
    catalog: DiskCatalog | None = None
    _disk_sets: dict[int, frozenset] = field(default_factory=dict, repr=False)

    @property
    def n_intlv(self) -> int:
        return self.table.cfg.n_intlv

    @property
    def n_looks(self) -> int:
        return len(self.looks)

    @property
    def n_bases(self) -> int:
        return len({lk.base for lk in self.looks})

    def var_count(self) -> int:
        n_t = len(self.task_ids)
        return n_t * self.n_looks * self.n_intlv + self.n_looks

    @property
    def l_inf(self) -> int:
        """Smallest valid big-M for C7: n_intlv + max leftward availability + 1."""
        max_al = int(self.table.al.max()) if self.table.al.size else 0
        return self.table.cfg.n_intlv + max_al + 1

    def av(self, task_id: int, look) -> bool:
        row = self.table.row_of(task_id)
        p = look.prf_index
        if not self.table.av[row, p]:
            return False
        disk_id = getattr(look, "disk_id", None)
        if self.mode == "sdbf":
            if disk_id is None:
                return False
            members = self._disk_sets.get(disk_id)
            if members is None:
                members = frozenset(self.catalog.disks[disk_id].tasks)
                self._disk_sets[disk_id] = members
            return task_id in members
        return True

    def al(self, task_id: int, look) -> int:
        return int(self.table.al[self.table.row_of(task_id), look.prf_index])

    def ar(self, task_id: int, look) -> int:
        return int(self.table.ar[self.table.row_of(task_id), look.prf_index])


def dwell_fraction(table: AvailabilityTable, prf_index: int) -> Fraction:
    return Fraction(table.cfg.pulses_per_look) / Fraction(table.prfs[prf_index].f_r)


def build_instance(source, copies: int | None = None) -> IpInstance:
    """Build the instance from an availability table (element mode) or a
    disk catalog (subarray mode).

    ``copies`` is the number of identical candidate looks per PRF or disk;
    element mode defaults to the task count (always enough), subarray mode
    defaults to one look per disk.  Raises when some task has no available
    look; drop unschedulable tasks before building.
    """
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
    task_ids = tuple(t.id for t in table.tasks)

    looks: list[Look] = []
    if mode == "edbf":
        n_copies = len(task_ids) if copies is None else copies
        for p in range(table.n_prfs):
            frac = dwell_fraction(table, p)
            for _ in range(max(1, n_copies)):
                looks.append(
                    Look(
                        index=len(looks) + 1,
                        prf_index=p,
                        dwell=table.dwell(p),
                        dwell_frac=frac,
                        base=p,
                    )
                )
    else:
        n_copies = 1 if copies is None else copies
        uncovered = [
            tid for tid in task_ids if not catalog.task_disks.get(tid)
        ]
        if uncovered:
            raise InfeasibleError(
                f"{len(uncovered)} task(s) enclosed by no disk", task_ids=uncovered
            )
        for disk in catalog.disks:
            frac = dwell_fraction(table, disk.prf_index)
            for _ in range(max(1, n_copies)):
                looks.append(
                    Look(
                        index=len(looks) + 1,
                        prf_index=disk.prf_index,
                        dwell=table.dwell(disk.prf_index),
                        dwell_frac=frac,
                        base=disk.id,
                        disk_id=disk.id,
                    )
                )
    return IpInstance(
        mode=mode, table=table, looks=looks, task_ids=task_ids, catalog=catalog
    )


def check_feasible(schedule: Schedule, inst: IpInstance) -> list[Violation]:
    """Validate a schedule against C1..C8; violations are data, not errors.

    The schedule's own looks (each carrying a PRF and, in subarray mode, a
    disk) are validated against the instance's availability data, so a
    schedule may use more looks of one PRF or disk than the instance
    enumerates without penalty; every constraint is per look or per task.
    """
    out: list[Violation] = []
    n = inst.n_intlv
    known = set(inst.task_ids)
    look_map = {lk.index: lk for lk in schedule.looks}

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
    __slots__ = ("look", "slots", "count", "max_slot", "min_tol")

    def __init__(self, look, n_intlv):
        self.look = look
        self.slots = [None] * (n_intlv + 1)
        self.count = 0
        self.max_slot = 0
        self.min_tol = n_intlv + 10 ** 9


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
    if n_t > ORACLE_MAX_TASKS:
        raise ResourceLimitError(
            f"{n_t} tasks exceed the exact-solver limit of {ORACLE_MAX_TASKS}"
        )
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
    bases: dict[int, list[Look]] = {}
    for lk in inst.looks:
        bases.setdefault(lk.base, []).append(lk)
    base_ids = sorted(bases)
    min_dwell = min(lk.dwell_frac for lk in inst.looks)

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
        b = ol.look.base
        if ol.slots[k] is not None or ol.count >= n:
            return None
        if not av[(tid, b)] or k > ar[(tid, b)]:
            return None
        new_max = max(ol.max_slot, k)
        new_tol = min(ol.min_tol, k + al[(tid, b)])
        if new_max > new_tol:
            return None
        return (ol.max_slot, ol.min_tol)

    def apply(ol: _OpenLook, tid: int, k: int, saved) -> None:
        old_gap = ol.max_slot - ol.count
        ol.slots[k] = tid
        ol.count += 1
        ol.max_slot = max(ol.max_slot, k)
        ol.min_tol = min(ol.min_tol, k + al[(tid, ol.look.base)])
        state["free"] -= 1
        state["gaps"] += (ol.max_slot - ol.count) - old_gap

    def undo(ol: _OpenLook, tid: int, k: int, saved) -> None:
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
            lk = ol.look
            center = (
                inst.catalog.center(lk.disk_id)
                if inst.catalog is not None and lk.disk_id is not None
                else None
            )
            looks_out.append(
                ScheduledLook(
                    index=j,
                    prf_index=lk.prf_index,
                    f_r=inst.table.prfs[lk.prf_index].f_r,
                    dwell=inst.table.dwell(lk.prf_index),
                    disk_id=lk.disk_id,
                    disk_center=center,
                )
            )
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
                apply(ol, tid, k, saved)
                dfs(idx + 1)
                undo(ol, tid, k, saved)
        for b in base_ids:
            if used_copies[b] >= len(bases[b]) or not av[(tid, b)]:
                continue
            look = bases[b][used_copies[b]]
            ol = _OpenLook(look, n)
            used_copies[b] += 1
            open_looks.append(ol)
            state["free"] += n
            state["obj"] += look.dwell_frac
            for k in range(1, n + 1):
                saved = place(ol, tid, k)
                if saved is None:
                    continue
                apply(ol, tid, k, saved)
                dfs(idx + 1)
                undo(ol, tid, k, saved)
            state["obj"] -= look.dwell_frac
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


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        x = float(x)
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return repr(x) if isinstance(x, float) else str(x)


@dataclass
class LpModel:
    """Parsed form of our own LP exports; re-emits byte-identically."""

    comments: list[str]
    objective: list[tuple[int, str | None, str]]      # (sign, coeff, var)
    constraints: list[tuple[str, list[tuple[int, str | None, str]], str, str]]
    binaries: list[str]


def _emit_terms(terms) -> str:
    parts = []
    for i, (sign, coeff, var) in enumerate(terms):
        op = ("- " if sign < 0 else "") if i == 0 else ("- " if sign < 0 else "+ ")
        body = f"{coeff} {var}" if coeff is not None else var
        parts.append(("" if i == 0 else " ") + op + body)
    return "".join(parts)


def emit_lp(model: LpModel) -> str:
    lines = [f"\\ {c}" for c in model.comments]
    lines.append("Minimize")
    lines.append(" obj: " + _emit_terms(model.objective))
    lines.append("Subject To")
    for name, terms, sense, rhs in model.constraints:
        lines.append(f" {name}: {_emit_terms(terms)} {sense} {rhs}")
    lines.append("Binaries")
    lines.append(" " + " ".join(model.binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _term(coeff, var) -> tuple[int, str | None, str]:
    if isinstance(coeff, Fraction):
        coeff = float(coeff)
    sign = -1 if coeff < 0 else 1
    mag = abs(coeff)
    if mag == 1:
        return (sign, None, var)
    return (sign, _fmt(mag), var)


def build_lp_model(inst: IpInstance, sscfl: bool = False) -> LpModel:
    """Assemble the LP rows for an instance.

    With ``sscfl`` the slot dimension is dropped along with the successive
    placement and echo-window rows, leaving the capacitated single-source
    facility-location core.
    """
    n = inst.n_intlv
    tasks = sorted(inst.task_ids)
    looks = inst.looks
    l_inf = inst.l_inf
    kind = "sscfl" if sscfl else "ip"
    comments = [
        f"pulseplan {kind} export v1",
        f"mode={inst.mode} tasks={len(tasks)} looks={len(looks)} "
        f"n_intlv={n} l_inf={l_inf}",
    ]

    def h(tid, j, k=None):
        return f"h_{tid}_{j}" if k is None else f"h_{tid}_{j}_{k}"

    objective = [_term(lk.dwell, f"f_{lk.index}") for lk in looks]
    cons = []
    if sscfl:
        for lk in looks:
            terms = [_term(1, h(t, lk.index)) for t in tasks]
            terms.append(_term(-n, f"f_{lk.index}"))
            cons.append((f"c1_{lk.index}", terms, "<=", "0"))
        for t in tasks:
            terms = [_term(1, h(t, lk.index)) for lk in looks]
            cons.append((f"c2_{t}", terms, "=", "1"))
        for t in tasks:
            for lk in looks:
                cons.append(
                    (f"c5_{t}_{lk.index}", [_term(1, h(t, lk.index))], "<=",
                     _fmt(1 if inst.av(t, lk) else 0))
                )
        binaries = [h(t, lk.index) for t in tasks for lk in looks]
        binaries += [f"f_{lk.index}" for lk in looks]
        return LpModel(comments, objective, cons, binaries)

    for lk in looks:
        j = lk.index
        terms = [_term(1, h(t, j, k)) for t in tasks for k in range(1, n + 1)]
        terms.append(_term(-n, f"f_{j}"))
        cons.append((f"c1_{j}", terms, "<=", "0"))
    for t in tasks:
        terms = [_term(1, h(t, lk.index, k)) for lk in looks for k in range(1, n + 1)]
        cons.append((f"c2_{t}", terms, "=", "1"))
    for lk in looks:
        for k in range(1, n + 1):
            terms = [_term(1, h(t, lk.index, k)) for t in tasks]
            cons.append((f"c3_{lk.index}_{k}", terms, "<=", "1"))
    for lk in looks:
        for k in range(1, n):
            terms = [_term(1, h(t, lk.index, k)) for t in tasks]
            terms += [_term(-1, h(t, lk.index, k + 1)) for t in tasks]
            cons.append((f"c4_{lk.index}_{k}", terms, ">=", "0"))
    for t in tasks:
        for lk in looks:
            terms = [_term(1, h(t, lk.index, k)) for k in range(1, n + 1)]
            cons.append(
                (f"c5_{t}_{lk.index}", terms, "<=", _fmt(1 if inst.av(t, lk) else 0))
            )
    for lk in looks:
        for k in range(1, n + 1):
            terms = []
            for t in tasks:
                coeff = k - inst.ar(t, lk)
                if coeff != 0:
                    terms.append(_term(coeff, h(t, lk.index, k)))
            if terms:
                cons.append((f"c6_{lk.index}_{k}", terms, "<=", "0"))
    for lk in looks:
        j = lk.index
        for k in range(1, n + 1):
            terms = []
            for t in tasks:
                for kk in range(1, n + 1):
                    coeff = 1
                    if kk == k:
                        coeff += l_inf - (k + inst.al(t, lk))
                    if coeff != 0:
                        terms.append(_term(coeff, h(t, j, kk)))
            cons.append((f"c7_{j}_{k}", terms, "<=", _fmt(l_inf)))

    binaries = [
        h(t, lk.index, k) for t in tasks for lk in looks for k in range(1, n + 1)
    ]
    binaries += [f"f_{lk.index}" for lk in looks]
    return LpModel(comments, objective, cons, binaries)


def export_lp(inst: IpInstance, sscfl: bool = False) -> str:
    return emit_lp(build_lp_model(inst, sscfl=sscfl))


def _parse_terms(text: str) -> list[tuple[int, str | None, str]]:
    tokens = text.split()
    terms = []
    sign = 1
    pending: str | None = None
    for tok in tokens:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif tok[0].isdigit() or (tok[0] == "." and len(tok) > 1):
            pending = tok
        else:
            terms.append((sign, pending, tok))
            sign = 1
            pending = None
    return terms


def parse_lp(text: str) -> LpModel:
    """Parse the subset of LP format produced by :func:`export_lp`."""
    comments: list[str] = []
    objective = []
    constraints = []
    binaries: list[str] = []
    section = None
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("\\"):
            comments.append(line[1:].strip())
            continue
        if line in ("Minimize", "Subject To", "Binaries", "End"):
            section = line
            continue
        body = line.strip()
        if section == "Minimize":
            _, expr = body.split(":", 1)
            objective = _parse_terms(expr)
        elif section == "Subject To":
            name, rest = body.split(":", 1)
            tokens = rest.split()
            sense_pos = max(
                i for i, tok in enumerate(tokens) if tok in ("<=", ">=", "=")
            )
            terms = _parse_terms(" ".join(tokens[:sense_pos]))
            constraints.append((name.strip(), terms, tokens[sense_pos], tokens[sense_pos + 1]))
        elif section == "Binaries":
            binaries.extend(body.split())
    return LpModel(comments, objective, constraints, binaries)
