"""Independent reference implementations the tests check against.

Everything here deliberately recomputes from first principles (interval
containment, explicit timelines, exhaustive enumeration) rather than calling
the production code paths it validates.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from pulseplan.edbf import Episode
from pulseplan.errors import InternalInvariantError
from pulseplan.geometry import DiskCatalog
from pulseplan.io import SCENARIO_TAG, SCHEDULE_TAG
from pulseplan.ip import dwell_fraction
from pulseplan.radar import (
    RadarConfig,
    TrackTask,
    availability_arrays,
    default_prf_set,
)
from pulseplan.scenario import _uniform_disk
from pulseplan.structures import (
    IndexedSet,
    OpCounters,
    TaskStore,
    _leaf_path,
    build_backend,
)


def task_store(entries, n_intlv):
    """A one-PRF ``TaskStore`` holding (tid, A_l, A_r, priority) entries,
    each at the row equal to its task id (ids are small non-negative ints).
    Rows no entry names are padding that no backend holds."""
    n = max((e[0] for e in entries), default=-1) + 1
    av = np.zeros((n, 1), dtype=bool)
    al = np.zeros((n, 1), dtype=np.int64)
    ar = np.zeros((n, 1), dtype=np.int64)
    prio = np.zeros(n)
    for tid, a, b, pr in entries:
        av[tid], al[tid], ar[tid], prio[tid] = True, a, b, pr
    return TaskStore(n_intlv, range(n), av, al, ar, prio)


def backend_over(kind, n_intlv, entries, counters=None):
    """A backend over the entries of its own ``task_store``, handed them in
    the store's priority order; rows are task ids."""
    store = task_store(entries, n_intlv)
    return build_backend(kind, store, 0, store.order[0], counters)


def kill(backends, row):
    """Place a row: kill it in the backends' shared store, then delete it
    from each backend once."""
    backends[0].store.kill(row)
    for b in backends:
        b.delete((row,))


def live_heads(tree):
    """A range tree's cursors as its queries read them: per node pair, the
    index of the first live row at or after the cursor (``None`` where the
    build stored no list).  Two trees over one store with equal heads
    answer every query alike, however far each cursor has skipped."""
    live = tree.store.live
    heads = []
    for seqs, cursor in zip(tree._lists, tree._cursor):
        if seqs is None:
            heads.append(None)
            continue
        row = []
        for lst, i in zip(seqs, cursor):
            while lst is not None and i < len(lst) and not live[lst[i]]:
                i += 1
            row.append(None if lst is None else i)
        heads.append(row)
    return heads


def linear_best(entries, dead, l_min, r_min):
    """Max-priority live entry with al >= l_min and ar >= r_min.

    ``entries`` is a list of (tid, al, ar, prio); ties break to lowest id.
    """
    best = None
    for tid, al, ar, prio in entries:
        if tid in dead or al < l_min or ar < r_min:
            continue
        if best is None or (prio, -tid) > (best[3], -best[0]):
            best = (tid, al, ar, prio)
    return None if best is None else best[0]


def linear_has_left(entries, dead, l_min):
    return any(tid not in dead and al >= l_min for tid, al, _, _ in entries)


def clear_region_trackable(range_m, sigma_r, velocity, sigma_f, prf, cfg):
    """Interval-containment check against the rectangular clear region."""
    ru = cfg.c / (2.0 * prf.f_r)
    half_pulse = cfg.c * cfg.pulse_width / 2.0
    lo_r = max(prf.c_r_plus, half_pulse)
    hi_r = ru - (prf.c_r_minus + half_pulse)
    lo_f = prf.c_f_plus
    hi_f = prf.f_r - prf.c_f_minus
    ra = range_m - math.floor(range_m / ru) * ru
    shift = -2.0 * velocity / cfg.wavelength
    fa = shift - math.floor(shift / prf.f_r) * prf.f_r
    r_int = (ra - cfg.n_r * sigma_r, ra + cfg.n_r * sigma_r)
    f_int = (fa - cfg.n_f * sigma_f, fa + cfg.n_f * sigma_f)
    return (
        lo_r <= r_int[0]
        and r_int[1] <= hi_r
        and lo_f <= f_int[0]
        and f_int[1] <= hi_f
    )


def timeline_feasible(placements, prf, cfg, total_slots=None):
    """Explicit range-domain reconstruction of one look.

    ``placements`` maps slot -> (range_m, sigma_r, velocity, sigma_f).  The
    transmit pulse of slot k starts (k-1) slot widths into each PRI and its
    echo window is the folded confidence interval delayed by the same
    offset.  The look is feasible when every echo window clears the trailing
    transmit pulse (with the near blind margin), the far blind edge, and the
    Doppler blind edges.  ``total_slots`` models additional back-to-back
    transmit pulses beyond the listed ones.
    """
    if not placements:
        return True
    ru = cfg.c / (2.0 * prf.f_r)
    slot_m = cfg.c * cfg.pulse_width / 2.0
    half_pulse = slot_m
    near = max(prf.c_r_plus, half_pulse)
    far = prf.c_r_minus + half_pulse
    m = max(placements)
    if total_slots is not None:
        m = max(m, total_slots)
    for k, (range_m, sigma_r, velocity, sigma_f) in placements.items():
        ra = range_m - math.floor(range_m / ru) * ru
        shift = -2.0 * velocity / cfg.wavelength
        fa = shift - math.floor(shift / prf.f_r) * prf.f_r
        offset = (k - 1) * slot_m
        window_lo = offset + ra - cfg.n_r * sigma_r
        window_hi = offset + ra + cfg.n_r * sigma_r
        if window_lo < (m - 1) * slot_m + near:
            return False
        if window_hi > ru - far:
            return False
        if fa - cfg.n_f * sigma_f < prf.c_f_plus:
            return False
        if fa + cfg.n_f * sigma_f > prf.f_r - prf.c_f_minus:
            return False
    return True


def disk_rows(catalog):
    """Every disk of a catalog as (prf_index, gu, gv, task ids), in disk id
    order; the catalog's member rows are mapped to their task ids."""
    ids = catalog.table.tasks.ids
    return [(catalog.prf_index[d], catalog.gu[d], catalog.gv[d],
             [ids[row] for row in catalog.disk_tasks(d)])
            for d in range(catalog.n_disks)]


def reference_dedup_disks(catalog):
    """``dedup_disks`` testing each visited disk against every kept disk of
    its PRF, not only the kept disks enclosing its first member."""
    keep = []
    for disk_ids in catalog.by_prf:
        sets = {d: frozenset(catalog.disk_tasks(d)) for d in disk_ids}
        kept_sets = []
        for d in sorted(disk_ids, key=lambda d: (-len(sets[d]), d)):
            s = sets[d]
            if any(s <= ks for ks in kept_sets):
                continue
            kept_sets.append(s)
            keep.append(d)
    keep.sort()

    prf_index = [catalog.prf_index[d] for d in keep]
    by_prf = [[] for _ in range(catalog.table.n_prfs)]
    task_disks = [[] for _ in range(catalog.table.n_tasks)]
    members = []
    offsets = [0]
    for new, d in enumerate(keep):
        rows = catalog.disk_tasks(d)
        members += rows
        offsets.append(len(members))
        by_prf[prf_index[new]].append(new)
        for row in rows:
            task_disks[row].append(new)
    return DiskCatalog(grid=catalog.grid, table=catalog.table, prf_index=prf_index,
                       gu=[catalog.gu[d] for d in keep], gv=[catalog.gv[d] for d in keep],
                       members=members, offsets=offsets, by_prf=by_prf,
                       task_disks=task_disks)


def brute_grid_disks(table, grid):
    """All (prf, grid point) pairs enclosing at least one trackable task,
    found by scanning the padded bounding box of every task."""
    eps, r = grid.spacing, grid.disk_radius
    r2 = r * r
    ids, u, v = table.tasks.ids, table.tasks.u.tolist(), table.tasks.v.tolist()
    found = {}
    for p in range(table.n_prfs):
        rows = np.flatnonzero(table.av[:, p]).tolist()
        if not rows:
            continue
        us = [u[i] for i in rows]
        vs = [v[i] for i in rows]
        lo_u = math.floor((min(us) - r) / eps) - 2
        hi_u = math.ceil((max(us) + r) / eps) + 2
        lo_v = math.floor((min(vs) - r) / eps) - 2
        hi_v = math.ceil((max(vs) + r) / eps) + 2
        for gu in range(lo_u, hi_u + 1):
            for gv in range(lo_v, hi_v + 1):
                members = []
                for i in rows:
                    du = gu * eps - u[i]
                    dv = gv * eps - v[i]
                    if du * du + dv * dv <= r2:
                        members.append(ids[i])
                if members:
                    found[(p, gu, gv)] = sorted(members)
    return found


def stepwise_disks(table, grid):
    """The disk catalog built one (PRF, task, cell) step at a time.

    The ordered reference for ``enumerate_disks``: per PRF, per task-set
    row, per cell of the padded box in (gu, gv) order that passes the exact
    Euclidean predicate, a new cell takes the next disk id and the task is
    appended to the cell's disk.  Returns ``(disks, by_prf, task_disks)``
    with disks as ``(id, prf_index, gu, gv, task ids)`` tuples and
    ``task_disks`` keyed by task id.
    """
    eps, r = grid.spacing, grid.disk_radius
    r2 = r * r
    disks = []
    by_prf = []
    tasks = table.tasks
    task_disks = {tid: [] for tid in tasks.ids}
    for p in range(table.n_prfs):
        index = {}
        prf_disks = []
        for row in np.flatnonzero(table.av[:, p]).tolist():
            tid, u, v = tasks.ids[row], float(tasks.u[row]), float(tasks.v[row])
            lo_u = math.floor((u - r) / eps) - 1
            hi_u = math.ceil((u + r) / eps) + 1
            lo_v = math.floor((v - r) / eps) - 1
            hi_v = math.ceil((v + r) / eps) + 1
            for gu in range(lo_u, hi_u + 1):
                du = gu * eps - u
                for gv in range(lo_v, hi_v + 1):
                    dv = gv * eps - v
                    if du * du + dv * dv > r2:
                        continue
                    did = index.get((gu, gv))
                    if did is None:
                        did = len(disks)
                        index[(gu, gv)] = did
                        disks.append((did, p, gu, gv, []))
                        prf_disks.append(did)
                    disks[did][4].append(tid)
                    task_disks[tid].append(did)
        by_prf.append(prf_disks)
    return disks, by_prf, task_disks


def _group_feasible(group, base_look, inst):
    """Cheapest slot bijection existence test for one look's set of table rows."""
    m = len(group)
    p = base_look.prf_index
    for perm in itertools.permutations(group):
        ok = True
        for slot0, row in enumerate(perm):
            k = slot0 + 1
            if not inst.av(row, base_look):
                ok = False
                break
            if k > inst.table.ar[row, p]:
                ok = False
                break
            if m > k + inst.table.al[row, p]:
                ok = False
                break
        if ok:
            return True
    return False


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def exhaustive_optimum(inst):
    """Unpruned optimum by enumerating all partitions of the table rows
    into looks.

    Each group takes the cheapest base it fits (copies are plentiful in the
    oracle instances).  Returns the optimal objective Fraction, or None when
    no partition is feasible.
    """
    rows = list(range(inst.table.n_tasks))
    bases = {}
    for lk in inst.looks:
        bases.setdefault((lk.prf_index, lk.disk_id), lk)
    best = None
    for part in _partitions(rows):
        total = Fraction(0)
        ok = True
        for group in part:
            if len(group) > inst.n_intlv:
                ok = False
                break
            cheapest = None
            for lk in bases.values():
                if _group_feasible(group, lk, inst):
                    dwell = dwell_fraction(inst.table, lk.prf_index)
                    if cheapest is None or dwell < cheapest:
                        cheapest = dwell
            if cheapest is None:
                ok = False
                break
            total += cheapest
        if ok and (best is None or total < best):
            best = total
    return best


class _Bucket:
    __slots__ = ("value", "members", "prev", "next")

    def __init__(self, value, members):
        self.value = value
        self.members = members
        self.prev = None
        self.next = None


class StepwiseBucketList:
    """The bucket list built by counting every membership up from zero.

    A standalone reference with ``BucketList``'s interface: each bucket
    keeps its keys in its own ``IndexedSet``, all keys start in one zero
    bucket and ``memberships`` (key repeated once per member) is applied
    one ``adjust(key, +1)`` at a time; ``bucket_ops`` counts the adjusts
    made after that.  ``decrement`` is one ``adjust(key, -1)`` per key, and
    ``adjust`` always allocates a target bucket when no neighbour holds the
    target value, so comparing against it checks the bulk build of
    ``BucketList`` and its fused ``decrement``.
    """

    def __init__(self, keys, memberships):
        self._bucket_of = {}
        zero = _Bucket(0, IndexedSet(keys))
        self._head = zero
        self._tail = zero
        for k in keys:
            self._bucket_of[k] = zero
        self.counters = OpCounters()
        for k in memberships:
            self.adjust(k, +1)
        self.counters = OpCounters()

    def _unlink(self, bucket):
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        else:
            self._head = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev
        else:
            self._tail = bucket.prev

    def _walk(self):
        b = self._head
        while b is not None:
            yield b
            b = b.next

    def count(self, key):
        return self._bucket_of[key].value

    def select(self, extreme="max", tie="min_id", rng=None):
        bucket = self._head if extreme == "min" else self._tail
        if bucket.value == 0:
            bucket = bucket.next if extreme == "min" else None
        if bucket is None:
            return None
        if tie == "random":
            return bucket.members.choose(rng)
        return min(bucket.members)

    def decrement(self, keys):
        for key in keys:
            self.adjust(key, -1)

    def adjust(self, key, delta):
        self.counters.bucket_ops += 1
        bucket = self._bucket_of[key]
        target_value = bucket.value + delta
        if target_value < 0:
            raise InternalInvariantError(f"key {key!r} decremented below zero")
        neighbor = bucket.next if delta == 1 else bucket.prev
        if neighbor is not None and neighbor.value == target_value:
            target = neighbor
        else:
            target = _Bucket(target_value, IndexedSet())
            if delta == 1:
                target.prev, target.next = bucket, bucket.next
                if bucket.next is not None:
                    bucket.next.prev = target
                else:
                    self._tail = target
                bucket.next = target
            else:
                target.prev, target.next = bucket.prev, bucket
                if bucket.prev is not None:
                    bucket.prev.next = target
                else:
                    self._head = target
                bucket.prev = target
        bucket.members.discard(key)
        target.members.add(key)
        self._bucket_of[key] = target
        if len(bucket.members) == 0:
            self._unlink(bucket)


def incremental_node_lists(entries, n_intlv):
    """Full range-tree node sequences: one append per (task, node pair on
    its two leaf paths) in priority order, every node of the paths
    included.  A node pair (n1, n2) is keyed by the int n1 * 2 * leaves +
    n2."""
    leaves = 1
    while leaves < n_intlv + 1:
        leaves <<= 1
    paths = [_leaf_path(k, leaves) for k in range(n_intlv + 1)]
    lists = {}
    for tid, a, b, _ in sorted(entries, key=lambda e: (-e[3], e[0])):
        for n1 in paths[a]:
            for n2 in paths[b]:
                lists.setdefault(n1 * 2 * leaves + n2, []).append(tid)
    return lists


def rowwise_gen_scenario(spec, cfg=None, prfs=None):
    """``gen_scenario`` one row at a time: the same draws, kept rows
    converted with ``float`` into one ``TrackTask`` each; returns (cfg,
    prfs, tuple of ``TrackTask``)."""
    cfg = cfg if cfg is not None else RadarConfig()
    prfs = tuple(prfs) if prfs is not None else default_prf_set()
    rng = np.random.default_rng(spec.seed)

    centers = None
    if spec.cluster_count > 0:
        cu, cv = _uniform_disk(rng, spec.cluster_count, 0.8 * spec.scan_extent)
        centers = np.stack([cu, cv], axis=1)

    rows = []
    while len(rows) < spec.n_tasks:
        m = max(2 * (spec.n_tasks - len(rows)), 64)
        r = rng.uniform(*spec.range_bounds, m)
        vt = rng.uniform(*spec.velocity_bounds, m)
        sr = rng.uniform(*spec.sigma_r_bounds, m)
        sf = rng.uniform(*spec.sigma_f_bounds, m)
        if centers is None:
            u, v = _uniform_disk(rng, m, spec.scan_extent)
        else:
            which = rng.integers(0, spec.cluster_count, m)
            du, dv = _uniform_disk(rng, m, spec.cluster_radius)
            u = centers[which, 0] + du
            v = centers[which, 1] + dv
        norm = np.sqrt(u * u + v * v)
        over = norm > 0.999
        if over.any():
            u = np.where(over, u * 0.999 / norm, u)
            v = np.where(over, v * 0.999 / norm, v)
        if spec.keep_unschedulable:
            ok = np.ones(m, dtype=bool)
        else:
            av = availability_arrays(r, sr, vt, sf, prfs, cfg)[0]
            ok = av.any(axis=1)
        for i in np.nonzero(ok)[0]:
            if len(rows) == spec.n_tasks:
                break
            rows.append((float(r[i]), float(sr[i]), float(vt[i]),
                         float(sf[i]), float(u[i]), float(v[i])))

    tasks = tuple(
        TrackTask(
            id=i + 1, range_m=row[0], sigma_r=row[1], velocity=row[2],
            sigma_f=row[3], u=row[4], v=row[5],
        )
        for i, row in enumerate(rows)
    )
    return cfg, prfs, tasks


def _fields(pairs) -> str:
    """``key=value`` tokens of (key, value) pairs, floats by ``repr``."""
    return " ".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in pairs)


def fields_scenario_text(cfg, prfs, tasks):
    """``scenario_to_text`` with every line, task lines included, built
    from one ``(key, value)`` list each."""
    lines = [SCENARIO_TAG]
    lines.append("radar " + _fields([
        ("c", cfg.c), ("wavelength", cfg.wavelength), ("pulse_width", cfg.pulse_width),
        ("n_r", cfg.n_r), ("n_f", cfg.n_f), ("n_intlv", cfg.n_intlv),
        ("pulses_per_look", cfg.pulses_per_look),
    ]))
    for prf in prfs:
        lines.append("prf " + _fields([
            ("f_r", prf.f_r), ("c_r_plus", prf.c_r_plus), ("c_r_minus", prf.c_r_minus),
            ("c_f_plus", prf.c_f_plus), ("c_f_minus", prf.c_f_minus),
        ]))
    for t in tasks:
        lines.append("task " + _fields([
            ("id", t.id), ("range", t.range_m), ("sigma_r", t.sigma_r),
            ("velocity", t.velocity), ("sigma_f", t.sigma_f), ("u", t.u), ("v", t.v),
        ]))
    return "\n".join(lines) + "\n"


def full_table_orders(ids, av, prio):
    """Each PRF's available rows in (-priority, id) order, as row lists: one
    lexsort of the whole table per priority column (``prio`` is one column
    or a [row, PRF] array), restricted to the PRF's rows."""
    prio = np.asarray(prio)
    key = np.asarray(list(ids))
    orders = []
    for p in range(av.shape[1]):
        ranked = np.lexsort((key, -(prio if prio.ndim == 1 else prio[:, p])))
        orders.append([row for row in ranked.tolist() if av[row, p]])
    return orders


def rowwise_edbf_consume(run, look_prf, rows):
    """``EdbfRun.consume`` one placed row at a time, in slot order: a
    ``delete`` from each backend of a PRF other than ``look_prf``, one
    ``decrement`` of the row's PRF set, then the random rule's set loses
    each of the row's PRFs whose count is 0."""
    for row in rows:
        prf_set = run.table.prf_sets[row]
        for p in prf_set:
            if p != look_prf:
                run.backends[p].delete((row,))
        run.buckets.decrement(prf_set)
        if run.live_prfs is not None:
            for p in prf_set:
                if run.buckets.count(p) == 0:
                    run.live_prfs.discard(p)


def look_line(lk):
    """The look line of one ``ScheduledLook``, each field from the look
    itself: the per-look writer ``schedule_to_text`` used before a
    schedule's looks became columns with one written tail per key."""
    if lk.disk_id is None:
        return "look index=%s prf=%s f_r=%s dwell=%s" % (lk.index, lk.prf_index, lk.f_r,
                                                         lk.dwell)
    return "look index=%s prf=%s f_r=%s dwell=%s disk=%s disk_u=%s disk_v=%s" % (
        lk.index, lk.prf_index, lk.f_r, lk.dwell, lk.disk_id, *lk.disk_center)


def tuple_schedule_text(schedule):
    """``schedule_to_text`` from assignment tuples: the objective and looks
    used from the set of assigned look indices, one ``_fields`` list per
    look, and the tuples stable-sorted by (look, slot), one f-string each."""
    assignments = list(schedule.assignments)
    used = {j for _, j, _ in assignments}
    meta = dict(schedule.meta)
    meta["objective"] = repr(sum(lk.dwell for lk in schedule.looks if lk.index in used))
    meta["looks_used"] = str(len(used))
    lines = [SCHEDULE_TAG, "meta " + " ".join(f"{k}={meta[k]}" for k in sorted(meta))]
    for lk in schedule.looks:
        pairs = [("index", lk.index), ("prf", lk.prf_index), ("f_r", lk.f_r),
                 ("dwell", lk.dwell)]
        if lk.disk_id is not None:
            pairs += [("disk", lk.disk_id), ("disk_u", lk.disk_center[0]),
                      ("disk_v", lk.disk_center[1])]
        lines.append("look " + _fields(pairs))
    for tid, j, k in sorted(assignments, key=lambda a: (a[1], a[2])):
        lines.append(f"assign task={tid} look={j} slot={k}")
    if schedule.unschedulable:
        lines.append("unschedulable " + " ".join(str(t) for t in schedule.unschedulable))
    return "\n".join(lines) + "\n"


class ReferenceEpisode(Episode):
    """``Episode`` with the packing pass that asks every query: it queries
    an empty backend, follows every failed ``best_in`` with a ``has_left``
    call, and recurses into a one-step shift with no gap and no working
    run, whose pass asks the failed query again on the same store."""

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
