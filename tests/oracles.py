"""Independent reference implementations the tests check against.

Everything here deliberately recomputes from first principles (interval
containment, explicit timelines, exhaustive enumeration) rather than calling
the production code paths it validates.
"""

import itertools
import math
from fractions import Fraction

from sortedcontainers import SortedList

from pulseplan.errors import InternalInvariantError
from pulseplan.structures import (
    IndexedSet,
    OpCounters,
    _Bucket,
    _leaf_path,
)


def columns(rows):
    """(tid, al, ar, prio) rows as the four entry columns of a backend."""
    return tuple(map(list, zip(*rows))) if rows else ([], [], [], [])


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


def brute_grid_disks(table, grid):
    """All (prf, grid point) pairs enclosing at least one trackable task,
    found by scanning the padded bounding box of every task."""
    eps, r = grid.spacing, grid.disk_radius
    r2 = r * r
    found = {}
    for p in range(table.n_prfs):
        rows = table.task_sets[p]
        if not rows:
            continue
        us = [table.tasks[i].u for i in rows]
        vs = [table.tasks[i].v for i in rows]
        lo_u = math.floor((min(us) - r) / eps) - 2
        hi_u = math.ceil((max(us) + r) / eps) + 2
        lo_v = math.floor((min(vs) - r) / eps) - 2
        hi_v = math.ceil((max(vs) + r) / eps) + 2
        for gu in range(lo_u, hi_u + 1):
            for gv in range(lo_v, hi_v + 1):
                members = []
                for i in rows:
                    du = gu * eps - table.tasks[i].u
                    dv = gv * eps - table.tasks[i].v
                    if du * du + dv * dv <= r2:
                        members.append(table.tasks[i].id)
                if members:
                    found[(p, gu, gv)] = sorted(members)
    return found


def stepwise_disks(table, grid):
    """The disk catalog built one (PRF, task, cell) step at a time.

    The ordered reference for ``enumerate_disks``: per PRF, per task-set
    row, per cell of the padded box in (gu, gv) order that passes the exact
    Euclidean predicate, a new cell takes the next disk id and the task is
    appended to the cell's disk.  Returns ``(disks, by_prf, task_disks)``
    with disks as ``(id, prf_index, gu, gv, tasks, weight)`` tuples; weights
    are summed left to right over each disk's tasks.
    """
    eps, r = grid.spacing, grid.disk_radius
    r2 = r * r
    disks = []
    by_prf = []
    task_disks = {t.id: [] for t in table.tasks}
    for p in range(table.n_prfs):
        index = {}
        prf_disks = []
        for row in table.task_sets[p]:
            task = table.tasks[row]
            tid, u, v = task.id, task.u, task.v
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
    disks = [
        (did, p, gu, gv, members,
         sum(1.0 / len(task_disks[t]) for t in members))
        for did, p, gu, gv, members in disks
    ]
    return disks, by_prf, task_disks


def _group_feasible(group, base_look, inst):
    """Cheapest slot bijection existence test for one look's task set."""
    m = len(group)
    for perm in itertools.permutations(group):
        ok = True
        for slot0, tid in enumerate(perm):
            k = slot0 + 1
            if not inst.av(tid, base_look):
                ok = False
                break
            if k > inst.ar(tid, base_look):
                ok = False
                break
            if m > k + inst.al(tid, base_look):
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
    """Unpruned optimum by enumerating all task partitions into looks.

    Each group takes the cheapest base it fits (copies are plentiful in the
    oracle instances).  Returns the optimal objective Fraction, or None when
    no partition is feasible.
    """
    tasks = sorted(inst.task_ids)
    bases = {}
    for lk in inst.looks:
        bases.setdefault(lk.base, lk)
    best = None
    for part in _partitions(tasks):
        total = Fraction(0)
        ok = True
        for group in part:
            if len(group) > inst.n_intlv:
                ok = False
                break
            cheapest = None
            for lk in bases.values():
                if _group_feasible(group, lk, inst):
                    if cheapest is None or lk.dwell_frac < cheapest:
                        cheapest = lk.dwell_frac
            if cheapest is None:
                ok = False
                break
            total += cheapest
        if ok and (best is None or total < best):
            best = total
    return best


class StepwiseBucketList:
    """The bucket list built by counting every membership up from zero.

    A standalone reference with ``BucketList``'s interface: each bucket
    keeps its keys in its own ``IndexedSet`` (or a SortedList of
    (sub-key, key) with ``member_order``), all keys start in one zero bucket
    and ``memberships`` (key repeated once per member) is applied one
    ``adjust(key, +1)`` at a time; ``bucket_ops`` counts the adjusts made
    after that.  ``adjust`` here always allocates a target bucket when no
    neighbour holds the target value, so comparing against it checks the
    bulk build of ``BucketList``, its relabel-in-place path and its fused
    ``decrement``.
    """

    def __init__(self, keys, memberships, member_order=None):
        self._order = member_order
        self._bucket_of = {}
        self.nonzero = IndexedSet()
        zero = _Bucket(0, self._members(()))
        self._head = zero
        self._tail = zero
        for k in keys:
            self._insert_member(zero, k)
            self._bucket_of[k] = zero
        self.counters = OpCounters()
        for k in memberships:
            self.adjust(k, +1)
        self.counters = OpCounters()

    def _members(self, keys):
        if self._order is not None:
            return SortedList((self._order(k), k) for k in keys)
        return IndexedSet(keys)

    def _insert_member(self, bucket, key):
        if self._order is not None:
            bucket.members.add((self._order(key), key))
        else:
            bucket.members.add(key)

    def _remove_member(self, bucket, key):
        if self._order is not None:
            bucket.members.remove((self._order(key), key))
        else:
            bucket.members.discard(key)

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

    def counts(self):
        return {k: b.value for k, b in self._bucket_of.items()}

    def select(self, extreme="max", skip_zero=False, tie="min_id", rng=None):
        bucket = self._head if extreme == "min" else self._tail
        if skip_zero and bucket is not None and bucket.value == 0:
            bucket = bucket.next if extreme == "min" else None
        if bucket is None or len(bucket.members) == 0:
            return None
        if tie == "ordered":
            return bucket.members[0][1]
        if self._order is not None:
            if tie == "random":
                return bucket.members[rng.randrange(len(bucket.members))][1]
            return min(m[1] for m in bucket.members)
        if tie == "random":
            return bucket.members.choose(rng)
        return min(bucket.members)

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
            target = _Bucket(target_value, self._members(()))
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
        self._remove_member(bucket, key)
        self._insert_member(target, key)
        self._bucket_of[key] = target
        if len(bucket.members) == 0:
            self._unlink(bucket)
        if bucket.value == 0 and target_value == 1:
            self.nonzero.add(key)
        elif bucket.value == 1 and target_value == 0:
            self.nonzero.discard(key)


def incremental_node_lists(entries, n_intlv):
    """Range-tree node sequences and first-level counts, built with one
    append per (task, node pair) in priority order."""
    leaves = 1
    while leaves < n_intlv + 1:
        leaves <<= 1
    paths = [_leaf_path(k, leaves) for k in range(n_intlv + 1)]
    lists = {}
    cnt1 = [0] * (2 * leaves)
    for tid, a, b, _ in sorted(entries, key=lambda e: (-e[3], e[0])):
        for n1 in paths[a]:
            cnt1[n1] += 1
            for n2 in paths[b]:
                lists.setdefault((n1, n2), []).append(tid)
    return lists, cnt1
