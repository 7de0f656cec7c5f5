"""Selection structures behind the schedulers.

Three interchangeable backends answer the task-selection query "highest
priority live task with A_l >= a and A_r >= b":

* ``brute``      -- unsorted list, linear scan per query.
* ``pairwise``   -- one priority-sorted doubly linked list per reachable
  (a, b) threshold pair; query is a head lookup, deletion unlinks the task
  from every list it belongs to.
* ``rangetree``  -- two-level static range tree keyed by A_l then A_r, with
  priority-sorted task sequences at the nodes; query compares the heads of
  the O(log^2 n_intlv) node sequences covering the threshold box.

A doubly linked bucket list keyed by integer cardinality provides constant
time greedy / reverse-greedy selection of PRFs and disks.
"""

from __future__ import annotations

from dataclasses import dataclass

from sortedcontainers import SortedList

from .errors import InternalInvariantError

BACKEND_KINDS = ("brute", "pairwise", "rangetree")


@dataclass
class OpCounters:
    """Cheap always-on operation counters used by the scaling benchmarks."""

    backend_queries: int = 0
    backend_deletes: int = 0
    list_inspections: int = 0
    pairwise_touches: int = 0
    fallback_scans: int = 0
    bucket_ops: int = 0
    selector_ops: int = 0
    bi_iterations: int = 0
    bi_calls: int = 0
    bi_max_iterations: int = 0

    def total_backend_ops(self) -> int:
        return self.backend_queries + self.backend_deletes + self.bucket_ops

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class IndexedSet:
    """Set with O(1) add/discard and O(1) uniform random choice."""

    __slots__ = ("_items", "_pos")

    def __init__(self, items=()):
        self._items = []
        self._pos = {}
        for x in items:
            self.add(x)

    def __len__(self):
        return len(self._items)

    def __contains__(self, x):
        return x in self._pos

    def __iter__(self):
        return iter(self._items)

    def add(self, x):
        if x not in self._pos:
            self._pos[x] = len(self._items)
            self._items.append(x)

    def discard(self, x):
        pos = self._pos.pop(x, None)
        if pos is None:
            return
        last = self._items.pop()
        if last != x:
            self._items[pos] = last
            self._pos[last] = pos

    def choose(self, rng):
        return self._items[rng.randrange(len(self._items))]

    def min(self):
        return min(self._items)


class _Bucket:
    __slots__ = ("value", "members", "prev", "next")

    def __init__(self, value, ordered):
        self.value = value
        self.members = SortedList() if ordered else IndexedSet()
        self.prev = None
        self.next = None


class BucketList:
    """Doubly linked buckets of keys sharing one integer cardinality.

    Bucket values are strictly increasing along the links and a bucket exists
    only while some key holds its value, so min/max selection and +-1
    adjustments are constant time.  With ``member_order`` given, each bucket
    keeps its keys ordered by that sub-key (logarithmic adjustments) so ties
    on the cardinality can be broken by e.g. smallest dwell time.
    """

    def __init__(self, keys, memberships, member_order=None, counters=None):
        self.counters = counters if counters is not None else OpCounters()
        self._order = member_order
        self._bucket_of = {}
        self.nonzero = IndexedSet()
        zero = _Bucket(0, member_order is not None)
        self._head = zero
        self._tail = zero
        for k in keys:
            self._insert_member(zero, k)
            self._bucket_of[k] = zero
        for k in memberships:
            self.adjust(k, +1)

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

    def count(self, key) -> int:
        return self._bucket_of[key].value

    def counts(self) -> dict:
        return {k: b.value for k, b in self._bucket_of.items()}

    def adjust(self, key, delta: int) -> None:
        """Move a key to the adjacent bucket; splice links as needed."""
        if delta not in (1, -1):
            raise ValueError("delta must be +1 or -1")
        self.counters.bucket_ops += 1
        bucket = self._bucket_of[key]
        target_value = bucket.value + delta
        if target_value < 0:
            raise InternalInvariantError(f"key {key!r} decremented below zero")
        neighbor = bucket.next if delta == 1 else bucket.prev
        if neighbor is not None and neighbor.value == target_value:
            target = neighbor
        else:
            target = _Bucket(target_value, self._order is not None)
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

    def _unlink(self, bucket):
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        else:
            self._head = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev
        else:
            self._tail = bucket.prev

    def _min_bucket(self, skip_zero):
        b = self._head
        if skip_zero and b is not None and b.value == 0:
            b = b.next
        return b

    def _max_bucket(self, skip_zero):
        b = self._tail
        if b is None or (skip_zero and b.value == 0):
            return None
        return b

    def max_value(self, skip_zero=False):
        b = self._max_bucket(skip_zero)
        return None if b is None else b.value

    def select(self, extreme="max", skip_zero=False, tie="min_id", rng=None):
        """Pick a key from the extreme bucket; ties per the requested rule.

        ``min_id`` scans the bucket (bounded by the key universe); ``random``
        draws uniformly from it; ``ordered`` takes the smallest sub-key and
        requires ``member_order``.
        """
        self.counters.selector_ops += 1
        bucket = self._max_bucket(skip_zero) if extreme == "max" else self._min_bucket(skip_zero)
        if bucket is None or len(bucket.members) == 0:
            return None
        if tie == "ordered":
            if self._order is None:
                raise InternalInvariantError("ordered tie-break without member_order")
            return bucket.members[0][1]
        if self._order is not None:
            if tie == "random":
                return bucket.members[rng.randrange(len(bucket.members))][1]
            return min(m[1] for m in bucket.members)
        if tie == "random":
            return bucket.members.choose(rng)
        return bucket.members.min()

    def _walk(self):
        b = self._head
        while b is not None:
            yield b
            b = b.next

    def dump(self) -> str:
        lines = ["bucket list"]
        for b in self._walk():
            keys = sorted(m[1] for m in b.members) if self._order is not None \
                else sorted(b.members)
            lines.append(f"  value {b.value}: keys {keys}")
        return "\n".join(lines)


def _suffix_nodes(threshold: int, leaves: int) -> tuple[int, ...]:
    """Canonical segment-tree nodes covering leaf keys [threshold, leaves-1].

    The whole-range query is decomposed into the root's children so no task
    list ever lives at the root.
    """
    lo, hi = threshold + leaves, 2 * leaves
    out = []
    while lo < hi:
        if lo & 1:
            out.append(lo)
            lo += 1
        lo >>= 1
        hi >>= 1
    if out == [1]:
        return (2, 3)
    return tuple(out)


def _leaf_path(key: int, leaves: int) -> tuple[int, ...]:
    """Nodes from the key's leaf up to, but excluding, the root."""
    node = key + leaves
    out = []
    while node > 1:
        out.append(node)
        node >>= 1
    return tuple(out)


class _BackendBase:
    """Common storage for the three backend kinds.

    ``entries`` is a list of (task_id, a_l, a_r, priority); higher priority
    wins and ties go to the lowest task id.  Deletion is idempotent.
    """

    kind = "base"

    def __init__(self, n_intlv, entries, counters=None):
        self.n_intlv = n_intlv
        self.counters = counters if counters is not None else OpCounters()
        self.al = {}
        self.ar = {}
        self.prio = {}
        for tid, a, b, p in entries:
            if not 0 <= a <= n_intlv:
                raise InternalInvariantError(f"task {tid}: A_l={a} outside [0, n_intlv]")
            if not 1 <= b <= n_intlv:
                raise InternalInvariantError(f"task {tid}: A_r={b} outside [1, n_intlv]")
            self.al[tid] = a
            self.ar[tid] = b
            self.prio[tid] = p
        self._dead = set()
        self._order = sorted(self.prio, key=lambda t: (-self.prio[t], t))

    @property
    def live_count(self):
        return len(self.prio) - len(self._dead)

    def alive(self, tid):
        return tid in self.prio and tid not in self._dead

    def live_tasks(self):
        return [t for t in self._order if t not in self._dead]

    def _scan_best(self, l_min, r_min):
        best = None
        for t in self.prio:
            if t in self._dead or self.al[t] < l_min or self.ar[t] < r_min:
                continue
            if best is None or (self.prio[t], -t) > (self.prio[best], -best):
                best = t
        return best

    def delete(self, tid):
        raise NotImplementedError

    def best_in(self, l_min, r_min):
        raise NotImplementedError

    def has_left(self, l_min):
        raise NotImplementedError

    def dump(self) -> str:
        lines = [f"{self.kind} backend: {self.live_count} live tasks"]
        for tid in self.live_tasks():
            lines.append(
                f"  task {tid}: a_l={self.al[tid]} a_r={self.ar[tid]} "
                f"priority={self.prio[tid]}"
            )
        return "\n".join(lines)


class BruteBackend(_BackendBase):
    """Unsorted task list; every query is a linear scan."""

    kind = "brute"

    def has_left(self, l_min):
        self.counters.backend_queries += 1
        return any(
            t not in self._dead and self.al[t] >= l_min for t in self.prio
        )

    def best_in(self, l_min, r_min):
        self.counters.backend_queries += 1
        return self._scan_best(l_min, r_min)

    def delete(self, tid):
        if tid in self._dead or tid not in self.prio:
            return
        self.counters.backend_deletes += 1
        self._dead.add(tid)


class PairwiseBackend(_BackendBase):
    """One sorted doubly linked task list per reachable (a, b) threshold pair.

    Stored pairs are those the backward scheduler can query: a + b never
    exceeds n_intlv because a counts already occupied slots to the right of
    slot b.  Other (legal but unreachable) thresholds fall back to a scan.
    """

    kind = "pairwise"

    def __init__(self, n_intlv, entries, counters=None):
        super().__init__(n_intlv, entries, counters)
        n = n_intlv
        self._pairs = [
            (a, b) for a in range(n) for b in range(1, n - a + 1)
        ]
        # per-deletion touch budget; the quadratic bound needs n >= 3
        self._touch_cap = n * (n - 1) if n >= 3 else len(self._pairs)
        self._head = {}
        self._next = {}
        self._prev = {}
        self._pairs_of = {t: [] for t in self.prio}
        for pair in self._pairs:
            a, b = pair
            members = [t for t in self._order if self.al[t] >= a and self.ar[t] >= b]
            nxt, prv = {}, {}
            prev_t = None
            for t in members:
                prv[t] = prev_t
                if prev_t is not None:
                    nxt[prev_t] = t
                prev_t = t
                self._pairs_of[t].append(pair)
            if prev_t is not None:
                nxt[prev_t] = None
            self._head[pair] = members[0] if members else None
            self._next[pair] = nxt
            self._prev[pair] = prv

    def total_entries(self):
        return sum(len(p) for p in self._pairs_of.values())

    def has_left(self, l_min):
        self.counters.backend_queries += 1
        if l_min <= 0:
            return self.live_count > 0
        if (l_min, 1) in self._next:
            return self._head[(l_min, 1)] is not None
        self.counters.fallback_scans += 1
        return any(t not in self._dead and self.al[t] >= l_min for t in self.prio)

    def best_in(self, l_min, r_min):
        self.counters.backend_queries += 1
        pair = (max(l_min, 0), r_min)
        head = self._head.get(pair, -1)
        if head != -1:
            return head
        self.counters.fallback_scans += 1
        return self._scan_best(l_min, r_min)

    def delete(self, tid):
        if tid in self._dead or tid not in self.prio:
            return
        self.counters.backend_deletes += 1
        self._dead.add(tid)
        touches = 0
        for pair in self._pairs_of[tid]:
            nxt, prv = self._next[pair], self._prev[pair]
            before, after = prv[tid], nxt[tid]
            if before is None:
                self._head[pair] = after
            else:
                nxt[before] = after
            if after is not None:
                prv[after] = before
            touches += 1
        self.counters.pairwise_touches += touches
        if touches > self._touch_cap:
            raise InternalInvariantError(
                f"pairwise deletion touched {touches} lists (cap {self._touch_cap})"
            )


class RangeTreeBackend(_BackendBase):
    """Two-level static range tree over the clamped (A_l, A_r) key box.

    Both levels are power-of-two segment trees over the fixed key universe
    {0..n_intlv}; nodes never rebalance and emptiness is tracked by live
    counts on the first level.  Node task sequences are priority-sorted at
    build time; deletion marks a task dead and heads skip dead entries
    lazily, which keeps the per-operation cost within the advertised
    O(log^2 n_intlv) amortized bound.
    """

    kind = "rangetree"

    def __init__(self, n_intlv, entries, counters=None):
        super().__init__(n_intlv, entries, counters)
        leaves = 1
        while leaves < n_intlv + 1:
            leaves <<= 1
        self._leaves = leaves
        self._canon = [_suffix_nodes(k, leaves) for k in range(n_intlv + 1)]
        self._paths = [_leaf_path(k, leaves) for k in range(n_intlv + 1)]
        depth = leaves.bit_length() - 1
        self._visit_cap = max(depth * depth, 4)
        self._cnt1 = [0] * (2 * leaves)
        self._lists = {}
        self._cursor = {}
        pair_cache = {}
        for t in self._order:
            a, b = self.al[t], self.ar[t]
            key = (a, b)
            node_pairs = pair_cache.get(key)
            if node_pairs is None:
                node_pairs = [
                    (n1, n2) for n1 in self._paths[a] for n2 in self._paths[b]
                ]
                pair_cache[key] = node_pairs
            for np_ in node_pairs:
                lst = self._lists.get(np_)
                if lst is None:
                    self._lists[np_] = [t]
                    self._cursor[np_] = 0
                else:
                    lst.append(t)
            for n1 in self._paths[a]:
                self._cnt1[n1] += 1

    def max_lists_per_task(self):
        return max(
            (len(self._paths[self.al[t]]) * len(self._paths[self.ar[t]]) for t in self.prio),
            default=0,
        )

    def _peek(self, key):
        lst = self._lists.get(key)
        if lst is None:
            return None
        i = self._cursor[key]
        dead = self._dead
        while i < len(lst) and lst[i] in dead:
            i += 1
        self._cursor[key] = i
        return lst[i] if i < len(lst) else None

    def has_left(self, l_min):
        self.counters.backend_queries += 1
        cnt = self._cnt1
        return any(cnt[n1] for n1 in self._canon[l_min])

    def best_in(self, l_min, r_min):
        self.counters.backend_queries += 1
        best = None
        best_key = None
        inspected = 0
        canon2 = self._canon[r_min]
        for n1 in self._canon[max(l_min, 0)]:
            if self._cnt1[n1] == 0:
                continue
            for n2 in canon2:
                inspected += 1
                t = self._peek((n1, n2))
                if t is not None:
                    key = (self.prio[t], -t)
                    if best_key is None or key > best_key:
                        best, best_key = t, key
        self.counters.list_inspections += inspected
        if inspected > self._visit_cap:
            raise InternalInvariantError(
                f"range tree query inspected {inspected} node lists (cap {self._visit_cap})"
            )
        return best

    def delete(self, tid):
        if tid in self._dead or tid not in self.prio:
            return
        self.counters.backend_deletes += 1
        self._dead.add(tid)
        for n1 in self._paths[self.al[tid]]:
            self._cnt1[n1] -= 1


_BACKENDS = {
    "brute": BruteBackend,
    "pairwise": PairwiseBackend,
    "rangetree": RangeTreeBackend,
}


def build_backend(kind, n_intlv, entries, counters=None) -> _BackendBase:
    """Construct a selection backend over (task_id, a_l, a_r, priority) rows."""
    try:
        cls = _BACKENDS[kind]
    except KeyError:
        raise ValueError(f"unknown backend kind {kind!r}; choose from {BACKEND_KINDS}")
    return cls(n_intlv, entries, counters)
