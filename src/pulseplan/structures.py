"""Selection structures behind the schedulers.

Three interchangeable backends answer the task-selection query "highest
priority live task with A_l >= a and A_r >= b":

* ``brute``      -- priority-ordered row list, linear scan per query.
* ``pairwise``   -- one priority-sorted doubly linked list per reachable
  (a, b) threshold pair; query is a head lookup, deletion unlinks the task
  from every list it belongs to.
* ``rangetree``  -- two-level static range tree keyed by A_l then A_r, with
  priority-sorted row sequences at the nodes; query compares the heads of
  the O(log^2 n_intlv) node sequences covering the threshold box.

The backends of one run index table rows of one shared ``TaskStore``: the
rows' liveness flags plus per-PRF A_l, A_r and priority-rank columns, and
each PRF's rows in priority order, which the store alone decides.  A
backend is handed its rows in that order and sorts nothing.  A placed task
is marked dead in the store once, and each backend holding it updates its
own index once.

A doubly linked bucket list keyed by integer cardinality provides constant
time greedy / reverse-greedy selection of PRFs, and of disks under the
random tie-break.  Its keys are dense ints (PRF indices, disk ids) indexing
plain lists, its buckets are plain lists and its one update is
``decrement``: counts only fall as placed tasks are consumed.

Every structure is built in bulk: the store from the table's columns, the
backends from a PRF's rows of it in priority order, the bucket list from one
count per key.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    node_entries: int = 0

    def total_backend_ops(self) -> int:
        return self.backend_queries + self.backend_deletes + self.bucket_ops

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class IndexedSet:
    """Set with O(1) add/discard and O(1) uniform random choice."""

    __slots__ = ("_items", "_pos")

    def __init__(self, items=()):
        self._items = list(dict.fromkeys(items))
        self._pos = dict(zip(self._items, range(len(self._items))))

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


class _Bucket:
    __slots__ = ("value", "members", "prev", "next")

    def __init__(self, value, members):
        self.value = value
        self.members = members
        self.prev = None
        self.next = None


class BucketList:
    """Doubly linked buckets of keys sharing one integer cardinality.

    Keys are the dense integers ``0..K-1``.  Bucket values are strictly
    increasing along the links and a bucket exists only while some key
    holds its value (the zero bucket excepted, which keeps every key that
    reached zero), so min/max selection and a -1 step are constant time.
    Each bucket keeps its keys in a plain list, and two key-indexed lists
    shared by all buckets map each key to its bucket (``_bucket_of``) and to
    its index in that bucket's list (``_pos``): a key leaves by swap-remove
    (the last member fills its slot) and joins by append.

    ``counts`` holds one starting cardinality per key, in key order.  The
    buckets are built from it in bulk: one stable sort of the counts, with
    no per-membership step and no ``bucket_ops``.  It lists each bucket's
    keys in key order; the ``random`` tie-break reads the nonzero buckets'
    orders, which match counting every membership up from zero, key after
    key.

    ``decrement(keys)`` is the one update: it consumes one membership of
    each key in turn, the look loop's bookkeeping for one placed task, in a
    single call, O(1) and one ``bucket_ops`` per key.
    """

    def __init__(self, counts, counters=None):
        self.counters = counters if counters is not None else OpCounters()
        counts = np.asarray(counts, dtype=np.int64)
        if len(counts) and counts.min() < 0:
            key = int(np.argmax(counts < 0))
            raise ValueError(f"key {key} has a negative count")
        order = np.argsort(counts, kind="stable")
        values, first, size = np.unique(counts[order], return_index=True,
                                         return_counts=True)
        keys = order.tolist()
        if len(values) == 0:
            # no key at all: one empty zero bucket
            buckets = [_Bucket(0, [])]
        else:
            buckets = [_Bucket(v, keys[a:a + n]) for v, a, n
                       in zip(values.tolist(), first.tolist(), size.tolist())]
        for lo, hi in zip(buckets, buckets[1:]):
            lo.next, hi.prev = hi, lo
        self._head = buckets[0]
        self._tail = buckets[-1]
        self._bucket_of = list(map(
            buckets.__getitem__, np.searchsorted(values, counts).tolist()))
        pos = np.empty(len(counts), dtype=np.intp)
        pos[order] = np.arange(len(counts)) - np.repeat(first, size)
        self._pos = pos.tolist()

    def count(self, key) -> int:
        """The key's current cardinality."""
        return self._bucket_of[key].value

    def decrement(self, keys) -> None:
        """Take one membership from each key of the sequence ``keys`` in turn.

        A key joins the previous bucket when it holds value - 1, a lone key
        relabels its bucket otherwise, and a new bucket is spliced in front
        only when neither applies.  All ``len(keys)`` ``bucket_ops`` are
        counted up front.
        """
        self.counters.bucket_ops += len(keys)
        bucket_of = self._bucket_of
        pos = self._pos
        for key in keys:
            bucket = bucket_of[key]
            members = bucket.members
            prev = bucket.prev
            value = bucket.value - 1
            if prev is None or prev.value != value:
                if value < 0:
                    raise InternalInvariantError(f"key {key!r} decremented below zero")
                if len(members) == 1:
                    # a lone key relabels its bucket
                    bucket.value = value
                    continue
                # no bucket holds value - 1: splice one in front
                target = _Bucket(value, [])
                target.prev, target.next = prev, bucket
                if prev is not None:
                    prev.next = target
                else:
                    self._head = target
                bucket.prev = prev = target
            elif len(members) == 1:
                # a lone key joins prev and its bucket empties: unlink it
                nxt = bucket.next
                prev.next = nxt
                if nxt is not None:
                    nxt.prev = prev
                else:
                    self._tail = prev
            # swap-remove the key from its bucket, append it to prev's
            i = pos[key]
            last = members.pop()
            if last != key:
                members[i] = last
                pos[last] = i
            dest = prev.members
            pos[key] = len(dest)
            dest.append(key)
            bucket_of[key] = prev

    def select(self, extreme="max", tie="min_id", rng=None):
        """Pick a key from the extreme nonzero bucket; ties per the rule.

        ``min_id`` scans the bucket (bounded by the key universe);
        ``random`` draws uniformly from it.
        """
        self.counters.selector_ops += 1
        bucket = self._tail if extreme == "max" else self._head
        if bucket.value == 0:
            bucket = bucket.next if extreme == "min" else None
        if bucket is None:
            return None
        members = bucket.members
        if tie == "random":
            return members[rng.randrange(len(members))]
        return min(members)

    def _walk(self):
        b = self._head
        while b is not None:
            yield b
            b = b.next

    def dump(self) -> str:
        lines = ["bucket list"]
        for b in self._walk():
            lines.append(f"  value {b.value}: keys {sorted(b.members)}")
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


# Below this many rows numpy's per-call cost outweighs appending each of a
# range tree's rows to its node sequences in Python.
_BULK_MIN_TASKS = 32


class _TreeShape(NamedTuple):
    leaves: int
    canon: tuple
    paths: tuple
    path_nodes: np.ndarray


@functools.lru_cache(maxsize=8)
def _tree_shape(n_intlv: int) -> _TreeShape:
    """Leaf count, suffix covers and canonical leaf paths of the key
    universe {0..n_intlv}, shared by every range tree of that capacity.

    A node is canonical when some suffix cover ``canon[k]`` holds it; no
    threshold query reads any other node.  ``paths[k]`` lists the canonical
    nodes on key k's leaf path, leaf first.  ``path_nodes`` holds the same
    nodes as a read-only (keys, depth) array: the full leaf paths, with 0
    (never a tree node) in place of each non-canonical node."""
    leaves = 1
    while leaves < n_intlv + 1:
        leaves <<= 1
    canon = tuple(_suffix_nodes(k, leaves) for k in range(n_intlv + 1))
    canonical = set().union(*canon)
    full = [_leaf_path(k, leaves) for k in range(n_intlv + 1)]
    paths = tuple(tuple(n for n in path if n in canonical) for path in full)
    path_nodes = np.array([[n if n in canonical else 0 for n in path] for path in full],
                          dtype=np.min_scalar_type(4 * leaves * leaves))
    path_nodes.flags.writeable = False
    return _TreeShape(leaves, canon, paths, path_nodes)


class TaskStore:
    """The live-task state of one scheduler run, shared by all its backends.

    Rows are availability-table rows; ``ids[row]`` is the row's task id and
    ``live[row]`` its liveness flag.  ``av`` marks the (row, PRF) pairs a
    backend may hold; their A_l and A_r must lie in [0, n_intlv] and
    [1, n_intlv].  ``prio`` is a [row, PRF] array, or one column that every
    PRF shares, broadcast to [row, PRF] (``prio_table``).  The store is the
    one place that decides each PRF's priority order: per PRF p, one
    lexsort of the rows available at p by (-priority, task id) gives
    ``order[p]``, and ``rank[p][row]`` is the row's position in it, so the
    smallest rank wins and priority ties go to the lowest id (a row not
    available at p holds rank 0, and no backend of p holds it).  ``al[p]``
    and ``ar[p]`` are row-indexed lists of A_l and A_r.

    ``rows`` holds one int object per row; ``order``, the rank lists and the
    range trees' node sequences share these objects.  The ``*_table`` arrays
    are the same columns as [row, PRF] numpy arrays, for bulk builds.
    Subarray mode reads only the rank lists, but they come from the same
    sort as ``order``, whose lists take about 5% of the store's build at 4k
    tasks, so every store builds both.
    """

    def __init__(self, n_intlv, ids, av, al, ar, prio):
        n, n_prfs = av.shape
        for name, col, lo in (("A_l", al, 0), ("A_r", ar, 1)):
            bad = np.argwhere(av & ((col < lo) | (col > n_intlv)))
            if len(bad):
                row, p = bad[0].tolist()
                raise InternalInvariantError(
                    f"task {ids[row]}: {name}={col[row, p]} outside [{lo}, n_intlv]")
        self.n_intlv = n_intlv
        self.ids = list(ids)
        self.live = [True] * n
        self.rows = np.array(range(n), dtype=object)
        self.al_table, self.ar_table = al, ar
        self.al, self.ar = al.T.tolist(), ar.T.tolist()
        # broadcast through the transpose, so one column of 0 rows fits too
        self.prio_table = np.broadcast_to(np.asarray(prio).T, (n_prfs, n)).T
        key = np.asarray(self.ids)
        self.order, self.rank = [], []
        for p in range(n_prfs):
            rows = np.flatnonzero(av[:, p])
            order = rows[np.lexsort((key[rows], -self.prio_table[rows, p]))]
            rank = np.zeros(n, dtype=np.intp)
            rank[order] = np.arange(len(order))
            self.order.append(self.rows[order].tolist())
            self.rank.append(self.rows[rank].tolist())

    def kill(self, row):
        """Mark a placed row dead; each row is placed once."""
        if not self.live[row]:
            raise InternalInvariantError(f"task {self.ids[row]} placed twice")
        self.live[row] = False


class _BackendBase:
    """Common part of the three backend kinds: a PRF's rows of a shared
    ``TaskStore``.

    A backend is handed its rows in the store's priority order and keeps
    that list as ``_order``, not a copy, plus its kind's index over it; A_l,
    A_r, rank and liveness are read from the store.  A placed row is killed
    in the store once and then deleted from the index of every backend that
    holds it, once each, by ``delete(rows)``: one row as it is placed in
    this backend's look, the look's rows that this backend holds in one
    call per look in every other backend.  Queries skip rows the store
    marks dead.  The queries here are the brute kind's linear scans of
    ``_order``.
    """

    kind = "base"

    def __init__(self, store, p, order, counters=None):
        self.store, self.p = store, p
        self.n_intlv = store.n_intlv
        self.counters = counters if counters is not None else OpCounters()
        self.al, self.ar, self.rank = store.al[p], store.ar[p], store.rank[p]
        self._order = order
        self.live_count = len(order)
        self._index()

    def _index(self):
        """Build the kind's index over ``_order``."""

    def _scan_best(self, l_min, r_min):
        live, al, ar = self.store.live, self.al, self.ar
        return next((r for r in self._order
                     if live[r] and al[r] >= l_min and ar[r] >= r_min), None)

    def _scan_left(self, l_min):
        live, al = self.store.live, self.al
        return any(live[r] and al[r] >= l_min for r in self._order)

    def delete(self, rows):
        """Drop rows the store has killed from this index, in turn."""
        self.counters.backend_deletes += len(rows)
        self.live_count -= len(rows)

    def best_in(self, l_min, r_min):
        self.counters.backend_queries += 1
        return self._scan_best(l_min, r_min)

    def has_left(self, l_min):
        self.counters.backend_queries += 1
        return self._scan_left(l_min)

    def dump(self) -> str:
        lines = [f"{self.kind} backend: {self.live_count} live tasks"]
        store = self.store
        for r in self._order:
            if store.live[r]:
                lines.append(f"  task {store.ids[r]}: a_l={self.al[r]} a_r={self.ar[r]} "
                             f"priority={store.prio_table[r, self.p].item()}")
        return "\n".join(lines)


class BruteBackend(_BackendBase):
    """Priority-ordered row list; every query is a linear scan."""

    kind = "brute"


class PairwiseBackend(_BackendBase):
    """One sorted doubly linked row list per reachable (a, b) threshold pair.

    Stored pairs are those the backward scheduler can query: a + b never
    exceeds n_intlv because a counts already occupied slots to the right of
    slot b.  Other (legal but unreachable) thresholds fall back to a scan.
    """

    kind = "pairwise"

    def _index(self):
        n = self.n_intlv
        self._pairs = [
            (a, b) for a in range(n) for b in range(1, n - a + 1)
        ]
        # per-deletion touch budget; the quadratic bound needs n >= 3
        self._touch_cap = n * (n - 1) if n >= 3 else len(self._pairs)
        self._head = {}
        self._next = {}
        self._prev = {}
        al, ar = self.al, self.ar
        for pair in self._pairs:
            a, b = pair
            members = [r for r in self._order if al[r] >= a and ar[r] >= b]
            self._head[pair] = members[0] if members else None
            self._next[pair] = dict(zip(members, [*members[1:], None]))
            self._prev[pair] = dict(zip(members, [None, *members[:-1]]))
        self.counters.node_entries += self.total_entries()

    def total_entries(self):
        return sum(map(len, self._next.values()))

    def has_left(self, l_min):
        self.counters.backend_queries += 1
        if l_min <= 0:
            return self.live_count > 0
        if (l_min, 1) in self._next:
            return self._head[(l_min, 1)] is not None
        self.counters.fallback_scans += 1
        return self._scan_left(l_min)

    def best_in(self, l_min, r_min):
        self.counters.backend_queries += 1
        pair = (max(l_min, 0), r_min)
        head = self._head.get(pair, -1)
        if head != -1:
            return head
        self.counters.fallback_scans += 1
        return self._scan_best(l_min, r_min)

    def delete(self, rows):
        super().delete(rows)
        for row in rows:
            self._unlink(row)

    def _unlink(self, row):
        """Unlink the row from every pair list it belongs to: the pairs
        (a, b) with a <= A_l and 1 <= b <= A_r."""
        n = self.n_intlv
        touches = 0
        for a in range(min(self.al[row], n - 1) + 1):
            for b in range(1, min(self.ar[row], n - a) + 1):
                pair = (a, b)
                nxt, prv = self._next[pair], self._prev[pair]
                before, after = prv[row], nxt[row]
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
    counts on the first level.  Node row sequences are priority-sorted at
    build time; deletion decrements the first-level counts, and heads skip
    rows the store marks dead lazily, which keeps the per-operation cost
    within the advertised O(log^2 n_intlv) amortized bound.

    Every query is one-sided (A_l >= a and A_r >= b), so it reads only
    nodes of the suffix covers ``canon[k]``: the canonical nodes.  A row is
    stored, and counted, only at the canonical nodes of its leaf paths.
    ``canon[k]`` is a disjoint cover of keys [k, leaves-1], so each row a
    query may return lies in exactly one node of each level's cover, and
    that node is on the row's own path: it sits in exactly one list the
    query reads.

    A node pair (n1, n2) is keyed by one int, n1 * 2 * leaves + n2, in
    ``_lists`` (its row sequence) and ``_cursor`` (the index of its first
    row not yet known dead).  Cursors are lazy: a sequence gets an entry
    only once its head has moved, so a build writes no cursor.  A query
    visits the O(log n_intlv) first-level cover nodes of its threshold box
    that have a nonzero live count, and under each the O(log n_intlv)
    second-level cover nodes, each key one add from the first-level base.

    The build writes the canonical node entries, about 28% of q * depth^2
    at n_intlv 8 (depth = log2 of the leaf count), at once: the rows come
    in priority order, so one stable numpy sort of their (row, node pair)
    entries by node pair groups them by node and keeps each node's rows in
    priority order.  Up to 128 leaves the keys fit 16 bits and the sort is
    a radix sort, O(q log^2 n_intlv) time with no per-entry Python call.
    Below ``_BULK_MIN_TASKS`` rows, as in the per-disk backends of subarray
    mode, numpy's per-call cost outweighs that, and each row is appended to
    its node sequences in turn instead.  Node sequences hold the store's
    row objects.
    """

    kind = "rangetree"

    def _index(self):
        leaves, self._canon, self._paths, path_nodes = _tree_shape(self.n_intlv)
        self._leaves = leaves
        paths = self._paths
        per_task = path_nodes.shape[1] ** 2
        self._visit_cap = max(per_task, 4)
        al, ar = self.al, self.ar
        if len(self._order) < _BULK_MIN_TASKS:
            sizes = Counter(map(al.__getitem__, self._order)).items()
            self._lists = {}
            for r in self._order:
                for n1 in paths[al[r]]:
                    for n2 in paths[ar[r]]:
                        self._lists.setdefault(n1 * 2 * leaves + n2, []).append(r)
        else:
            # One entry per (row, node pair), row-major in priority order,
            # so a stable sort by node pair keeps each node's rows in
            # priority order.  Entries at a non-canonical node (0 in ``path_nodes``)
            # are dropped before the sort.  Node numbers below 2 * leaves
            # make n1 * 2 * leaves + n2 fit the node array's narrow dtype;
            # numpy's stable sort is a radix sort for 8- and 16-bit keys (up
            # to 128 leaves).
            store, p = self.store, self.p
            idx = np.asarray(self._order, dtype=np.intp)
            a_col = store.al_table[idx, p]
            sizes = enumerate(np.bincount(a_col).tolist())
            n1 = path_nodes[a_col]
            n2 = path_nodes[store.ar_table[idx, p]]
            keep = np.flatnonzero(((n1 != 0)[:, :, None] & (n2 != 0)[:, None, :]).reshape(-1))
            pair = ((n1 * (2 * leaves))[:, :, None] + n2[:, None, :]).reshape(-1)[keep]
            by_pair = np.argsort(pair, kind="stable")
            rows = store.rows[idx[keep[by_pair] // per_task]].tolist()
            pair = pair[by_pair]
            cuts = (np.flatnonzero(pair[1:] != pair[:-1]) + 1).tolist()
            starts = [0, *cuts]
            self._lists = {
                node: rows[s:e]
                for node, s, e in zip(pair[starts].tolist(), starts, [*cuts, len(rows)])
            }
        # first-level live counts: each key's rows, at its canonical nodes
        self._cnt1 = cnt1 = [0] * (2 * leaves)
        for a, size in sizes:
            for n1 in paths[a]:
                cnt1[n1] += size
        self._cursor = {}
        self.counters.node_entries += sum(map(len, self._lists.values()))

    def max_lists_per_task(self):
        paths = self._paths
        return max(
            (len(paths[self.al[r]]) * len(paths[self.ar[r]]) for r in self._order),
            default=0,
        )

    def has_left(self, l_min):
        self.counters.backend_queries += 1
        return any(map(self._cnt1.__getitem__, self._canon[l_min]))

    def best_in(self, l_min, r_min):
        self.counters.backend_queries += 1
        best = None
        best_rank = 0
        inspected = 0
        rank, cnt1, live = self.rank, self._cnt1, self.store.live
        lists, cursor = self._lists, self._cursor
        width = 2 * self._leaves
        canon2 = self._canon[r_min]
        for n1 in self._canon[l_min if l_min > 0 else 0]:
            if cnt1[n1] == 0:
                continue
            inspected += len(canon2)
            base = n1 * width
            for n2 in canon2:
                key = base + n2
                lst = lists.get(key)
                if lst is None:
                    continue
                i = cursor.get(key, 0)
                end = len(lst)
                if i < end and not live[lst[i]]:
                    i += 1
                    while i < end and not live[lst[i]]:
                        i += 1
                    cursor[key] = i
                if i < end:
                    r = lst[i]
                    if best is None or rank[r] < best_rank:
                        best, best_rank = r, rank[r]
        self.counters.list_inspections += inspected
        if inspected > self._visit_cap:
            raise InternalInvariantError(
                f"range tree query inspected {inspected} node lists (cap {self._visit_cap})"
            )
        return best

    def delete(self, rows):
        super().delete(rows)
        cnt, paths, al = self._cnt1, self._paths, self.al
        for row in rows:
            for n1 in paths[al[row]]:
                cnt[n1] -= 1


_BACKENDS = {
    "brute": BruteBackend,
    "pairwise": PairwiseBackend,
    "rangetree": RangeTreeBackend,
}


def build_backend(kind, store, p, order, counters=None) -> _BackendBase:
    """Construct a selection backend over rows of ``store`` at PRF ``p``.

    ``order`` lists the rows in the store's priority order at p: ascending
    ``store.rank[p]``, as ``store.order[p]`` or any sublist of it holds
    them.  The backend keeps the list itself and sorts nothing."""
    try:
        cls = _BACKENDS[kind]
    except KeyError:
        raise ValueError(f"unknown backend kind {kind!r}; choose from {BACKEND_KINDS}")
    return cls(store, p, order, counters)
