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

A bucket list provides greedy / reverse-greedy selection of PRFs, and of
disks under the random tie-break.  Its keys are dense ints (PRF indices,
disk ids), its buckets are plain lists held in one list indexed by count,
and its one update is ``decrement``: counts only fall, by one placed
task's memberships or by one PRF's share of a look, so a selection's walk
past empty buckets is O(1) amortized.

Every structure is built in bulk: the store from the table's columns, the
backends from a PRF's rows of it in priority order (a range tree of any size
by one build: O(q * depth^2) node entries for q rows, about 28% of
q * depth^2 at n_intlv 8), the bucket list from one count per key.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InternalInvariantError


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


class BucketList:
    """Keys in buckets by integer cardinality, the buckets indexed by count.

    Keys are the dense integers ``0..K-1``.  ``_buckets[v]`` lists the keys
    of count ``v``, or is ``None`` while no key holds ``v``; ``_count`` and
    ``_pos`` map each key to its count and to its index in its bucket.  A
    key leaves a bucket by swap-remove (the last member fills its slot) and
    joins one by append.  Every nonzero count lies in ``_lo.._hi``, and
    ``select`` walks the one it reads past empty buckets.  Counts only fall,
    so ``_hi`` only falls and ``_lo`` falls at most once per decremented
    key: over a run the walks take O(K + max count + decrements) steps in
    all, O(1) amortized per call.

    The buckets are built in bulk from ``counts``, one starting count per
    key, in O(K + max count): ``bincount`` sizes them and a radix sort of
    the narrowed counts fills them, with no per-membership step and no
    ``bucket_ops``.  Each bucket lists its keys in key order, the order
    that counting every membership up from zero, key after key, gives; the
    ``random`` tie-break reads it.  ``decrement(keys, by)`` is the one
    update: ``by`` memberships of each key in turn, O(1) per key and
    ``by`` ``bucket_ops``.
    """

    def __init__(self, counts, counters=None):
        self.counters = counters if counters is not None else OpCounters()
        counts = np.asarray(counts, dtype=np.int64)
        if (counts < 0).any():
            raise ValueError(f"key {np.argmax(counts < 0)} has a negative count")
        size = np.bincount(counts, minlength=1)
        order = np.argsort(counts.astype(np.min_scalar_type(len(size) - 1)), kind="stable")
        first = np.cumsum(size) - size
        keys = order.tolist()
        # one empty zero bucket when there is no key at all
        buckets = [keys[a:a + n] if n else None
                   for a, n in zip(first.tolist(), size.tolist())] if keys else [[]]
        self._buckets = buckets
        self._count = counts.tolist()
        pos = np.empty(len(counts), dtype=np.intp)
        pos[order] = np.arange(len(counts)) - np.repeat(first, size)
        self._pos = pos.tolist()
        self._hi = len(buckets) - 1
        self._lo = 1

    def count(self, key) -> int:
        """The key's current cardinality."""
        return self._count[key]

    def decrement(self, keys, by=1) -> None:
        """Take ``by`` memberships from each key of the sequence ``keys`` in
        turn: the key moves from bucket v to bucket v - by in one step.
        The buckets end as ``by`` single steps of each key in turn leave
        them, member order included: each step after the first appends the
        key to a bucket that the next step takes it off again.  All
        ``by * len(keys)`` ``bucket_ops`` are counted up front."""
        self.counters.bucket_ops += by * len(keys)
        buckets = self._buckets
        count = self._count
        pos = self._pos
        lo = self._lo
        for key in keys:
            value = count[key]
            members = buckets[value]
            value -= by
            if value < lo:
                if value < 0:
                    raise InternalInvariantError(f"key {key!r} decremented below zero")
                if value:
                    lo = self._lo = value
            # swap-remove the key from its bucket, append it to value - 1's
            i = pos[key]
            last = members.pop()
            if last != key:
                members[i] = last
                pos[last] = i
            elif not members:
                buckets[value + by] = None
            dest = buckets[value]
            if dest is None:
                buckets[value] = dest = []
            pos[key] = len(dest)
            dest.append(key)
            count[key] = value

    def select(self, extreme="max", tie="min_id", rng=None):
        """Pick a key from the extreme nonzero bucket; ties per the rule.

        ``min_id`` scans the bucket (bounded by the key universe);
        ``random`` draws uniformly from it.
        """
        self.counters.selector_ops += 1
        buckets = self._buckets
        if extreme == "max":
            v = self._hi
            while v and buckets[v] is None:
                v -= 1
            self._hi = v
        else:
            v = self._lo
            while v < len(buckets) and buckets[v] is None:
                v += 1
            self._lo = v
        if not 0 < v < len(buckets):
            return None
        members = buckets[v]
        if tie == "random":
            return members[rng.randrange(len(members))]
        return min(members)

    def dump(self) -> str:
        return "\n".join(["bucket list"] + [
            f"  value {v}: keys {sorted(members)}"
            for v, members in enumerate(self._buckets) if members is not None])


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


class _TreeShape(NamedTuple):
    leaves: int
    canon: tuple
    paths: tuple
    slot: dict
    canon_slots: tuple
    path_slots: tuple


@functools.lru_cache(maxsize=8)
def _tree_shape(n_intlv: int) -> _TreeShape:
    """Leaf count, suffix covers and canonical leaf paths of the key
    universe {0..n_intlv}, shared by every range tree of that capacity, in
    O(n_intlv log n_intlv) space.

    A node is canonical when some suffix cover ``canon[k]`` holds it; no
    threshold query reads any other node.  ``paths[k]`` lists the canonical
    nodes on key k's leaf path, leaf first.  Both are in node numbers.

    ``slot`` numbers the C canonical nodes densely, 0..C-1 in node order,
    and ``canon_slots`` and ``path_slots`` are ``canon`` and ``paths`` in
    slot numbers.  A range tree's build reads ``path_slots[a]`` x
    ``path_slots[r]`` once per (A_l, A_r) class of its rows, at most
    (n_intlv + 1) * n_intlv classes: the node pairs whose sequences hold
    the class's rows, O(depth^2) of them."""
    leaves = 1
    while leaves < n_intlv + 1:
        leaves <<= 1
    keys = range(n_intlv + 1)
    canon = tuple(_suffix_nodes(k, leaves) for k in keys)
    slot = {node: c for c, node in enumerate(sorted(set().union(*canon)))}
    paths = tuple(tuple(n for n in _leaf_path(k, leaves) if n in slot) for k in keys)
    canon_slots = tuple(tuple(map(slot.__getitem__, cover)) for cover in canon)
    path_slots = tuple(tuple(map(slot.__getitem__, path)) for path in paths)
    return _TreeShape(leaves, canon, paths, slot, canon_slots, path_slots)


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
    range trees' node sequences share these objects.  A range tree builds
    from ``order[p]`` (or a sub-list of it), the ``al``/``ar`` lists and the
    rank list, O(depth^2) node entries per row.  Subarray mode reads only
    the rank lists, but they come from the same sort as ``order``, whose
    lists take about 5% of the store's build at 4k tasks, so every store
    builds both.
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
    marks dead.  ``best_in`` is the one query a kind implements, here the
    brute kind's linear scan of ``_order``; ``has_left`` asks it for every
    kind.
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

    def delete(self, rows):
        """Drop rows the store has killed: lower the live count, which is
        all the brute and range-tree kinds need, since their queries skip
        dead rows."""
        self.counters.backend_deletes += len(rows)
        self.live_count -= len(rows)

    def best_in(self, l_min, r_min):
        self.counters.backend_queries += 1
        return self._scan_best(l_min, r_min)

    def has_left(self, l_min):
        """Any live row at A_l >= l_min?  Every row has A_r >= 1 (the store
        checks it), so this is ``best_in(l_min, 1)``, one query."""
        return self.best_in(l_min, 1) is not None

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
    slot b.  Other (legal but unreachable) thresholds fall back to a scan,
    as ``has_left(l)`` does for l >= n_intlv.  At l <= 0 it reads the head
    of (0, 1), a row exactly while ``live_count > 0``.
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
    {0..n_intlv}; nodes never rebalance and the tree keeps no per-node
    count.  Node row sequences are priority-sorted at build time, and a
    query's heads skip rows the store marks dead lazily.  ``delete`` is
    O(1) per row: it counts the call and lowers ``live_count``, which stays
    exact, since the look loop reads it.  A row killed in the store is
    skipped the next time some cursor reaches it, whether or not this
    tree's ``delete`` has seen it yet.

    Every query is one-sided (A_l >= a and A_r >= b), so it reads only
    nodes of the suffix covers ``canon[k]``: the canonical nodes.  A row is
    stored only at the canonical nodes of its leaf paths.  ``canon[k]`` is
    a disjoint cover of keys [k, leaves-1], so each row a query may return
    lies in exactly one node of each level's cover, and that node is on the
    row's own path: it sits in exactly one list the query reads.

    The C canonical nodes are numbered densely by ``_tree_shape``'s
    ``slot`` (C is n_intlv + 1 when n_intlv is a power of two), and every
    per-node structure is a list indexed by slot: ``_lists[c1][c2]`` is the
    row sequence of the node pair (c1, c2) and ``_cursor[c1][c2]`` the
    index of its first row not yet known dead, 0 at build.  ``_lists[c1]``
    and ``_cursor[c1]`` are ``None`` where the build stored no row under
    the first-level slot c1, so a tree's lists take O(C) space per
    first-level node it uses, and ``_lists[c1][c2]`` is ``None`` where it
    stored no row at the pair.  ``best_in`` walks the O(log n_intlv)
    first-level slots of its threshold box's cover, and under each that
    holds lists the O(log n_intlv) second-level ones, each node pair one
    list index; ``has_left(l)``, as ``best_in(l, 1)``, is the same walk over
    cover(l) x cover(1).  A query inspects at most |cover|^2 <=
    depth^2 node pairs (``_visit_cap``), and each node entry is skipped at
    most once by its cursor over a run, so the skipping a run's queries do
    is bounded by ``node_entries`` in all: O(log^2 n_intlv) amortized per
    stored row.  A threshold below 0 is clamped to 0 (every row has
    A_l >= 0 and A_r >= 1, so the box holds the same rows), and one above
    n_intlv finds nothing.

    A tree of any size has one build.  A row's (A_l, A_r) class decides
    the canonical node pairs of its two leaf paths that store it.  One pass
    over ``_order`` lists each class's rows in priority order.  A node pair
    that one class reaches holds that list, shared, and one that k classes
    reach holds their lists merged by rank, O(n log k) for n rows in
    Python's sort.  That is O(q * depth^2) node entries for q rows (depth =
    log2 of the leaf count), about 28% of q * depth^2 at n_intlv 8.  Rows
    appended one by one to growing sequences would fragment the heap (12%
    more peak RSS on edbf-64k).  Node sequences hold the store's row
    objects and are not written after the build.
    """

    kind = "rangetree"

    def _index(self):
        shape = _tree_shape(self.n_intlv)
        self._canon, self._paths = shape.canon_slots, shape.path_slots
        depth = shape.leaves.bit_length() - 1
        self._visit_cap = max(depth * depth, 4)
        paths = self._paths
        width = len(shape.slot)
        self._lists = lists = [None] * width
        al, ar = self.al, self.ar
        k = self.n_intlv + 1
        classes = {}
        for r in self._order:
            classes.setdefault(al[r] * k + ar[r], []).append(r)
        merges = {}
        for key, rows in classes.items():
            a, b = divmod(key, k)
            for c1 in paths[a]:
                seqs = lists[c1] = lists[c1] or [None] * width
                for c2 in paths[b]:
                    if seqs[c2] is None:
                        seqs[c2] = rows
                    else:
                        merges.setdefault((c1, c2), [seqs[c2]]).append(rows)
        rank = self.rank.__getitem__
        for (c1, c2), runs in merges.items():
            lists[c1][c2] = sorted(itertools.chain.from_iterable(runs), key=rank)
        self._cursor = [None if seqs is None else [0] * width for seqs in lists]
        self.counters.node_entries += sum(
            len(lst) for seqs in lists if seqs is not None for lst in seqs if lst is not None)

    def best_in(self, l_min, r_min):
        self.counters.backend_queries += 1
        canon = self._canon
        try:
            cover1 = canon[l_min if l_min > 0 else 0]
            cover2 = canon[r_min if r_min > 0 else 0]
        except IndexError:
            return None
        best = None
        best_rank = 0
        inspected = 0
        per_first = len(cover2)
        rank, live = self.rank, self.store.live
        lists, cursor = self._lists, self._cursor
        for c1 in cover1:
            seqs = lists[c1]
            if seqs is None:
                continue
            inspected += per_first
            heads = cursor[c1]
            for c2 in cover2:
                lst = seqs[c2]
                if lst is None:
                    continue
                i = heads[c2]
                end = len(lst)
                if i < end and not live[lst[i]]:
                    i += 1
                    while i < end and not live[lst[i]]:
                        i += 1
                    heads[c2] = i
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


_BACKENDS = {
    "brute": BruteBackend,
    "pairwise": PairwiseBackend,
    "rangetree": RangeTreeBackend,
}
BACKEND_KINDS = tuple(_BACKENDS)


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
