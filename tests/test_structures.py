import copy
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseplan import (
    BucketList,
    OpCounters,
    RadarConfig,
    ScenarioSpec,
    TaskColumns,
    build_availability_table,
    build_backend,
    default_prf_set,
    gen_scenario,
)
from pulseplan.edbf import TASK_RULES, task_priorities
from pulseplan.errors import InternalInvariantError
from pulseplan.radar import _TASK_FLOATS
from pulseplan.structures import BACKEND_KINDS, TaskStore, _tree_shape
from oracles import (
    StepwiseBucketList,
    backend_over,
    full_table_orders,
    incremental_node_lists,
    kill,
    linear_best,
    linear_has_left,
    task_store,
)


def random_entries(rng, n, n_intlv, prio_pool=None):
    out = []
    for tid in range(1, n + 1):
        al = rng.randrange(0, n_intlv + 1)
        ar = rng.randrange(1, n_intlv + 1)
        prio = rng.choice(prio_pool) if prio_pool else rng.uniform(-100, 100)
        out.append((tid, al, ar, prio))
    return out


def buckets_of(b):
    """(value, members) of each existing bucket in value order: the
    count-indexed buckets of ``BucketList`` or the linked ones of
    ``StepwiseBucketList``."""
    if isinstance(b, StepwiseBucketList):
        return [(bk.value, bk.members) for bk in b._walk()]
    return [(v, members) for v, members in enumerate(b._buckets) if members is not None]


def counts_of(b):
    """Each key's count as the bucket holding it says."""
    count = {k: v for v, members in buckets_of(b) for k in members}
    return [count[k] for k in range(len(count))]


class TestBucketList:
    def test_all_empty_keys_share_zero_bucket(self):
        b = BucketList([0, 0, 0])
        assert counts_of(b) == [0, 0, 0]
        assert buckets_of(b) == [(0, [0, 1, 2])]
        assert b.select("max") is None and b.select("min") is None
        assert [b.count(k) for k in range(3)] == [0, 0, 0]

    def test_no_keys(self):
        b = BucketList([])
        assert buckets_of(b) == [(0, [])]
        assert b.select("max") is None and b.select("min") is None

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="key 1 has a negative count"):
            BucketList([2, -1, 0])

    def test_membership_counting_and_tie_break(self):
        b = BucketList([3, 1, 3])
        assert counts_of(b) == [3, 1, 3]
        assert [v for v, _ in buckets_of(b)] == [1, 3]
        assert b.select("max") == 0          # lowest key among the ties
        assert b.select("min") == 1

    def test_max_bucket_created_and_removed(self):
        b = BucketList([2, 2])
        b.decrement([1])                    # 1 leaves a shared bucket: new one
        assert [v for v, _ in buckets_of(b)] == [1, 2]
        assert b.select("max") == 0 and b.select("min") == 1
        b.decrement([0])                    # 0 joins it; the top bucket goes
        assert [v for v, _ in buckets_of(b)] == [1]
        assert b.select("max") == 0
        b.decrement([1, 0])
        assert counts_of(b) == [0, 0]
        assert b.select("max") is None and b.select("min") is None

    def test_random_adjustments_match_recount(self):
        rng = random.Random(0)
        keys = list(range(12))
        counts = [rng.randrange(0, 2000) for k in keys]
        b = BucketList(counts)
        while any(counts):
            call = []
            for _ in range(rng.randrange(1, 6)):
                k = rng.choice(keys)
                if counts[k]:
                    counts[k] -= 1
                    call.append(k)
            b.decrement(call)
        assert counts_of(b) == counts
        assert [b.count(k) for k in keys] == counts

    def test_random_tie_break_is_seeded(self):
        b = BucketList([1, 1, 1])
        picks = [b.select("max", tie="random", rng=random.Random(7)) for _ in range(5)]
        again = [b.select("max", tie="random", rng=random.Random(7)) for _ in range(5)]
        assert picks == again


def bucket_state(b):
    """Everything the selections can read: bucket values in value order,
    each nonzero bucket's members in their stored order (the zero bucket's
    as a set: no selection reads it), and every key's count."""
    view = buckets_of(b)
    return ([(v, sorted(members) if v == 0 else list(members)) for v, members in view],
            [b.count(k) for k in range(sum(len(members) for _, members in view))])


# dense small counts, and sparse ones: the walks to the highest and lowest
# nonzero counts cross emptied buckets and counts no bucket ever held
SPARSE_COUNTS = st.one_of(st.integers(0, 6), st.sampled_from([50, 51, 300]))


def selections(b):
    picks = []
    for extreme in ("max", "min"):
        picks.append(b.select(extreme, tie="min_id"))
        picks.append(b.select(extreme, tie="random", rng=random.Random(len(picks))))
    return picks


class TestBucketListBulkBuild:
    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(SPARSE_COUNTS, max_size=12),
        steps=st.lists(st.integers(0, 11), max_size=60),
    )
    def test_counts_build_matches_stepwise_build(self, counts, steps):
        keys = list(range(len(counts)))
        bulk = BucketList(counts)
        ref = StepwiseBucketList(keys, [k for k, c in zip(keys, counts) for _ in range(c)])
        assert bulk.counters.bucket_ops == 0
        assert bucket_state(bulk) == bucket_state(ref)
        assert selections(bulk) == selections(ref)
        for i in steps:
            live = [k for k in keys if ref.count(k)]
            if not live:
                break
            k = live[i % len(live)]
            bulk.decrement([k])
            ref.decrement([k])
            assert bucket_state(bulk) == bucket_state(ref)
            assert selections(bulk) == selections(ref)


    @pytest.mark.parametrize("top", [255, 256, 65_535, 65_536])
    def test_counts_build_at_the_sort_dtype_boundaries(self, top):
        # the largest count sets the dtype the counts are sorted on: 8 bits
        # up to 255, 16 up to 65,535, 32 above
        counts = [top, 1, 0, top, 2, top - 1, 1, 0, top]
        keys = list(range(len(counts)))
        bulk = BucketList(counts)
        ref = StepwiseBucketList(keys, [k for k, c in zip(keys, counts) for _ in range(c)])
        assert bucket_state(bulk) == bucket_state(ref)
        assert selections(bulk) == selections(ref)
        pos = {k: i for _, members in buckets_of(ref) for i, k in enumerate(members)}
        assert [bulk._pos[k] for k in keys if counts[k]] == [pos[k] for k in keys if counts[k]]
        for k in (0, 5, 1, 3, 8):
            bulk.decrement([k])
            ref.decrement([k])
            assert bucket_state(bulk) == bucket_state(ref)
            assert selections(bulk) == selections(ref)


class TestBucketListDecrement:
    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(SPARSE_COUNTS, min_size=1, max_size=12),
        calls=st.lists(st.lists(st.integers(0, 11), max_size=8), max_size=25),
    )
    def test_decrement_matches_sequential_adjusts(self, counts, calls):
        # keys may repeat within a call and reach zero part-way through it;
        # ``single`` takes the same keys one decrement at a time, so the
        # selections are also compared between the keys of a call
        keys = list(range(len(counts)))
        fused = BucketList(counts)
        single = BucketList(counts)
        ref = StepwiseBucketList(keys, [k for k, c in zip(keys, counts) for _ in range(c)])
        left = list(counts)
        for picks in calls:
            call = []
            for i in picks:
                k = keys[i % len(keys)]
                if left[k]:
                    left[k] -= 1
                    call.append(k)
            fused.decrement(call)
            for k in call:
                ref.decrement([k])
                single.decrement([k])
                assert bucket_state(single) == bucket_state(ref)
                assert selections(single) == selections(ref)
            assert fused.counters.bucket_ops == ref.counters.bucket_ops
            assert bucket_state(fused) == bucket_state(ref)
            assert selections(fused) == selections(ref)
            pos = [None] * len(keys)
            for _, members in buckets_of(fused):
                for i, k in enumerate(members):
                    pos[k] = i
            assert fused._pos == pos

    def test_decrement_through_zero_mid_call(self):
        b = BucketList([2, 1, 3])
        b.decrement([0, 1, 0, 2])
        assert counts_of(b) == [0, 0, 2]
        assert b.counters.bucket_ops == 4
        assert b.select("max") == 2
        assert b.select("min") == 2

    @pytest.mark.parametrize("shared", [False, True])
    def test_decrement_below_zero_raises(self, shared):
        # key 1 is alone in the zero bucket, or shares it with key 2
        b = BucketList([1, 0, 0] if shared else [1, 0])
        with pytest.raises(InternalInvariantError):
            b.decrement([0, 0])
        with pytest.raises(InternalInvariantError):
            b.decrement([1])


def stored_lists(b):
    """The range tree's node sequences, in slot pair order."""
    return [lst for seqs in b._lists if seqs is not None for lst in seqs if lst is not None]


class TestRangeTreeBulkBuild:
    def test_slots_are_the_images_of_the_covers(self):
        # slots number the canonical nodes densely in node order
        for n_intlv in range(1, 41):
            shape = _tree_shape(n_intlv)
            slot = shape.slot
            width = len(slot)
            assert list(slot) == sorted(set().union(*shape.canon))
            assert list(slot.values()) == list(range(width))
            if n_intlv & (n_intlv - 1) == 0:
                assert width == n_intlv + 1
            assert shape.canon_slots == tuple(tuple(map(slot.get, c)) for c in shape.canon)
            assert shape.path_slots == tuple(tuple(map(slot.get, p)) for p in shape.paths)
        assert [len(_tree_shape(n).slot) for n in (8, 11, 39)] == [9, 13, 42]

    @pytest.mark.parametrize("n_intlv", [1, 5, 8, 9, 11, 16, 17])
    def test_node_lists_match_incremental_build(self, n_intlv):
        # the oracle builds every node pair on the leaf paths; the backend
        # keeps the pairs whose two nodes are canonical, the only ones a
        # threshold query reads, at their slots
        shape = _tree_shape(n_intlv)
        slot = shape.slot
        width = len(slot)
        rng = random.Random(n_intlv)
        for n in (0, 1, 2, 5, 31, 32, 33, 90, 400):
            # rows above 256, so no row is a cached small int
            ids = rng.sample(range(300, 300 + 10 * n + 1), n)
            entries = [
                (tid, rng.randrange(0, n_intlv + 1), rng.randrange(1, n_intlv + 1),
                 rng.choice([0.5, 1.0, 2.0]))
                for tid in ids
            ]
            store = task_store(entries, n_intlv)
            assert store.order[0] == [e[0] for e in sorted(entries, key=lambda e: (-e[3], e[0]))]
            # the PRF's whole order, as element mode builds, and a
            # priority-ordered sub-list of it, as subarray mode builds per disk
            sub = [r for r in store.order[0] if rng.random() < 0.5]
            for order in (store.order[0], sub):
                b = build_backend("rangetree", store, 0, order)
                lists = incremental_node_lists([e for e in entries if e[0] in order], n_intlv)
                want = [None] * width
                for key, lst in lists.items():
                    n1, n2 = divmod(key, 2 * shape.leaves)
                    if n1 in slot and n2 in slot:
                        want[slot[n1]] = want[slot[n1]] or [None] * width
                        want[slot[n1]][slot[n2]] = lst
                assert b._lists == want, (n_intlv, n, len(order))
                assert b._cursor == [None if seqs is None else [0] * width for seqs in want]
                held = stored_lists(b)
                assert b.counters.node_entries == sum(map(len, held))
                assert b._order is order
                # node sequences hold the store's row objects, not copies
                assert all(t is store.rows[t] for lst in held for t in lst)

    @pytest.mark.parametrize("n_intlv", range(1, 18))
    def test_query_lists_cover_each_live_match_once(self, n_intlv):
        # the lists best_in(l, r) reads (canon[l] x canon[r], under every
        # first-level node that holds lists) hold every live row with
        # A_l >= l and A_r >= r exactly once and no other live row
        rng = random.Random(100 + n_intlv)
        shape = _tree_shape(n_intlv)
        slot = shape.slot
        for n in (20, 60):
            entries = random_entries(rng, n, n_intlv)
            b = backend_over("rangetree", n_intlv, entries)
            for tid in rng.sample(range(1, n + 1), rng.randrange(n + 1)):
                kill([b], tid)
            live = [tid for tid in range(1, n + 1) if b.store.live[tid]]
            for l in range(n_intlv + 1):
                for r in range(n_intlv + 1):
                    read = Counter(
                        row
                        for n1 in shape.canon[l] if b._lists[slot[n1]] is not None
                        for n2 in shape.canon[r]
                        for row in b._lists[slot[n1]][slot[n2]] or ()
                        if b.store.live[row])
                    assert read == Counter(tid for tid in live
                                           if b.al[tid] >= l and b.ar[tid] >= r), (l, r)

    @pytest.mark.parametrize("n_intlv", range(1, 17))
    def test_query_inspects_the_canonical_node_pairs(self, n_intlv):
        # one task per (A_l, A_r) cell, so a first-level node is empty only
        # if it lies past n_intlv; a query inspects n1 x canon[hi] for every
        # other n1 of canon[lo]
        cells = [(a, b) for a in range(n_intlv + 1) for b in range(1, n_intlv + 1)]
        entries = [(i, a, b, float((7 * i) % 11)) for i, (a, b) in enumerate(cells)]
        tree = backend_over("rangetree", n_intlv, entries)
        shape = _tree_shape(n_intlv)

        def first_key(node):
            while node < shape.leaves:
                node <<= 1
            return node - shape.leaves

        for lo in range(n_intlv + 1):
            held = [n1 for n1 in shape.canon[lo] if first_key(n1) <= n_intlv]
            for hi in range(n_intlv + 1):
                before = tree.counters.list_inspections
                assert tree.best_in(lo, hi) == linear_best(entries, set(), lo, hi)
                assert (tree.counters.list_inspections - before
                        == len(held) * len(shape.canon[hi]))


class TestBackendExamples:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_single_task(self, kind):
        b = backend_over(kind, 8, [(5, 3, 4, 1.0)])
        for a in range(0, 4):
            for r in range(1, 5):
                assert b.best_in(a, r) == 5
        assert b.best_in(4, 1) is None
        assert b.best_in(0, 5) is None

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_empty(self, kind):
        b = backend_over(kind, 8, [])
        assert b.best_in(0, 1) is None
        assert not b.has_left(0)

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_threshold_filtering(self, kind):
        b = backend_over(kind, 8, [(1, 3, 2, 5.0), (2, 1, 4, 9.0)])
        assert b.best_in(2, 1) == 1
        assert b.best_in(0, 1) == 2
        assert b.best_in(0, 3) == 2
        assert b.best_in(4, 1) is None

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_thresholds_outside_the_key_universe(self, kind):
        # below it every row qualifies; above n_intlv none does
        b = backend_over(kind, 4, [(0, 0, 1, 3.0), (1, 1, 4, 2.0), (2, 2, 2, 1.0)])
        assert b.has_left(-1)
        assert b.best_in(0, -1) == 0
        assert b.best_in(-3, 0) == 0
        assert not b.has_left(5)
        assert b.best_in(5, 1) is None
        assert b.best_in(0, 5) is None

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_delete_then_next_best(self, kind):
        b = backend_over(kind, 8, [(1, 2, 2, 5.0), (2, 2, 2, 3.0)])
        assert b.best_in(0, 1) == 1
        kill([b], 1)
        assert b.best_in(0, 1) == 2
        with pytest.raises(InternalInvariantError, match="placed twice"):
            b.store.kill(1)
        kill([b], 2)
        assert b.best_in(0, 1) is None
        assert not b.has_left(0)
        assert b.live_count == 0

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_ties_break_to_lowest_id(self, kind):
        b = backend_over(kind, 4, [(9, 2, 2, 1.5), (3, 2, 2, 1.5), (7, 2, 2, 1.5)])
        assert b.best_in(0, 1) == 3


class TestSharedStore:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_backends_over_one_store_match_linear_scans(self, data):
        """Backends of every kind over overlapping PRF row sets share one
        store; rows are killed through any one of them, and deleted from
        each backend one at a time or in one ``delete`` call."""
        n_intlv = data.draw(st.sampled_from([1, 2, 3, 4, 8, 11]), label="n_intlv")
        n_prfs = data.draw(st.integers(1, 3), label="n_prfs")
        prio_st = (st.sampled_from([0.0, 1.0, 2.0]) if data.draw(st.booleans())
                   else st.floats(-100, 100))
        each = lambda s: st.lists(s, min_size=n_prfs, max_size=n_prfs)
        dense = data.draw(st.booleans(), label="dense")
        # both sides of the 32-row switch between Python and numpy builds
        size = data.draw(st.one_of(st.integers(0, 31), st.integers(32, 80)), label="size")
        table = data.draw(st.lists(st.tuples(
            each(st.just(True) if dense else st.booleans()),
            each(st.integers(0, n_intlv)), each(st.integers(1, n_intlv)),
            each(prio_st)), min_size=size, max_size=size), label="rows")
        n = len(table)
        ids = data.draw(st.permutations(range(100, 100 + n)), label="ids")
        av, al, ar, prio = (
            np.array([row[k] for row in table], dtype=dtype).reshape(n, n_prfs)
            for k, dtype in enumerate((bool, np.int64, np.int64, float)))
        if data.draw(st.booleans(), label="shared priority column"):
            prio = prio[:, 0]
        store = TaskStore(n_intlv, ids, av, al, ar, prio)
        assert store.order == full_table_orders(ids, av, prio)
        counters = OpCounters()
        backends, entries = [], []
        for p in range(n_prfs):
            rows = np.flatnonzero(av[:, p]).tolist()
            for kind in BACKEND_KINDS:
                backends.append(build_backend(kind, store, p, store.order[p], counters))
                entries.append([(ids[r], al[r, p], ar[r, p],
                                 prio[r] if prio.ndim == 1 else prio[r, p])
                                for r in rows])
        dead = set()
        memberships = 0
        for _ in range(data.draw(st.integers(0, 40), label="steps")):
            i = data.draw(st.integers(0, len(backends) - 1))
            live = [r for r in backends[i]._order if store.live[r]]
            if live and data.draw(st.booleans()):
                rows = data.draw(st.lists(st.sampled_from(live), min_size=1, max_size=3,
                                          unique=True))
                for row in rows:
                    backends[i].store.kill(row)
                    dead.add(ids[row])
                batched = data.draw(st.booleans(), label="one delete call")
                for b in backends:
                    held = [row for row in rows if row in b._order]
                    if batched:
                        b.delete(held)
                    else:
                        for row in held:
                            b.delete((row,))
                    memberships += len(held)
            # thresholds outside [0, n_intlv] and [1, n_intlv] too
            a = data.draw(st.integers(-2, n_intlv + 2))
            r = data.draw(st.integers(-2, n_intlv + 2))
            for b, own in zip(backends, entries):
                best = b.best_in(a, r)
                assert (None if best is None else ids[best]) == \
                    linear_best(own, dead, a, r), (b.kind, a, r)
                assert b.has_left(a) == linear_has_left(own, dead, a), (b.kind, a)
                assert b.live_count == sum(e[0] not in dead for e in own)
        assert counters.backend_deletes == memberships

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_range_trees_answer_before_their_deletes(self, data):
        """Range trees over one store answer as linear scans of its live
        rows whether or not their ``delete`` has seen a killed row yet (a
        row killed by another PRF's look waits for that look's consume),
        and ``delete`` leaves the node lists and cursors as they were."""
        n_intlv = data.draw(st.integers(1, 17), label="n_intlv")
        n_prfs = data.draw(st.integers(1, 3), label="n_prfs")
        each = lambda s: st.lists(s, min_size=n_prfs, max_size=n_prfs)
        # both sides of the 32-row switch between Python and numpy builds
        size = data.draw(st.one_of(st.integers(0, 31), st.integers(32, 80)), label="size")
        table = data.draw(st.lists(st.tuples(
            each(st.booleans()), each(st.integers(0, n_intlv)),
            each(st.integers(1, n_intlv)), each(st.sampled_from([0.0, 1.0, 2.0]))),
            min_size=size, max_size=size), label="rows")
        n = len(table)
        av, al, ar, prio = (
            np.array([row[k] for row in table], dtype=dtype).reshape(n, n_prfs)
            for k, dtype in enumerate((bool, np.int64, np.int64, float)))
        store = TaskStore(n_intlv, range(n), av, al, ar, prio)
        counters = OpCounters()
        trees = [build_backend("rangetree", store, p, store.order[p], counters)
                 for p in range(n_prfs)]
        deleted = [set() for _ in trees]
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            live = [r for r in range(n) if store.live[r]]
            for row in data.draw(st.lists(st.sampled_from(live), unique=True)
                                 if live else st.just([]), label="killed"):
                store.kill(row)
            for tree, gone in zip(trees, deleted):
                pending = [r for r in tree._order if not store.live[r] and r not in gone]
                rows = data.draw(st.lists(st.sampled_from(pending), unique=True)
                                 if pending else st.just([]), label="deleted")
                lists, cursor = copy.deepcopy((tree._lists, tree._cursor))
                tree.delete(rows)
                gone.update(rows)
                assert (tree._lists, tree._cursor) == (lists, cursor)
                assert tree.live_count == len(tree._order) - len(gone)
            for p, tree in enumerate(trees):
                held = [r for r in tree._order if store.live[r]]
                for l in range(-2, n_intlv + 3):
                    before = counters.list_inspections
                    assert tree.has_left(l) == any(al[r, p] >= l for r in held), l
                    assert counters.list_inspections - before <= tree._visit_cap
                    for r_min in range(-2, n_intlv + 3):
                        before = counters.list_inspections
                        assert tree.best_in(l, r_min) == next(
                            (r for r in held if al[r, p] >= l and ar[r, p] >= r_min),
                            None), (l, r_min)
                        assert counters.list_inspections - before <= tree._visit_cap


class TestPriorityOrder:
    @pytest.mark.parametrize("task_rule", TASK_RULES)
    def test_orders_match_the_full_table_lexsort(self, task_rule):
        # ids out of row order (a shuffled sample with gaps), so a tie broken
        # by row instead of id shows; the sums of SAP, SLA and SRA tie often
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=200, seed=7, keep_unschedulable=True),
                                        RadarConfig(), default_prf_set(count=8))
        rng = random.Random(task_rule)
        ids = rng.sample(range(1000, 1000 + 10 * len(tasks.ids)), len(tasks.ids))
        table = build_availability_table(
            TaskColumns(ids, *(getattr(tasks, name) for name in _TASK_FLOATS)), prfs, cfg)
        prio = task_priorities(task_rule, table, random.Random(3))
        store = TaskStore(cfg.n_intlv, table.tasks.ids, table.av, table.al, table.ar, prio)
        want = full_table_orders(table.tasks.ids, table.av, prio)
        assert store.order == want
        for p, rows in enumerate(want):
            # one convention for every rule: a rank is the position in order[p]
            assert [store.rank[p][r] for r in rows] == list(range(len(rows)))
            every_third = set(rows[::3])
            for kind in BACKEND_KINDS:
                # the store's order itself, as element mode builds, and a
                # subset sorted by rank, as the per-disk builds get theirs
                assert build_backend(kind, store, p, store.order[p])._order is store.order[p]
                assert build_backend(kind, store, p, sorted(
                    every_third, key=store.rank[p].__getitem__))._order == \
                    [r for r in rows if r in every_third]
        if task_rule in ("SAP", "SLA", "SRA"):
            assert len(set(prio.tolist())) < len(prio)

    @pytest.mark.parametrize("shared", [False, True])
    def test_a_store_of_no_rows_builds(self, shared):
        # a shared priority column of 0 rows broadcasts to [0, PRF] as well
        av = np.zeros((0, 3), dtype=bool)
        cols = np.zeros((0, 3), dtype=np.int64)
        store = TaskStore(8, [], av, cols, cols, np.zeros(0 if shared else (0, 3)))
        assert store.prio_table.shape == (0, 3)
        assert store.order == store.rank == [[], [], []]


class TestBackendEquivalence:
    def test_same_answers_across_kinds(self):
        rng = random.Random(11)
        for trial in range(40):
            n_intlv = rng.choice([2, 3, 4, 8, 11])
            entries = random_entries(rng, rng.randrange(1, 40), n_intlv,
                                     prio_pool=[1.0, 2.0, 3.0] if trial % 3 else None)
            backends = [backend_over(k, n_intlv, entries) for k in BACKEND_KINDS]
            for a in range(0, n_intlv + 1):
                for r in range(1, n_intlv + 1):
                    answers = {b.best_in(a, r) for b in backends}
                    assert len(answers) == 1, (a, r, answers)

    def test_trace_replay_matches_linear_scan(self):
        rng = random.Random(12)
        ops = 0
        while ops < 100_000:
            n_intlv = rng.choice([3, 4, 8])
            entries = random_entries(rng, rng.randrange(1, 60), n_intlv)
            store = task_store(entries, n_intlv)
            backends = {k: build_backend(k, store, 0, store.order[0]) for k in BACKEND_KINDS}
            dead = set()
            alive = [e[0] for e in entries]
            for _ in range(rng.randrange(10, 120)):
                ops += 1
                roll = rng.random()
                if roll < 0.45 or not alive:
                    a = rng.randrange(0, n_intlv + 1)
                    r = rng.randrange(1, n_intlv + 1)
                    want = linear_best(entries, dead, a, r)
                    for k, b in backends.items():
                        assert b.best_in(a, r) == want, (k, a, r)
                elif roll < 0.7:
                    a = rng.randrange(0, n_intlv + 1)
                    want = linear_has_left(entries, dead, a)
                    for k, b in backends.items():
                        assert b.has_left(a) == want, (k, a)
                else:
                    tid = rng.choice(alive)
                    alive.remove(tid)
                    dead.add(tid)
                    kill(list(backends.values()), tid)
        assert ops >= 100_000


class TestStructuralBounds:
    def test_pairwise_entry_bound(self):
        rng = random.Random(13)
        for n_intlv in (3, 4, 6, 8, 12):
            entries = random_entries(rng, 30, n_intlv)
            b = backend_over("pairwise", n_intlv, entries)
            assert b.total_entries() <= n_intlv * (n_intlv - 1) * len(entries)

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_node_entries_counted_once_per_build(self, kind):
        entries = random_entries(random.Random(17), 40, 8)
        counters = OpCounters()
        b = backend_over(kind, 8, entries, counters)
        if kind == "pairwise":
            written = b.total_entries()
        elif kind == "rangetree":
            written = sum(map(len, stored_lists(b)))
        else:
            written = 0
        assert counters.node_entries == written
        for tid, *_ in entries[::2]:
            b.best_in(0, 1)
            kill([b], tid)
        assert counters.node_entries == written

    def test_pairwise_deletion_touch_cap(self):
        rng = random.Random(14)
        for n_intlv in (3, 4, 8):
            entries = random_entries(rng, 25, n_intlv)
            counters = OpCounters()
            b = backend_over("pairwise", n_intlv, entries, counters)
            for tid, *_ in entries:
                before = counters.pairwise_touches
                kill([b], tid)
                assert counters.pairwise_touches - before <= n_intlv * (n_intlv - 1)

    def test_rangetree_membership_and_depth_bounds(self):
        rng = random.Random(15)
        for n_intlv in (2, 3, 4, 5, 8, 9, 16, 17):
            entries = random_entries(rng, 40, n_intlv)
            b = backend_over("rangetree", n_intlv, entries)
            cap = (math.ceil(math.log2(n_intlv)) + 1) ** 2 if n_intlv > 1 else 4
            paths = b._paths
            lists_per_task = max(
                (len(paths[b.al[r]]) * len(paths[b.ar[r]]) for r in b._order), default=0)
            assert lists_per_task <= cap
            depth = _tree_shape(n_intlv).leaves.bit_length() - 1
            assert depth <= math.ceil(math.log2(n_intlv)) + 1

    def test_rangetree_query_inspection_cap(self):
        rng = random.Random(16)
        n_intlv = 8
        entries = random_entries(rng, 50, n_intlv)
        counters = OpCounters()
        b = backend_over("rangetree", n_intlv, entries, counters)
        cap = (math.ceil(math.log2(n_intlv)) + 1) ** 2
        for a in range(0, n_intlv + 1):
            for r in range(1, n_intlv + 1):
                before = counters.list_inspections
                b.best_in(a, r)
                assert counters.list_inspections - before <= cap

    def test_build_determinism(self):
        rng = random.Random(17)
        entries = random_entries(rng, 30, 8)
        seq = []
        for k in BACKEND_KINDS:
            b = backend_over(k, 8, entries)
            trace = []
            for a, r in [(0, 1), (2, 3), (5, 2), (0, 8)]:
                t = b.best_in(a, r)
                trace.append(t)
                if t is not None:
                    kill([b], t)
            seq.append(trace)
        assert seq[0] == seq[1] == seq[2]
