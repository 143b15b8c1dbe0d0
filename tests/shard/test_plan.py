"""The sharded image join: slices, work stealing and the OR join.

The split join is placement-independent: OR is commutative and
associative and BDDs are canonical, so however the work-stealing
dispatcher re-routes cofactor slices, the joined image must be
edge-identical to the in-process reference.  The stealing tests force
steals deterministically by pinning the dispatcher's ``wait_any`` to
one shard.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager, dump_nodes
from repro.shard import ShardPool, ShardedImage
from repro.symb.image import image_partitioned

N_VARS = 8


def relation_manager():
    """A manager with interleaved (x_i, y_i) pairs and iff parts."""
    mgr = BddManager()
    xs, ys = [], []
    for i in range(N_VARS):
        xs.append(mgr.add_var(f"x{i}"))
        ys.append(mgr.add_var(f"y{i}"))
    return mgr, xs, ys


def make_parts(mgr, xs, ys, spec):
    """Parts ``y_i ≡ <function of xs>`` per (i, xs-subset) spec."""
    parts = []
    for i, deps in spec:
        f = 1
        for d in deps:
            f = mgr.apply_and(f, mgr.var_node(xs[d]))
        parts.append(mgr.apply_iff(mgr.var_node(ys[i]), f))
    return parts


def retain_everywhere(pool, mgr, handle, edge):
    pool.broadcast(("retain", handle, dump_nodes(mgr, [edge])))


def constraints_with_slices(mgr, xs):
    """Constraints whose support spans several split candidates."""
    out = []
    for k in range(3):
        psi = 1
        for v in xs[k : k + 3]:
            psi = mgr.apply_or(mgr.var_node(v), psi ^ 1) ^ (k & 1)
        psi = mgr.apply_or(psi, mgr.var_node(xs[(k + 4) % 4]))
        if psi not in (0, 1):
            out.append(psi)
    assert out
    return out


class TestShardedImage:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_matches_in_process_image(self, shards) -> None:
        mgr, xs, ys = relation_manager()
        parts = make_parts(
            mgr, xs, ys, [(0, [0]), (1, [0, 1]), (2, [2, 3]), (3, [3])]
        )
        quantify = xs[:4]
        psi = mgr.apply_or(
            mgr.apply_and(mgr.var_node(xs[0]), mgr.var_node(xs[2])),
            mgr.nvar_node(xs[1]),
        )
        expected = image_partitioned(mgr, parts, psi, quantify)
        with ShardPool(shards, mgr.var_order()) as pool:
            img = ShardedImage(pool, mgr, parts, quantify, set(xs[:4]))
            assert img.run(psi) == expected
            # run() releases the constraint it retained.
            assert all(s["resident"] == 0 for s in pool.stats())
            # FALSE constraint short-circuits without worker traffic.
            assert img.run(0) == 0


class TestWorkStealing:
    def _batch(self, pool, mgr, xs):
        items = []
        for psi in constraints_with_slices(mgr, xs):
            handle = pool.new_handle()
            retain_everywhere(pool, mgr, handle, psi)
            items.append((handle, psi))
        return items

    def _parts(self, mgr, xs, ys):
        return make_parts(
            mgr, xs, ys, [(0, [0]), (1, [0, 1]), (2, [2, 3]), (3, [3])]
        )

    def test_batch_matches_in_process_image(self) -> None:
        mgr, xs, ys = relation_manager()
        parts = self._parts(mgr, xs, ys)
        with ShardPool(2, mgr.var_order()) as pool:
            img = ShardedImage(pool, mgr, parts, xs[:4], set(xs[:4]))
            items = self._batch(pool, mgr, xs)
            results = img.run_resident_batch(items)
            for (_, psi), got in zip(items, results):
                assert got == image_partitioned(mgr, parts, psi, xs[:4])

    def test_forced_steals_produce_identical_images(self) -> None:
        """Pin the dispatcher to shard 0: it drains its own queue, then
        must steal shard 1's pending slices — and the OR-join must not
        notice the re-placement."""
        mgr, xs, ys = relation_manager()
        parts = self._parts(mgr, xs, ys)
        with ShardPool(2, mgr.var_order()) as pool:
            img = ShardedImage(pool, mgr, parts, xs[:4], set(xs[:4]))
            items = self._batch(pool, mgr, xs)
            # Always service the first busy shard; collect() still
            # blocks on that shard's FIFO, so this only skews routing.
            original = pool.wait_any
            pool.wait_any = lambda shards: [shards[0]]
            try:
                results = img.run_resident_batch(items, window=1)
            finally:
                pool.wait_any = original
            assert img.steals > 0
            for (_, psi), got in zip(items, results):
                assert got == image_partitioned(mgr, parts, psi, xs[:4])

    def test_steal_counter_starts_at_zero(self) -> None:
        mgr, xs, ys = relation_manager()
        parts = make_parts(mgr, xs, ys, [(0, [0])])
        with ShardPool(1, mgr.var_order()) as pool:
            img = ShardedImage(pool, mgr, parts, xs[:4], set(xs[:4]))
            assert img.steals == 0


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_sharded_image_random_relations(data) -> None:
    """Random dependency structure vs the in-process image."""
    mgr, xs, ys = relation_manager()
    n_parts = data.draw(st.integers(2, 5))
    spec = [
        (i, sorted(data.draw(st.sets(st.integers(0, 5), max_size=3))))
        for i in range(n_parts)
    ]
    parts = make_parts(mgr, xs, ys, spec)
    quantify = xs[:6]
    cube = data.draw(st.lists(st.sampled_from(xs[:6]), max_size=3))
    psi = 1
    for v in cube:
        psi = mgr.apply_and(psi, mgr.var_node(v))
    expected = image_partitioned(mgr, parts, psi, quantify)
    with ShardPool(2, mgr.var_order()) as pool:
        img = ShardedImage(pool, mgr, parts, quantify, set(xs[:6]))
        assert img.run(psi) == expected
