"""ψ-handle lifecycle: shard-resident functions under GC and release.

The resident registry is the batched subset engine's transfer saver:
each subset state ψ crosses the wire once (``retain``) and is then named
by handle until ``release``.  These tests pin the lifecycle contract:

* retained entries are refcounted — double retain needs double release;
* resident functions survive worker-side garbage collection
  bit-for-bit (names-based snapshots);
* release is leak-free: after releasing everything and collecting, the
  worker's live node count returns to its post-spawn baseline.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager, dump_nodes, load_nodes
from repro.bdd.manager import FALSE
from repro.shard import ShardError, ShardPool

from tests.strategies import DEFAULT_VARS, expressions

VARS = list(DEFAULT_VARS)


@pytest.fixture()
def mgr():
    m = BddManager()
    m.add_vars(VARS)
    return m


class TestRetainRelease:
    def test_retain_release_roundtrip(self, mgr) -> None:
        f = mgr.apply_xor(
            mgr.var_node(mgr.var_index("a")), mgr.var_node(mgr.var_index("b"))
        )
        with ShardPool(1, VARS) as pool:
            handle = pool.new_handle()
            assert pool.call(0, ("retain", handle, dump_nodes(mgr, [f]))) == 1
            assert pool.stats()[0]["resident"] == 1
            (back,) = load_nodes(mgr, pool.call(0, ("dump", handle)))
            assert back == f
            assert pool.call(0, ("release", [handle])) == 1
            assert pool.stats()[0]["resident"] == 0

    def test_refcounted_double_retain(self, mgr) -> None:
        f = mgr.var_node(mgr.var_index("c"))
        with ShardPool(1, VARS) as pool:
            handle = pool.new_handle()
            pool.call(0, ("retain", handle, dump_nodes(mgr, [f])))
            # Second retain of a resident handle needs no snapshot.
            assert pool.call(0, ("retain", handle, None)) == 2
            assert pool.call(0, ("release", [handle])) == 0  # still held
            assert pool.stats()[0]["resident"] == 1
            assert pool.call(0, ("release", [handle])) == 1
            assert pool.stats()[0]["resident"] == 0

    def test_retain_unknown_handle_without_snapshot_errors(self, mgr) -> None:
        with ShardPool(1, VARS) as pool:
            with pytest.raises(ShardError, match="retain"):
                pool.call(0, ("retain", 99, None))
            # The worker survives the bad command.
            assert pool.stats()[0]["resident"] == 0

    def test_release_unknown_handle_is_tolerated(self, mgr) -> None:
        with ShardPool(1, VARS) as pool:
            assert pool.call(0, ("release", [12345])) == 0

    def test_pool_op_counts_track_commands(self, mgr) -> None:
        f = mgr.var_node(mgr.var_index("a"))
        with ShardPool(1, VARS) as pool:
            handle = pool.new_handle()
            pool.call(0, ("retain", handle, dump_nodes(mgr, [f])))
            pool.call(0, ("release", [handle]))
            assert pool.op_counts["retain"] == 1
            assert pool.op_counts["release"] == 1
            assert pool.op_counts["vars"] == 1


class TestLifecycleUnderGcAndSift:
    def test_resident_survives_gc_and_sift(self, mgr) -> None:
        a, b, c = (mgr.var_index(v) for v in ("a", "b", "c"))
        f = mgr.apply_or(
            mgr.apply_and(mgr.var_node(a), mgr.var_node(b)),
            mgr.apply_and(mgr.var_node(b), mgr.var_node(c)),
        )
        with ShardPool(1, VARS) as pool:
            handle = pool.new_handle()
            pool.call(0, ("retain", handle, dump_nodes(mgr, [f])))
            pool.call(0, ("gc",))
            pool.call(0, ("gc",))
            (back,) = load_nodes(mgr, pool.call(0, ("dump", handle)))
            assert back == f
            pool.call(0, ("release", [handle]))

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        exprs=st.lists(expressions(VARS, max_leaves=10), min_size=1, max_size=5),
        double_retain=st.booleans(),
    )
    def test_lifecycle_is_leak_free(self, exprs, double_retain) -> None:
        """Retain → GC → dump → release leaves no worker garbage.

        The worker's ``stats`` node count must return to the post-spawn
        baseline once every handle is released and a collection runs —
        the leak assertion of the ISSUE's handle-lifecycle satellite.
        """
        mgr = BddManager()
        mgr.add_vars(VARS)
        funcs = [e.to_bdd(mgr) for e in exprs]
        with ShardPool(1, VARS) as pool:
            # Literal (single-variable) nodes are permanent GC roots in
            # any manager; materialise each one before taking the
            # baseline so the leak check measures the registry only.
            for name in VARS:
                warm = pool.new_handle()
                literal = mgr.var_node(mgr.var_index(name))
                pool.call(0, ("retain", warm, dump_nodes(mgr, [literal])))
                pool.call(0, ("release", [warm]))
            pool.call(0, ("gc",))
            baseline = pool.stats()[0]["live_nodes"]
            handles = []
            for f in funcs:
                handle = pool.new_handle()
                pool.call(0, ("retain", handle, dump_nodes(mgr, [f])))
                if double_retain:
                    pool.call(0, ("retain", handle, None))
                handles.append(handle)
            # Stress the registry: collect twice.
            pool.call(0, ("gc",))
            pool.call(0, ("gc",))
            # Every resident function must still round-trip bit-for-bit.
            for f, handle in zip(funcs, handles):
                (back,) = load_nodes(mgr, pool.call(0, ("dump", handle)))
                assert back == f
            pool.call(0, ("release", handles))
            if double_retain:
                assert pool.stats()[0]["resident"] == len(handles)
                pool.call(0, ("release", handles))
            assert pool.stats()[0]["resident"] == 0
            pool.call(0, ("gc",))
            assert pool.stats()[0]["live_nodes"] == baseline

    def test_expand_batch_over_resident_handles(self, mgr) -> None:
        """Worker-side batched images: plain handles and sliced specs."""
        a, b = mgr.var_index("a"), mgr.var_index("b")
        part = mgr.apply_iff(mgr.var_node(a), mgr.var_node(b))
        psi1 = mgr.var_node(a)
        psi2 = mgr.apply_or(mgr.var_node(a), mgr.var_node(b))
        with ShardPool(1, VARS) as pool:
            (part_handle,) = [pool.new_handle()]
            pool.call(0, ("load", part_handle, dump_nodes(mgr, [part])))
            plan_id = pool.new_handle()
            pool.call(0, ("plan", plan_id, [part_handle], ["a"], ["a", "b"]))
            h1, h2 = pool.new_handle(), pool.new_handle()
            pool.call(0, ("retain", h1, dump_nodes(mgr, [psi1])))
            pool.call(0, ("retain", h2, dump_nodes(mgr, [psi2])))
            snaps = pool.call(0, ("expand_batch", plan_id, [h1, h2]))
            expected1 = mgr.and_exists(psi1, part, [a])
            expected2 = mgr.and_exists(psi2, part, [a])
            (got1,) = load_nodes(mgr, snaps[0])
            (got2,) = load_nodes(mgr, snaps[1])
            assert (got1, got2) == (expected1, expected2)
            # Sliced item: image of ψ2 ∧ (a=1), no snapshot shipped.
            (snap,) = pool.call(
                0, ("expand_batch", plan_id, [(h2, {"a": 1})])
            )
            (got_slice,) = load_nodes(mgr, snap)
            sliced = mgr.apply_and(psi2, mgr.var_node(a))
            assert got_slice == mgr.and_exists(sliced, part, [a])
            # An empty spec means the whole resident constraint.
            (snap,) = pool.call(0, ("expand_batch", plan_id, [(h2, {})]))
            (got_whole,) = load_nodes(mgr, snap)
            assert got_whole == expected2
            pool.call(0, ("release", [h1, h2]))
            assert pool.stats()[0]["resident"] == 0
            assert got_slice != FALSE
