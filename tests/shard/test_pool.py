"""ShardPool / worker protocol tests: lifecycle, commands, failure."""

from __future__ import annotations

import pytest

from repro.bdd import BddManager, dump_nodes
from repro.shard import ShardError, ShardPool

VARS = ["a", "b", "c", "d"]


@pytest.fixture()
def mgr():
    m = BddManager()
    m.add_vars(VARS)
    return m


def test_pool_spawns_and_closes(mgr) -> None:
    pool = ShardPool(2, VARS)
    try:
        stats = pool.stats()
        assert len(stats) == 2
        assert all(s["live_nodes"] == 1 for s in stats)
    finally:
        pool.close()
    pool.close()  # idempotent


def test_pool_context_manager(mgr) -> None:
    with ShardPool(1, VARS) as pool:
        assert pool.num_shards == 1


def test_pool_rejects_zero_shards() -> None:
    with pytest.raises(ShardError):
        ShardPool(0, VARS)


def test_worker_error_propagates_and_worker_survives(mgr) -> None:
    with ShardPool(1, VARS) as pool:
        with pytest.raises(ShardError, match="shard 0 failed"):
            pool.call(0, ("load", 1, {"format": "bogus"}))
        with pytest.raises(ShardError, match="unknown shard command"):
            pool.call(0, ("frobnicate",))
        # The worker is still alive and serving.
        assert pool.stats()[0]["live_nodes"] == 1


def test_submit_collect_pipelining(mgr) -> None:
    f = mgr.var_node(mgr.var_index("a"))
    with ShardPool(2, VARS) as pool:
        handles = []
        for shard in range(2):
            h = pool.new_handle()
            pool.submit(shard, ("load", h, dump_nodes(mgr, [f])))
            handles.append(h)
        for shard in range(2):
            pool.collect(shard)
        assert [s["handles"] for s in pool.stats()] == [1, 1]


def test_collect_without_pending_raises(mgr) -> None:
    with ShardPool(1, VARS) as pool:
        with pytest.raises(ShardError, match="no pending reply"):
            pool.collect(0)


def test_free_releases_handles(mgr) -> None:
    f = mgr.var_node(mgr.var_index("a"))
    with ShardPool(1, VARS) as pool:
        h = pool.new_handle()
        pool.call(0, ("load", h, dump_nodes(mgr, [f])))
        pool.call(0, ("free", [h]))
        assert pool.stats()[0]["handles"] == 0
        pool.call(0, ("gc",))
        assert pool.stats()[0]["live_nodes"] >= 1


def test_closed_pool_rejects_commands(mgr) -> None:
    pool = ShardPool(1, VARS)
    pool.close()
    with pytest.raises(ShardError, match="closed"):
        pool.submit(0, ("stats",))
