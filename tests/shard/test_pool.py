"""ShardPool / worker protocol tests: lifecycle, commands, failure."""

from __future__ import annotations

import threading

import pytest

from repro.bdd import FALSE, BddManager, dump_nodes, load_nodes
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


def test_large_command_behind_an_uncollected_large_reply() -> None:
    """A send into a full pipe reads the worker's ready replies ahead.

    ``OR(a_i & b_i)`` with every ``a`` above every ``b`` has ~2^15
    nodes, a snapshot of ~0.8 MB: both the ``dump`` reply and each
    ``retain`` blob are larger than a socket buffer.  With nothing
    collected in between, the worker blocks sending the dump while the
    coordinator sends the retains; a blocking send would wait forever.
    """
    n = 14
    names = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    big = BddManager()
    big.add_vars(names)
    f = FALSE
    for i in range(n):
        pair = big.apply_and(
            big.var_node(big.var_index(f"a{i}")),
            big.var_node(big.var_index(f"b{i}")),
        )
        f = big.apply_or(f, pair)
    snap = dump_nodes(big, [f])
    pool = ShardPool(1, names)

    def queue() -> None:
        pool.submit(0, ("load", 1, snap))
        pool.submit(0, ("dump", 1))
        for handle in (2, 3, 4):
            pool.submit(0, ("retain", handle, snap))

    sender = threading.Thread(target=queue, daemon=True)
    try:
        sender.start()
        sender.join(timeout=30)
        assert not sender.is_alive(), "submit blocked behind an uncollected reply"
        replies = [pool.collect(0) for _ in range(5)]
        assert load_nodes(big, replies[1]) == [f]
        assert replies[2:] == [1, 1, 1]
        assert pool.stats()[0]["resident"] == 3
    finally:
        if sender.is_alive():
            for proc in pool._procs:
                proc.terminate()
        pool.close()
