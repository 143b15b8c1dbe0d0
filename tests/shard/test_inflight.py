"""A sharded bfs batch in flight across the driver's batch boundary.

Under bfs the sharded oracle submits batch n+1 before it joins batch n,
so the driver's garbage collection, checkpoints and cancel checks all
run while a batch is on the wire.  Each must leave the result, the
coordinator's pins and the worker processes as they are without the
pipeline.  Every solve here is rand10 at bfs/8 on 2 shards.
"""

from __future__ import annotations

import multiprocessing as mp
from collections import Counter

import pytest

from repro.automata.kiss import write_kiss
from repro.bench.suite import case_by_name
from repro.eqn.partitioned import PartitionedOracle
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.solver import solve_equation
from repro.errors import SolveCancelled
from repro.shard import ShardPool
from repro.shard.pool import pool_opts

BFS8 = {"frontier": "bfs", "batch": 8}


def _problem():
    case = case_by_name("rand10")
    return build_latch_split_problem(case.network(), list(case.x_latches))


def _kiss(**flags) -> str:
    return write_kiss(solve_equation(_problem(), **BFS8, **flags).csf)


@pytest.fixture
def ahead(monkeypatch) -> list[list[int]]:
    """The ``prefetch`` batch of every sharded ``expand_batch`` call."""
    calls: list[list[int]] = []
    expand = PartitionedOracle.expand_batch

    def recording(oracle, psis, *, prefetch=None):
        if oracle.prefetches:
            calls.append(list(prefetch or []))
        return expand(oracle, psis, prefetch=prefetch)

    monkeypatch.setattr(PartitionedOracle, "expand_batch", recording)
    return calls


def _pins(mgr) -> Counter:
    return Counter(mgr._extref)


def test_forced_gc_every_boundary_keeps_kiss_and_leaves_no_pin(ahead) -> None:
    """A sweep at every batch boundary, with the next batch in flight.

    The in-process solve on the same manager pins exactly the same
    edges (every ψ and every stored label, the same BDDs by
    canonicity), so the sharded solve must add the same pins: none of
    its in-flight memo keys may be left behind.
    """
    problem = _problem()
    mgr = problem.manager
    mgr.gc_min_live, mgr.gc_growth = 1, 1.0
    before = _pins(mgr)
    inproc = solve_equation(problem, **BFS8)
    after_inproc = _pins(mgr)
    sharded = solve_equation(problem, shards=2, **BFS8)
    after_sharded = _pins(mgr)
    assert sharded.stats.gc_runs >= sharded.stats.batches - 1
    assert any(ahead), "no batch was in flight"
    assert write_kiss(sharded.csf) == write_kiss(inproc.csf) == _kiss()
    assert after_sharded - after_inproc == after_inproc - before


def test_checkpoint_with_a_batch_in_flight_resumes_identically(ahead) -> None:
    snapshots: list[tuple[dict, int]] = []

    def keep(snapshot: dict) -> None:
        snapshots.append((snapshot, len(ahead[-1])))

    solve_equation(
        _problem(), shards=2, checkpoint=keep, checkpoint_every=3, **BFS8
    )
    in_flight = [(snap, n) for snap, n in snapshots if n]
    assert in_flight, "no checkpoint was taken with a batch in flight"
    snapshot, n = in_flight[len(in_flight) // 2]
    assert len(snapshot["frontier"]) >= n
    expected = _kiss()
    for shards in (2, 1):
        resumed = solve_equation(_problem(), shards=shards, resume=snapshot, **BFS8)
        assert write_kiss(resumed.csf) == expected


def test_cancel_with_a_batch_in_flight_owned_pool(ahead) -> None:
    with pytest.raises(SolveCancelled):
        solve_equation(
            _problem(), shards=2, cancel=lambda: len(ahead) >= 3, **BFS8
        )
    assert ahead[-1], "the cancel found no batch in flight"
    assert mp.active_children() == []


def test_cancel_with_a_batch_in_flight_borrowed_pool(ahead) -> None:
    """The borrowed pool survives the cancel; after a reset it solves
    the same KISS bytes, and closing it leaves no process."""
    expected = _kiss()
    problem = _problem()
    mgr = problem.manager
    with ShardPool(2, mgr.var_order(), **pool_opts(mgr)) as pool:
        with pytest.raises(SolveCancelled):
            solve_equation(
                problem, shards=2, pool=pool, cancel=lambda: len(ahead) >= 3,
                **BFS8,
            )
        assert ahead[-1], "the cancel found no batch in flight"
        assert len(mp.active_children()) == 2
        again = _problem()
        pool.reset(again.manager.var_order(), **pool_opts(again.manager))
        result = solve_equation(again, shards=2, pool=pool, **BFS8)
        assert write_kiss(result.csf) == expected
    assert mp.active_children() == []
