"""Sweep cadence and failure cleanup of the bounded-memory runtime.

Both sides of a budgeted solve — the coordinator's
:class:`~repro.eqn.residency.ResidencyManager` and each shard worker's
resident registry — sweep once the ψ they evicted since their last
sweep add up to the resident budget, not after every evicting batch.
The resident ψ stay within the budget and the evicted-but-unswept ψ
stay below it.

A budgeted sharded solve that runs out of nodes or time must still fail
with a :class:`~repro.errors.ReproError`, remove its spill directory
and reap its workers; a worker that owns its spill directory removes it
when it shuts down.
"""

from __future__ import annotations

import multiprocessing as mp
import tempfile

import pytest

from repro.bdd import BddManager, dump_nodes
from repro.bench import circuits
from repro.bench.suite import TABLE1_BENCH_ONLY_CASES
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.residency import ResidencyManager
from repro.eqn.solver import solve_equation
from repro.errors import ReproError
from repro.shard import ShardPool
from repro.util.limits import ResourceLimit

NAMES = [f"v{i}" for i in range(8)]
BUDGET = 3


@pytest.fixture()
def mgr():
    m = BddManager()
    m.add_vars(NAMES)
    return m


def _literal(mgr, i: int) -> int:
    return mgr.var_node(mgr.var_index(NAMES[i]))


class TestResidencyCadence:
    def _admit_literal(self, mgr, residency, i: int) -> None:
        psi = mgr.ref(_literal(mgr, i))
        residency.admit(psi, i)
        residency.mark_expanded(psi)

    def _evict_one(self, mgr, residency, i: int) -> bool:
        """Admit literal ``i``, enforce (one 1-node eviction), maybe sweep."""
        self._admit_literal(mgr, residency, i)
        evicted = residency.enforce()
        assert len(evicted) == 1
        for psi in evicted:
            mgr.deref(psi)
        return residency.sweep_if_due()

    def test_sweeps_once_a_budget_of_evictions_piled_up(self, mgr) -> None:
        residency = ResidencyManager(mgr, BUDGET)
        for i in range(BUDGET):  # exactly at budget: nothing evicted
            self._admit_literal(mgr, residency, i)
        assert residency.enforce() == []
        assert not residency.sweep_if_due()
        runs = mgr.stats["gc_runs"]
        # Evictions below the budget never sweep ...
        for i in range(BUDGET, 2 * BUDGET - 1):
            assert not self._evict_one(mgr, residency, i)
        assert mgr.stats["gc_runs"] == runs
        # ... the one that reaches it sweeps once and resets the sum.
        assert self._evict_one(mgr, residency, 2 * BUDGET - 1)
        assert mgr.stats["gc_runs"] == runs + 1
        assert not residency.sweep_if_due()
        assert not self._evict_one(mgr, residency, 2 * BUDGET)
        assert mgr.stats["gc_runs"] == runs + 1
        assert residency.resident_nodes == BUDGET
        residency.close()


def test_worker_sweeps_once_a_budget_of_spills_piled_up(mgr) -> None:
    with ShardPool(1, NAMES, resident_budget=BUDGET) as pool:

        def retain(i: int) -> None:
            snap = dump_nodes(mgr, [_literal(mgr, i)])
            pool.call(0, ("retain", pool.new_handle(), snap))

        for i in range(BUDGET):
            retain(i)
        runs = pool.stats()[0]["gc_runs"]
        for i in range(BUDGET, 2 * BUDGET - 1):
            retain(i)  # spills one 1-node entry, below the budget
        stats = pool.stats()[0]
        assert stats["psi_spills"] == BUDGET - 1
        assert stats["gc_runs"] == runs
        retain(2 * BUDGET - 1)  # the spill that reaches the budget
        assert pool.stats()[0]["gc_runs"] == runs + 1
        retain(2 * BUDGET)  # the sum was reset: no sweep
        stats = pool.stats()[0]
        assert stats["psi_spills"] == BUDGET + 1
        assert stats["gc_runs"] == runs + 1
        assert stats["resident_nodes"] == BUDGET


def test_worker_owned_spill_dir_goes_with_the_pool(mgr, tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # forked workers inherit it
    with ShardPool(1, NAMES, resident_budget=1) as pool:
        for i in range(2):
            snap = dump_nodes(mgr, [_literal(mgr, i)])
            pool.call(0, ("retain", pool.new_handle(), snap))
        assert pool.stats()[0]["psi_spills"] == 1
        assert len(list(tmp_path.glob("repro-spill-*"))) == 1
    assert list(tmp_path.glob("repro-spill-*")) == []


def test_budgeted_solve_sweeps_less_often_than_it_evicts(monkeypatch) -> None:
    evicting_batches = 0
    enforce = ResidencyManager.enforce

    def counting_enforce(residency):
        nonlocal evicting_batches
        evicted = enforce(residency)
        evicting_batches += bool(evicted)
        return evicted

    monkeypatch.setattr(ResidencyManager, "enforce", counting_enforce)
    problem = build_latch_split_problem(circuits.johnson(8), ["j1", "j3", "j5", "j7"])
    result = solve_equation(problem, method="partitioned", resident_budget=20)
    assert result.stats.extra["resident_evictions"] > 0
    gc_runs = problem.manager.stats["gc_runs"]
    assert 0 < gc_runs < evicting_batches


# --------------------------------------------------------------------- #
# Fault injection: an exhausted node or time budget
# --------------------------------------------------------------------- #

(TWIN16X4,) = [c for c in TABLE1_BENCH_ONLY_CASES if c.name == "twin16x4"]
TWIN_SOLVE = {"frontier": "bfs", "batch": 8, "shards": 2, "resident_budget": 2048}


@pytest.mark.parametrize(
    "max_nodes, limit",
    [(3000, None), (None, ResourceLimit(max_seconds=0.3))],
    ids=["node-budget", "time-budget"],
)
def test_exhausted_budget_fails_cleanly(max_nodes, limit, tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    problem = build_latch_split_problem(
        TWIN16X4.network(), list(TWIN16X4.x_latches), max_nodes=max_nodes
    )
    with pytest.raises(ReproError):
        solve_equation(problem, method="partitioned", limit=limit, **TWIN_SOLVE)
    assert [p.name for p in tmp_path.glob("repro-spill-*")] == []
    assert mp.active_children() == []
