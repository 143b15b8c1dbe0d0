"""Sweep cadence and failure cleanup of the bounded-memory runtime.

The coordinator's :class:`~repro.eqn.residency.ResidencyManager` — the
only ψ spill policy; shard workers hold at most one batch and never
spill — sweeps once the ψ it evicted since its last sweep add up to the
resident budget, not after every evicting batch.  The resident ψ stay
within the budget and the evicted-but-unswept ψ stay below it.

A budgeted sharded solve that runs out of nodes or time must still fail
with a :class:`~repro.errors.ReproError`, remove its spill directory
and reap its workers.
"""

from __future__ import annotations

import multiprocessing as mp
import tempfile

import pytest

from repro.bdd import BddManager
from repro.bench import circuits
from repro.bench.suite import TABLE1_BENCH_ONLY_CASES
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.residency import ResidencyManager
from repro.eqn.solver import solve_equation
from repro.errors import ReproError
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
