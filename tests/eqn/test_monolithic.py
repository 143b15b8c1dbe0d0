"""The monolithic oracle's cube path: a cube ψ is imaged by cofactoring TS.

``∃cs.(TS ∧ ψ) = ∃(cs∖vars ψ).(TS|ψ)`` when ψ is a cube over cs
variables, so :meth:`MonolithicOracle.successor_image` must return the
very edge the fused ``and_exists`` fold does, on every subset state a
solve expands; any other ψ must take the fold.
"""

from __future__ import annotations

import pytest

from repro.bdd.cube import cube_assignment
from repro.bdd.manager import BddManager
from repro.bench.suite import case_by_name
from repro.eqn.monolithic import MonolithicOracle
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.subset import subset_construct

#: The rows the monolithic flow completes (perfbench's ``table1_mono``).
MONO_ROWS = ("s27", "count6", "johnson8", "rand10", "lfsr8")


class CheckedOracle(MonolithicOracle):
    """Checks every P image against the ``and_exists`` fold."""

    def __init__(self, problem) -> None:
        super().__init__(problem)
        self.cube_images = 0
        self.first_two: list[int] = []

    def successor_image(self, psi: int) -> int:
        mgr = self.mgr
        bound = cube_assignment(mgr, psi)
        assert bound is not None and self.cs_set.issuperset(bound)
        p = super().successor_image(psi)
        assert p == mgr.and_exists(psi, self.ts, self.cs_qs)
        self.cube_images += 1
        if len(self.first_two) < 2:
            mgr.ref(psi)
            self.first_two.append(psi)
        return p


@pytest.fixture
def cofactor_calls(monkeypatch) -> list[int]:
    """Records the edges every :meth:`BddManager.cofactor_cube` call is on."""
    calls: list[int] = []
    original = BddManager.cofactor_cube

    def counting(self, f, cube):
        calls.append(f)
        return original(self, f, cube)

    monkeypatch.setattr(BddManager, "cofactor_cube", counting)
    return calls


@pytest.mark.parametrize("name", MONO_ROWS)
def test_cube_path_matches_the_fold(name, cofactor_calls) -> None:
    case = case_by_name(name)
    problem = build_latch_split_problem(case.network(), list(case.x_latches))
    oracle = CheckedOracle(problem)
    _, stats = subset_construct(oracle, problem)
    # Every expanded ψ is a cube over cs and was cofactored out of TS.
    assert oracle.cube_images == stats.subsets
    assert cofactor_calls.count(oracle.ts) == stats.subsets

    mgr = oracle.mgr
    first = oracle.first_two[0]
    # A cube that leaves a cs variable free is cofactored, then the
    # free variables are quantified.
    free = next(iter(cube_assignment(mgr, first)))
    partial = mgr.exists(first, [free])
    cofactor_calls.clear()
    p = MonolithicOracle.successor_image(oracle, partial)
    assert cofactor_calls == [oracle.ts]
    assert p == mgr.and_exists(partial, oracle.ts, oracle.cs_qs)

    # The OR of two reachable states is no cube: it takes the fold.
    psi = mgr.apply_or(*oracle.first_two)
    assert cube_assignment(mgr, psi) is None
    cofactor_calls.clear()
    p = MonolithicOracle.successor_image(oracle, psi)
    assert cofactor_calls == []
    assert p == mgr.and_exists(psi, oracle.ts, oracle.cs_qs)
