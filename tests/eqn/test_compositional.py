"""Compositional solves: component decomposition of decoupled splits.

The gate (:func:`repro.eqn.compose.plan_components` +
:func:`~repro.eqn.compose.conforming_component`) only opens when the
split's support graph decomposes into a letterful component plus
letter-free components that provably conform on every reachable state;
then solving the letterful sub-equation alone has exactly the language
of the direct solve.  These tests pin both sides: where the gate opens
(twin rings with a restricted U alphabet), the languages coincide and
the skipped work is real; where it must not (default split — every
wire in U couples everything to X), the planner declines and the
solver falls back to the direct flow.
"""

from __future__ import annotations

import pytest

from repro.automata import equivalent
from repro.bench import circuits
from repro.eqn.compose import (
    conforming_component,
    plan_components,
    solve_compositional,
    subproblem,
)
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.solver import solve_equation
from repro.eqn.verify import verify_solution
from repro.errors import EquationError

#: Twin decoupled rings with X = two latches of the b-ring and the U
#: alphabet restricted to the b-side — the a-ring never meets X's
#: alphabet, so it forms a letter-free component.
TWIN = dict(x_latches=["b1", "b3"], u_signals=["enb", "b0", "b2"])


def _twin_problem(na=4, nb=4, **kwargs):
    opts = dict(TWIN)
    opts.update(kwargs)
    return build_latch_split_problem(
        circuits.twin_rings(na, nb), opts.pop("x_latches"), **opts
    )


class TestPlan:
    def test_restricted_split_decomposes(self) -> None:
        plan = plan_components(_twin_problem())
        assert plan is not None
        assert len(plan.components) == 2
        assert plan.letterful.letterful
        (free,) = plan.letterfree
        assert not free.letterful
        # The untouched a-ring (F and S copies) is the skipped part.
        assert {n for n in free.f_latches} == {f"a{i}" for i in range(4)}
        assert free.num_latches > 0

    def test_default_split_stays_coupled(self) -> None:
        """All inputs + kept latches in U ⇒ everything touches X."""
        prob = build_latch_split_problem(
            circuits.twin_rings(4, 4), ["b1", "b3"]
        )
        assert plan_components(prob) is None

    def test_no_stateful_letterfree_component_declines(self) -> None:
        """A split whose every latch couples to X has nothing to skip."""
        net = circuits.johnson(8)
        prob = build_latch_split_problem(net, ["j1", "j3", "j5", "j7"])
        assert plan_components(prob) is None

    def test_conforming_component_accepts_the_a_ring(self) -> None:
        prob = _twin_problem()
        plan = plan_components(prob)
        (free,) = plan.letterfree
        assert conforming_component(prob, free)

    def test_subproblem_keeps_only_component_latches(self) -> None:
        prob = _twin_problem()
        plan = plan_components(prob)
        sub = subproblem(prob, plan.letterful)
        assert sub.manager is prob.manager
        assert set(sub.f_next) < set(prob.f_next)
        assert not any(name.startswith("a") for name in sub.f_next)
        assert not any(name.startswith("a") for name in sub.s_next)
        # The alphabet (i/u/v) is the full one: the sub-language lives
        # over the same letters as the original equation.
        assert sub.i_vars == prob.i_vars
        assert sub.u_vars == prob.u_vars
        assert sub.v_vars == prob.v_vars


class TestSolve:
    def test_language_identical_to_direct(self) -> None:
        prob = _twin_problem()
        direct = solve_equation(prob, method="partitioned")
        composed = solve_equation(prob, method="partitioned", compose=True)
        assert composed.options["compose"] is True
        # State counts differ (that is the point); the language must not.
        assert composed.csf_states < direct.csf_states
        assert equivalent(composed.csf, direct.csf)

    def test_composed_solution_verifies(self) -> None:
        prob = _twin_problem()
        composed = solve_equation(prob, method="partitioned", compose=True)
        assert verify_solution(composed).ok

    def test_extra_records_component_stats(self) -> None:
        prob = _twin_problem()
        composed = solve_equation(prob, method="partitioned", compose=True)
        extra = composed.stats.extra
        assert extra["compose_components"] == 2
        assert extra["compose_verified_components"] == 1
        assert extra["compose_solved_latches"] > 0
        assert extra["compose_skipped_latches"] > 0

    def test_solve_compositional_declines_coupled_split(self) -> None:
        prob = build_latch_split_problem(
            circuits.twin_rings(4, 4), ["b1", "b3"]
        )
        assert solve_compositional(prob) is None

    def test_solver_falls_back_to_direct(self) -> None:
        """``compose=True`` on a coupled split is the direct solve."""
        prob = build_latch_split_problem(
            circuits.twin_rings(4, 4), ["b1", "b3"]
        )
        direct = solve_equation(prob, method="partitioned")
        requested = solve_equation(prob, method="partitioned", compose=True)
        assert requested.options["compose"] is False
        assert requested.csf_states == direct.csf_states
        assert requested.solution.state_names == direct.solution.state_names

    def test_compose_composes_with_residency_and_shards(self) -> None:
        prob = _twin_problem(na=6, nb=4)
        direct = solve_equation(prob, method="partitioned")
        composed = solve_equation(
            prob,
            method="partitioned",
            compose=True,
            shards=2,
            frontier="bfs",
            batch=4,
            resident_budget=64,
        )
        assert composed.options["compose"] is True
        assert equivalent(composed.csf, direct.csf)

    def test_compose_requires_partitioned_trimmed_flow(self) -> None:
        prob = _twin_problem()
        with pytest.raises(EquationError):
            solve_equation(prob, method="monolithic", compose=True)
        with pytest.raises(EquationError):
            solve_equation(prob, method="partitioned", compose=True, trim=False)
