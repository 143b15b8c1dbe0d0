"""The variable order of a built problem, through the solve.

The kernel never reorders: a manager's order is fixed once it holds
nodes, and a garbage collection leaves it alone.  The problem builder
must put every letter variable above every state variable (the subset
construction's cofactor splitting requires it), and a solve must leave
the built variables where they are, so two solves of the same problem
give the same automaton, byte for byte.
"""

from __future__ import annotations

from repro.automata.kiss import parse_kiss, write_kiss
from repro.bdd.manager import BddManager
from repro.bench.circuits import counter
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.solver import solve_equation, verify_solution

NET = counter(6)
X = ["b3", "b4", "b5"]


def _letter_count(problem) -> int:
    return len(problem.uv_vars()) + len(problem.i_vars) + len(problem.o_vars)


def test_boundary_keeps_letters_above_state_vars() -> None:
    problem = build_latch_split_problem(NET, X)
    mgr = problem.manager
    n_letters = _letter_count(problem)
    letter_vars = problem.uv_vars() + list(problem.i_vars.values())
    letter_vars += list(problem.o_vars.values())
    state_vars = problem.all_cs_vars() + problem.all_ns_vars()
    assert all(mgr.var_level(var) < n_letters for var in letter_vars)
    assert all(mgr.var_level(var) >= n_letters for var in state_vars)
    order = mgr.var_order()
    result = solve_equation(problem)
    assert verify_solution(result).ok
    # The solve may declare helper variables, only below the built ones.
    assert mgr.var_order()[: len(order)] == order
    mgr.check()

    # A fresh build and solve gives the same states, labels and edges.
    again = write_kiss(solve_equation(build_latch_split_problem(NET, X)).csf)
    assert write_kiss(result.csf) == again
    common = BddManager()
    base = parse_kiss(again, common)
    solved = parse_kiss(write_kiss(result.csf), common)
    assert solved.state_names == base.state_names
    assert solved.initial == base.initial
    assert solved.accepting == base.accepting
    assert solved.edges == base.edges
