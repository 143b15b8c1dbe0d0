"""An explicit sift of a built problem, before the solve.

The kernel never reorders on its own (a garbage collection leaves the
order alone), so the only way a problem's order changes is an explicit
``problem.manager.sift_now()`` between building and solving.  The
problem's reorder boundary must keep every letter variable above every
state variable (the subset construction's cofactor splitting requires
it), and the solve must produce the same automaton as an unsifted one.

KISS text lists each edge label's cubes in the manager's letter order,
so a sift that permutes the letters changes the bytes but not the
automaton; a sift confined to the state variables changes neither.
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


def _unsifted_kiss() -> str:
    return write_kiss(solve_equation(build_latch_split_problem(NET, X)).csf)


def test_boundary_keeps_letters_above_state_vars() -> None:
    problem = build_latch_split_problem(NET, X)
    mgr = problem.manager
    n_letters = _letter_count(problem)
    assert mgr.reorder_boundaries == {n_letters}
    assert mgr.sift_now().swaps > 0
    for var in problem.uv_vars():
        assert mgr.var_level(var) < n_letters
    for var in problem.all_cs_vars() + problem.all_ns_vars():
        assert mgr.var_level(var) >= n_letters
    result = solve_equation(problem)
    assert verify_solution(result).ok
    mgr.check()

    # Same state numbering and the same label function on every edge.
    common = BddManager()
    base = parse_kiss(_unsifted_kiss(), common)
    sifted = parse_kiss(write_kiss(result.csf), common)
    assert sifted.state_names == base.state_names
    assert sifted.initial == base.initial
    assert sifted.accepting == base.accepting
    assert sifted.edges == base.edges


def test_state_only_sift_keeps_kiss_bytes() -> None:
    problem = build_latch_split_problem(NET, X)
    mgr = problem.manager
    # One single-variable block per letter: only state variables move.
    mgr.set_reorder_boundaries(list(range(1, _letter_count(problem) + 1)))
    assert mgr.sift_now().swaps > 0
    assert write_kiss(solve_equation(problem).csf) == _unsifted_kiss()
