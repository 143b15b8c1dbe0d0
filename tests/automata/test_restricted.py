"""``trim``, ``prefix_close`` and ``progressive`` through ``Automaton.restricted``.

Each operation used to rebuild its result through ``add_edge`` (one
``apply_or`` per edge).  The reference copies below keep those loops;
the operations must still return the same state names, accepting set,
initial state, per-state edge order and label edges.
"""

from __future__ import annotations

import pytest

from repro.automata.automaton import Automaton, empty_automaton
from repro.automata.ops import prefix_close, progressive
from repro.bdd.manager import FALSE, TRUE
from repro.bench.suite import case_by_name
from repro.eqn import build_latch_split_problem, solve_equation
from tests.automata.conftest import random_automaton


def _reference_trim(aut: Automaton) -> Automaton:
    keep = aut.reachable_states()
    remap = {old: new for new, old in enumerate(keep)}
    result = Automaton(aut.manager, aut.variables)
    for old in keep:
        result.add_state(aut.state_names[old], accepting=old in aut.accepting)
    result.initial = remap[aut.initial] if keep else None
    for old in keep:
        for dst, label in aut.edges[old].items():
            if dst in remap and label != FALSE:
                result.add_edge(remap[old], remap[dst], label)
    return result


def _reference_prefix_close(aut: Automaton) -> Automaton:
    if aut.initial is None or aut.initial not in aut.accepting:
        return empty_automaton(aut.manager, aut.variables)
    result = Automaton(aut.manager, aut.variables)
    keep = sorted(aut.accepting)
    remap = {old: new for new, old in enumerate(keep)}
    for old in keep:
        result.add_state(aut.state_names[old], accepting=True)
    result.initial = remap[aut.initial]
    for old in keep:
        for dst, label in aut.edges[old].items():
            if dst in remap:
                result.add_edge(remap[old], remap[dst], label)
    return _reference_trim(result)


def _reference_progressive(aut: Automaton, inputs) -> Automaton:
    mgr = aut.manager
    if aut.initial is None:
        return empty_automaton(mgr, aut.variables)
    other = [mgr.var_index(v) for v in aut.variables if v not in set(inputs)]
    alive = set(range(aut.num_states))
    changed = True
    while changed:
        changed = False
        for sid in sorted(alive):
            defined = FALSE
            for dst, label in aut.edges[sid].items():
                if dst in alive:
                    defined = mgr.apply_or(defined, label)
            u_defined = mgr.exists(defined, other) if other else defined
            if u_defined != TRUE:
                alive.remove(sid)
                changed = True
        if aut.initial not in alive:
            return empty_automaton(mgr, aut.variables)
    result = Automaton(mgr, aut.variables)
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    for old in keep:
        result.add_state(aut.state_names[old], accepting=old in aut.accepting)
    result.initial = remap[aut.initial]
    for old in keep:
        for dst, label in aut.edges[old].items():
            if dst in remap:
                result.add_edge(remap[old], remap[dst], label)
    return _reference_trim(result)


def shape(aut: Automaton):
    """Everything a copy must preserve, edge order included."""
    return (
        list(aut.state_names),
        set(aut.accepting),
        aut.initial,
        [list(bucket.items()) for bucket in aut.edges],
    )


def assert_ops_match(aut: Automaton, inputs) -> None:
    assert shape(aut.trim()) == shape(_reference_trim(aut))
    assert shape(prefix_close(aut)) == shape(_reference_prefix_close(aut))
    assert shape(progressive(aut, inputs)) == shape(
        _reference_progressive(aut, inputs)
    )
    closed = prefix_close(aut)
    assert shape(progressive(closed, inputs)) == shape(
        _reference_progressive(_reference_prefix_close(aut), inputs)
    )


@pytest.mark.parametrize("seed", range(60))
def test_random_automata_match_the_add_edge_loops(seed) -> None:
    aut = random_automaton(
        seed, n_states=3 + seed % 6, edge_density=0.3 + (seed % 4) * 0.2
    )
    aut.initial = seed % aut.num_states
    assert_ops_match(aut, ("x",))


@pytest.mark.parametrize("seed", range(20))
def test_false_labels_are_dropped(seed) -> None:
    aut = random_automaton(seed, n_states=5, accept_prob=1.0)
    # A label stored as FALSE (add_edge never stores one) is not an edge:
    # it neither makes its target reachable nor survives a copy.
    for src in range(aut.num_states):
        aut.edges[src][(src + 1 + seed) % aut.num_states] = FALSE
    assert_ops_match(aut, ("x",))
    for result in (aut.trim(), prefix_close(aut), progressive(aut, ("x",))):
        assert all(
            label != FALSE for bucket in result.edges for label in bucket.values()
        )


def test_restricted_renumbers_in_keep_order() -> None:
    aut = random_automaton(7, n_states=5, accept_prob=1.0, edge_density=1.0)
    keep = [3, 1, 4]
    sub = aut.restricted(keep)
    assert sub.state_names == ["q3", "q1", "q4"]
    assert sub.initial is None  # q0 was not kept
    remap = {old: new for new, old in enumerate(keep)}
    for new, old in enumerate(keep):
        assert list(sub.edges[new].items()) == [
            (remap[dst], label)
            for dst, label in aut.edges[old].items()
            if dst in remap
        ]


@pytest.mark.parametrize("name", ["s27", "count6", "johnson8"])
@pytest.mark.parametrize("trim", [True, False], ids=["trim", "notrim"])
def test_solved_results_match_the_add_edge_loops(name, trim) -> None:
    case = case_by_name(name)
    problem = build_latch_split_problem(case.network(), list(case.x_latches))
    result = solve_equation(problem, trim=trim)
    assert_ops_match(result.solution, problem.u_names)
