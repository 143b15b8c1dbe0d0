"""Tests for equation-problem construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import circuits, figure3_network, s27
from repro.errors import EquationError
from repro.network import latch_split
from repro.eqn import build_latch_split_problem, build_problem
from repro.eqn.solver import solve_equation


class TestVariableLayout:
    def test_letter_vars_above_state_vars(self) -> None:
        # Required by the cofactor-splitting step (see problem.py docstring).
        prob = build_latch_split_problem(s27(), ["G6"])
        mgr = prob.manager
        letter_levels = [mgr.var_level(v) for v in prob.uv_vars()]
        letter_levels += [mgr.var_level(prob.i_vars[n]) for n in prob.i_names]
        letter_levels += [mgr.var_level(prob.o_vars[n]) for n in prob.o_names]
        state_levels = [mgr.var_level(v) for v in prob.all_cs_vars()]
        state_levels += [mgr.var_level(v) for v in prob.all_ns_vars()]
        state_levels += [mgr.var_level(prob.dc_var), mgr.var_level(prob.dc_ns_var)]
        assert max(letter_levels) < min(state_levels)

    def test_cs_ns_interleaved(self) -> None:
        prob = build_latch_split_problem(s27(), ["G6"])
        mgr = prob.manager
        for name, cs in prob.f_cs_vars.items():
            assert mgr.var_level(prob.f_ns_vars[name]) == mgr.var_level(cs) + 1
        for name, cs in prob.s_cs_vars.items():
            assert mgr.var_level(prob.s_ns_vars[name]) == mgr.var_level(cs) + 1

    def test_rename_map_is_ns_to_cs(self) -> None:
        prob = build_latch_split_problem(figure3_network(), ["cs1"])
        rename = prob.ns_to_cs()
        assert set(rename) == set(prob.all_ns_vars())
        assert set(rename.values()) == set(prob.all_cs_vars())

    def test_quantify_vars_are_inputs_and_cs(self) -> None:
        prob = build_latch_split_problem(figure3_network(), ["cs1"])
        quantify = set(prob.quantify_vars())
        assert set(prob.all_cs_vars()) <= quantify
        assert {prob.i_vars[n] for n in prob.i_names} <= quantify
        assert not (set(prob.all_ns_vars()) & quantify)


@st.composite
def split_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    n_latches = draw(st.integers(min_value=2, max_value=6))
    net = circuits.random_network(n_inputs, n_latches, 1, seed=seed)
    latches = net.latch_names()
    k = draw(st.integers(min_value=1, max_value=len(latches)))
    x = draw(
        st.lists(st.sampled_from(latches), min_size=k, max_size=k, unique=True)
    )
    return net, x


def _rename_is_monotone(order: list[str], cs: list[str], ns: list[str]) -> bool:
    """Sources sorted by level must map to targets in the same order."""
    level = {name: i for i, name in enumerate(order)}
    by_source = sorted(zip(ns, cs), key=lambda pair: level[pair[0]])
    target_levels = [level[c] for _, c in by_source]
    return target_levels == sorted(target_levels)


@given(split_instances())
@settings(max_examples=15, deadline=None)
def test_stacked_order_keeps_boundary_and_monotone_renames(instance) -> None:
    """The product layout puts every letter above every state variable
    and keeps both ``ns -> cs`` rename maps (F and S) order-preserving;
    a solve leaves the order exactly as built."""
    net, x = instance
    problem = build_latch_split_problem(net, x)
    mgr = problem.manager
    order = mgr.var_order()
    n_letters = len(
        problem.i_names + problem.o_names + problem.u_names + problem.v_names
    )
    assert all(not name.startswith(("F.", "S.")) for name in order[:n_letters])
    assert all(name.startswith(("F.", "S.")) for name in order[n_letters:])
    solve_equation(problem)
    assert mgr.var_order() == order
    mgr.check()
    s_cs = ["S.dc"] + [f"S.{n}" for n in problem.split.original.latches]
    s_ns = ["S.dc'"] + [f"S.{n}'" for n in problem.split.original.latches]
    f_cs = [f"F.{n}" for n in problem.split.fixed.latches]
    f_ns = [f"F.{n}'" for n in problem.split.fixed.latches]
    assert _rename_is_monotone(order, f_cs, f_ns)
    assert _rename_is_monotone(order, s_cs, s_ns)


class TestFunctions:
    def test_s_functions_are_original_network_functions(self) -> None:
        net = figure3_network()
        prob = build_latch_split_problem(net, ["cs1"])
        mgr = prob.manager
        i = mgr.var_node(prob.i_vars["i"])
        s_cs1 = mgr.var_node(prob.s_cs_vars["cs1"])
        s_cs2 = mgr.var_node(prob.s_cs_vars["cs2"])
        assert prob.s_next["cs1"] == mgr.apply_and(i, s_cs2)
        assert prob.s_next["cs2"] == mgr.apply_or(mgr.apply_not(i), s_cs1)
        assert prob.s_o["o"] == mgr.apply_xor(s_cs1, s_cs2)

    def test_f_output_reads_v_wire_for_moved_latch(self) -> None:
        net = figure3_network()
        prob = build_latch_split_problem(net, ["cs1"])
        mgr = prob.manager
        v = mgr.var_node(prob.v_vars["v_cs1"])
        f_cs2 = mgr.var_node(prob.f_cs_vars["cs2"])
        # o = cs1 ^ cs2 with cs1 replaced by the v wire.
        assert prob.f_o["o"] == mgr.apply_xor(v, f_cs2)

    def test_u_functions_are_projections(self) -> None:
        # Default u exposes the PIs and kept latches as identity wires.
        prob = build_latch_split_problem(figure3_network(), ["cs1"])
        mgr = prob.manager
        assert prob.f_u["u_i"] == mgr.var_node(prob.i_vars["i"])
        assert prob.f_u["u_cs2"] == mgr.var_node(prob.f_cs_vars["cs2"])

    def test_init_cube_covers_both_components(self) -> None:
        net = circuits.johnson(3)
        prob = build_latch_split_problem(net, ["j1"])
        mgr = prob.manager
        support = mgr.support(prob.init_cube)
        assert support == set(prob.all_cs_vars())

    def test_conformance_parts_one_per_output(self) -> None:
        net = circuits.traffic_light()
        prob = build_latch_split_problem(net, ["p0"])
        parts = prob.conformance_parts()
        assert [name for name, _ in parts] == ["green_major", "green_minor"]

    def test_output_that_is_a_moved_latch(self) -> None:
        # A network whose primary output IS a latch signal.
        from repro.network import Network

        net = Network(name="latchout")
        net.add_input("a")
        net.add_node("n", "a")
        net.add_latch("q", "n", 0)
        net.add_node("n2", "q & a")
        net.add_latch("q2", "n2", 0)
        net.add_output("q")
        net.validate()
        split = latch_split(net, ["q"])
        prob = build_problem(split)
        mgr = prob.manager
        # F's output function for "q" is the v wire itself.
        assert prob.f_o["q"] == mgr.var_node(prob.v_vars["v_q"])


class TestBuildErrors:
    def test_letter_collision_rejected(self) -> None:
        from repro.network import Network

        net = Network(name="clash")
        net.add_input("a")
        net.add_node("f", "a")
        net.add_latch("q", "f", 0)
        net.add_latch("q2", "f", 0)
        net.add_output("a")  # output name collides with input name
        net.validate()
        split = latch_split(net, ["q"])
        with pytest.raises(EquationError):
            build_problem(split)

    def test_max_nodes_propagates(self) -> None:
        prob = build_latch_split_problem(s27(), ["G6"], max_nodes=500_000)
        assert prob.manager.max_nodes == 500_000
