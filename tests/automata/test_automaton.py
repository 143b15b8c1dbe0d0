"""Tests for the automaton data structure itself."""

from __future__ import annotations

import pytest

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.errors import AutomatonError
from repro.automata import Automaton, empty_automaton


class TestConstruction:
    def test_undeclared_alphabet_rejected(self) -> None:
        m = BddManager()
        with pytest.raises(AutomatonError):
            Automaton(m, ("ghost",))

    def test_first_state_becomes_initial(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0 = aut.add_state("a")
        aut.add_state("b")
        assert aut.initial == s0

    def test_letter_edge_and_successors(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0, s1 = aut.add_state(), aut.add_state()
        aut.add_letter_edge(s0, s1, {"x": 1, "y": 0})
        assert aut.successors(s0, {"x": 1, "y": 0}) == [s1]
        assert aut.successors(s0, {"x": 1, "y": 1}) == []

    def test_edges_to_same_destination_merge(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0, s1 = aut.add_state(), aut.add_state()
        aut.add_letter_edge(s0, s1, {"x": 0, "y": 0})
        aut.add_letter_edge(s0, s1, {"x": 1, "y": 1})
        assert len(aut.edges[s0]) == 1
        assert aut.successors(s0, {"x": 0, "y": 0}) == [s1]
        assert aut.successors(s0, {"x": 1, "y": 1}) == [s1]

    def test_false_edges_are_dropped(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0, s1 = aut.add_state(), aut.add_state()
        aut.add_edge(s0, s1, FALSE)
        assert aut.edges[s0] == {}

    def test_class_edge_stores_and_returns_the_label(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0, s1 = aut.add_state(), aut.add_state()
        x, y = mgr.var_node(mgr.var_index("x")), mgr.var_node(mgr.var_index("y"))
        assert aut.add_class_edge(s0, s1, FALSE) == FALSE
        assert aut.edges[s0] == {}
        assert aut.add_class_edge(s0, s1, x) == x
        assert aut.edges[s0] == {s1: x}
        # An existing edge to the same destination still merges by OR.
        assert aut.add_class_edge(s0, s1, y) == mgr.apply_or(x, y)
        assert aut.edges[s0] == {s1: mgr.apply_or(x, y)}

    def test_letter_with_foreign_variable_rejected(self, mgr) -> None:
        aut = Automaton(mgr, ("x",))
        s0 = aut.add_state()
        with pytest.raises(AutomatonError):
            aut.add_letter_edge(s0, s0, {"y": 1})

    def test_bad_state_ids_rejected(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        aut.add_state()
        with pytest.raises(AutomatonError):
            aut.add_edge(0, 5, TRUE)


class TestPredicates:
    def test_is_complete(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0 = aut.add_state()
        aut.add_edge(s0, s0, TRUE)
        assert aut.is_complete()

    def test_is_not_complete(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0 = aut.add_state()
        aut.add_letter_edge(s0, s0, {"x": 1})
        assert not aut.is_complete()

    def test_is_deterministic(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0, s1 = aut.add_state(), aut.add_state()
        aut.add_letter_edge(s0, s0, {"x": 0})
        aut.add_letter_edge(s0, s1, {"x": 1})
        assert aut.is_deterministic()
        aut.add_letter_edge(s0, s1, {"x": 0, "y": 1})
        assert not aut.is_deterministic()

    def test_defined_cond(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0, s1 = aut.add_state(), aut.add_state()
        aut.add_letter_edge(s0, s1, {"x": 1})
        x = mgr.var_node(mgr.var_index("x"))
        assert aut.defined_cond(s0) == x
        assert aut.defined_cond(s1) == FALSE

    def test_validate_rejects_foreign_support(self, mgr) -> None:
        mgr.add_var("z")
        aut = Automaton(mgr, ("x", "y"))
        s0 = aut.add_state()
        aut.edges[s0][s0] = mgr.var_node(mgr.var_index("z"))
        with pytest.raises(AutomatonError):
            aut.validate()


class TestTrimCopy:
    def test_trim_removes_unreachable(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0, s1, s2 = aut.add_state("a"), aut.add_state("b"), aut.add_state("c")
        aut.add_edge(s0, s1, TRUE)
        aut.add_edge(s2, s0, TRUE)  # s2 unreachable
        trimmed = aut.trim()
        assert trimmed.num_states == 2
        assert trimmed.state_names == ["a", "b"]

    def test_trim_empty_initial(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        trimmed = aut.trim()
        assert trimmed.num_states == 0
        assert trimmed.initial is None

    def test_copy_is_independent(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0 = aut.add_state()
        dup = aut.copy()
        dup.add_state()
        dup.add_edge(0, 1, TRUE)
        assert aut.num_states == 1
        assert aut.edges[s0] == {}

    def test_empty_automaton(self, mgr) -> None:
        aut = empty_automaton(mgr, ("x", "y"))
        assert aut.num_states == 1
        assert aut.accepting == set()

    def test_num_edges(self, mgr) -> None:
        aut = Automaton(mgr, ("x", "y"))
        s0, s1 = aut.add_state(), aut.add_state()
        aut.add_letter_edge(s0, s1, {"x": 1})
        aut.add_letter_edge(s0, s0, {"x": 0})
        assert aut.num_edges() == 2
