"""Unit tests for the core BDD manager: construction, connectives, caches."""

from __future__ import annotations

import pytest

from repro.bdd import FALSE, TRUE, BddManager, Function
from repro.errors import BddError, BddNodeLimit


@pytest.fixture()
def mgr() -> BddManager:
    m = BddManager()
    m.add_vars(["a", "b", "c"])
    return m


class TestVariables:
    def test_add_var_returns_sequential_indices(self, mgr: BddManager) -> None:
        assert [mgr.var_index(n) for n in ("a", "b", "c")] == [0, 1, 2]

    def test_duplicate_variable_rejected(self, mgr: BddManager) -> None:
        with pytest.raises(BddError):
            mgr.add_var("a")

    def test_var_name_roundtrip(self, mgr: BddManager) -> None:
        for name in ("a", "b", "c"):
            assert mgr.var_name(mgr.var_index(name)) == name

    def test_default_order_is_declaration_order(self, mgr: BddManager) -> None:
        assert mgr.var_order() == ["a", "b", "c"]

    def test_set_order_on_empty_manager(self) -> None:
        m = BddManager()
        m.add_vars(["x", "y"])
        m.set_order(["y", "x"])
        assert m.var_order() == ["y", "x"]
        assert m.var_level(m.var_index("y")) == 0

    def test_operators_follow_a_set_order(self) -> None:
        m = BddManager()
        a, b, c = m.add_vars(["a", "b", "c"])
        m.set_order(["b", "a", "c"])
        A, B, C = m.var_node(a), m.var_node(b), m.var_node(c)
        assert m.ite(C, m.apply_not(A), A) == m.apply_xor(A, C)
        f = m.apply_and(m.apply_xor(A, B), C)
        assert m.and_exists(f, m.apply_or(A, C), [a]) == C
        assert m.and_exists(f, C, [c]) == m.apply_xor(A, B)

    def test_set_order_rejects_partial_lists(self) -> None:
        m = BddManager()
        m.add_vars(["x", "y"])
        with pytest.raises(BddError):
            m.set_order(["x"])

    def test_set_order_rejects_nonempty_manager(self, mgr: BddManager) -> None:
        mgr.apply_and(mgr.var_node(0), mgr.var_node(1))
        with pytest.raises(BddError):
            mgr.set_order(["c", "b", "a"])


class TestCanonicity:
    def test_terminals_are_fixed(self) -> None:
        assert FALSE == 0 and TRUE == 1

    def test_reduction_lo_equals_hi(self, mgr: BddManager) -> None:
        # mk(var, t, t) must collapse to t.
        a = mgr.var_node(0)
        assert mgr.ite(a, TRUE, TRUE) == TRUE

    def test_shared_nodes_for_equal_functions(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        f1 = mgr.apply_or(mgr.apply_and(a, b), mgr.apply_and(a, b))
        f2 = mgr.apply_and(b, a)
        assert f1 == f2

    def test_de_morgan(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        lhs = mgr.apply_not(mgr.apply_and(a, b))
        rhs = mgr.apply_or(mgr.apply_not(a), mgr.apply_not(b))
        assert lhs == rhs

    def test_double_negation(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        f = mgr.apply_xor(a, b)
        assert mgr.apply_not(mgr.apply_not(f)) == f


class TestConnectives:
    def test_and_terminal_cases(self, mgr: BddManager) -> None:
        a = mgr.var_node(0)
        assert mgr.apply_and(a, TRUE) == a
        assert mgr.apply_and(TRUE, a) == a
        assert mgr.apply_and(a, FALSE) == FALSE
        assert mgr.apply_and(a, a) == a

    def test_or_terminal_cases(self, mgr: BddManager) -> None:
        a = mgr.var_node(0)
        assert mgr.apply_or(a, FALSE) == a
        assert mgr.apply_or(a, TRUE) == TRUE
        assert mgr.apply_or(a, a) == a

    def test_xor_terminal_cases(self, mgr: BddManager) -> None:
        a = mgr.var_node(0)
        assert mgr.apply_xor(a, a) == FALSE
        assert mgr.apply_xor(a, FALSE) == a
        assert mgr.apply_xor(a, TRUE) == mgr.apply_not(a)

    def test_iff_is_xnor(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        assert mgr.apply_iff(a, b) == mgr.apply_not(mgr.apply_xor(a, b))

    def test_implies(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        f = mgr.apply_implies(a, b)
        assert mgr.eval(f, {"a": 0, "b": 0, "c": 0})
        assert not mgr.eval(f, {"a": 1, "b": 0, "c": 0})

    def test_diff(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        assert mgr.apply_diff(a, b) == mgr.apply_and(a, mgr.apply_not(b))

    def test_ite_recombination(self, mgr: BddManager) -> None:
        a, b, c = (mgr.var_node(i) for i in range(3))
        f = mgr.ite(a, b, c)
        for env in (
            {"a": 1, "b": 1, "c": 0},
            {"a": 1, "b": 0, "c": 1},
            {"a": 0, "b": 1, "c": 0},
            {"a": 0, "b": 0, "c": 1},
        ):
            want = env["b"] if env["a"] else env["c"]
            assert mgr.eval(f, env) == bool(want)

    def test_ite_shortcuts(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        assert mgr.ite(TRUE, a, b) == a
        assert mgr.ite(FALSE, a, b) == b
        assert mgr.ite(a, TRUE, FALSE) == a
        assert mgr.ite(a, FALSE, TRUE) == mgr.apply_not(a)
        assert mgr.ite(a, b, b) == b


class TestCofactorsComposition:
    def test_restrict_both_phases(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        f = mgr.apply_xor(a, b)
        assert mgr.restrict(f, 0, 1) == mgr.apply_not(b)
        assert mgr.restrict(f, 0, 0) == b

    def test_restrict_var_not_in_support(self, mgr: BddManager) -> None:
        b = mgr.var_node(1)
        assert mgr.restrict(b, 0, 1) == b
        assert mgr.restrict(b, 2, 0) == b

    def test_cofactor_cube(self, mgr: BddManager) -> None:
        a, b, c = (mgr.var_node(i) for i in range(3))
        f = mgr.apply_and(mgr.apply_or(a, b), c)
        assert mgr.cofactor_cube(f, {0: 0, 2: 1}) == b

    def test_compose_substitutes_function(self, mgr: BddManager) -> None:
        a, b, c = (mgr.var_node(i) for i in range(3))
        f = mgr.apply_xor(a, b)
        g = mgr.apply_and(b, c)
        composed = mgr.compose(f, 0, g)  # f[a := b & c]
        assert composed == mgr.apply_xor(mgr.apply_and(b, c), b)

    def test_vector_compose_simultaneous(self, mgr: BddManager) -> None:
        a, b, c = (mgr.var_node(i) for i in range(3))
        f = mgr.apply_xor(a, b)
        # a := c, b := !c simultaneously => xor(c, !c) = TRUE
        result = mgr.vector_compose(f, {0: c, 1: mgr.apply_not(c)})
        assert result == TRUE

    def test_vector_compose_rejects_overlap(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        with pytest.raises(BddError):
            mgr.vector_compose(mgr.apply_and(a, b), {0: b, 1: a})


class TestNodeBudget:
    def test_budget_raises(self) -> None:
        m = BddManager(max_nodes=8)
        m.add_vars([f"x{i}" for i in range(8)])
        with pytest.raises(BddNodeLimit):
            f = TRUE
            for i in range(8):
                f = m.apply_xor(f, m.var_node(i))

    def test_budget_value_reported(self) -> None:
        m = BddManager(max_nodes=4)
        m.add_vars(["x", "y", "z"])
        with pytest.raises(BddNodeLimit) as excinfo:
            m.apply_xor(m.apply_xor(m.var_node(0), m.var_node(1)), m.var_node(2))
        assert excinfo.value.limit == 4


class TestInspection:
    def test_support(self, mgr: BddManager) -> None:
        a, c = mgr.var_node(0), mgr.var_node(2)
        f = mgr.apply_and(a, c)
        assert mgr.support(f) == {0, 2}

    def test_support_of_terminals(self, mgr: BddManager) -> None:
        assert mgr.support(TRUE) == set()
        assert mgr.support(FALSE) == set()

    def test_size(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        assert mgr.size(TRUE) == 0
        assert mgr.size(a) == 1
        assert mgr.size(mgr.apply_and(a, b)) == 2

    def test_size_many_shares_nodes(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        f = mgr.apply_and(a, b)
        assert mgr.size_many([f, f]) == mgr.size(f)

    def test_cube_builder(self, mgr: BddManager) -> None:
        f = mgr.cube({0: 1, 1: 0})
        assert mgr.eval(f, {"a": 1, "b": 0, "c": 0})
        assert not mgr.eval(f, {"a": 1, "b": 1, "c": 0})

    def test_eval_vars(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        f = mgr.apply_or(a, b)
        assert mgr.eval_vars(f, {0: 0, 1: 1})
        assert not mgr.eval_vars(f, {0: 0, 1: 0})

    def test_clear_caches_preserves_semantics(self, mgr: BddManager) -> None:
        a, b = mgr.var_node(0), mgr.var_node(1)
        f = mgr.apply_and(a, b)
        mgr.clear_caches()
        assert mgr.apply_and(a, b) == f


class TestFunctionWrapper:
    def test_operator_laws(self, mgr: BddManager) -> None:
        a = Function(mgr, mgr.var_node(0))
        b = Function(mgr, mgr.var_node(1))
        assert (a & b) == (b & a)
        assert (a | ~a).is_true
        assert (a & ~a).is_false
        assert (a ^ b) == ((a & ~b) | (~a & b))

    def test_iff_implies(self, mgr: BddManager) -> None:
        a = Function(mgr, mgr.var_node(0))
        b = Function(mgr, mgr.var_node(1))
        assert a.iff(b) == ~(a ^ b)
        assert a.implies(b) == (~a | b)

    def test_ite(self, mgr: BddManager) -> None:
        a, b, c = (Function(mgr, mgr.var_node(i)) for i in range(3))
        assert a.ite(b, c) == ((a & b) | (~a & c))

    def test_cross_manager_rejected(self) -> None:
        m1, m2 = BddManager(), BddManager()
        a = Function.var(m1, "a")
        b = Function.var(m2, "b")
        with pytest.raises(BddError):
            _ = a & b

    def test_no_truth_value(self, mgr: BddManager) -> None:
        a = Function(mgr, mgr.var_node(0))
        with pytest.raises(BddError):
            bool(a)

    def test_var_declares_on_demand(self) -> None:
        m = BddManager()
        x = Function.var(m, "x")
        y = Function.var(m, "x")
        assert x == y

    def test_restrict_and_support(self, mgr: BddManager) -> None:
        a, b = Function(mgr, mgr.var_node(0)), Function(mgr, mgr.var_node(1))
        f = a ^ b
        assert f.support() == {"a", "b"}
        assert f.restrict({"a": 1}) == ~b
