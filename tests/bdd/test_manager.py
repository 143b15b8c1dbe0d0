"""Unit tests for the core BDD manager: construction, connectives, caches.

The property tests at the end run random op programs with interleaved
garbage collection, and pin ``cofactor_cube``: it
equals ``∃vars(c).(f ∧ c)``, a cold call writes only the root entry of
the computed table, and a repeat call is one hit.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BddManager
from repro.errors import BddError, BddNodeLimit
from tests.strategies import DEFAULT_VARS, bdd_minterms


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

    def test_quant_set_interned_before_set_order_follows_it(self) -> None:
        m = BddManager()
        a, b, c = m.add_vars(["a", "b", "c"])
        qs = m.quant_set([a])
        assert m.exists(TRUE, qs) == TRUE  # resolves levels under a, b, c
        m.set_order(["c", "b", "a"])
        A, C = m.var_node(a), m.var_node(c)
        assert m.exists(m.apply_and(A, C), qs) == C
        assert m.and_exists(A, C, qs) == C

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

    def test_budget_raises_across_mixed_ops(self) -> None:
        m = BddManager(max_nodes=10)
        vs = m.add_vars([f"x{i}" for i in range(12)])
        with pytest.raises(BddNodeLimit):
            f = TRUE
            for v in vs:
                f = m.apply_and(f, m.var_node(v))
                f = m.apply_or(f, m.apply_xor(m.var_node(v), f))


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


# ----------------------------------------------------------------------
# Random op programs, with GC, and the cube cofactor.
# ----------------------------------------------------------------------

#: Op codes for the random program strategy.
_OPS = ("and", "or", "xor", "ite", "exists", "andex", "restrict", "diff", "cofactor")


def _fresh(**kwargs) -> BddManager:
    mgr = BddManager(**kwargs)
    mgr.add_vars(DEFAULT_VARS)
    return mgr


def _apply(mgr: BddManager, op: str, pool: list[int], step) -> int:
    a = pool[step.a % len(pool)]
    b = pool[step.b % len(pool)]
    c = pool[step.c % len(pool)]
    var = step.var % mgr.num_vars
    var2 = step.var2 % mgr.num_vars
    if op == "and":
        return mgr.apply_and(a, b)
    if op == "or":
        return mgr.apply_or(a, b)
    if op == "xor":
        return mgr.apply_xor(a, b)
    if op == "diff":
        return mgr.apply_diff(a, b)
    if op == "ite":
        return mgr.ite(a, b, c)
    if op == "exists":
        return mgr.exists(a, [var, var2])
    if op == "andex":
        return mgr.and_exists(a, b, [var, var2])
    if op == "restrict":
        return mgr.restrict(a, var, step.b & 1)
    if op == "cofactor":
        return mgr.cofactor_cube(a, _step_cube(mgr, step))
    raise AssertionError(op)


def _step_cube(mgr: BddManager, step) -> int:
    """A cube on the step's two variables; TRUE for a quarter of steps."""
    if step.c >= 48:
        return TRUE
    var = step.var % mgr.num_vars
    var2 = step.var2 % mgr.num_vars
    return mgr.cube({var: step.c & 1, var2: (step.c >> 1) & 1})


class _Step:
    def __init__(self, op, a, b, c, var, var2, gc):
        self.op = op
        self.a = a
        self.b = b
        self.c = c
        self.var = var
        self.var2 = var2
        self.gc = gc


_steps = st.builds(
    _Step,
    op=st.sampled_from(_OPS),
    a=st.integers(min_value=0, max_value=63),
    b=st.integers(min_value=0, max_value=63),
    c=st.integers(min_value=0, max_value=63),
    var=st.integers(min_value=0, max_value=63),
    var2=st.integers(min_value=0, max_value=63),
    gc=st.booleans(),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_steps, min_size=1, max_size=14))
def test_random_op_dags_survive_gc_and_sift(program) -> None:
    """A manager that collects garbage mid-run realises the same
    functions as one that never does."""
    plain, churned = _fresh(), _fresh(gc_min_live=0, gc_growth=1.0)
    pool_p = [FALSE, TRUE] + [plain.var_node(v) for v in range(plain.num_vars)]
    pool_c = [FALSE, TRUE] + [churned.var_node(v) for v in range(churned.num_vars)]
    for step in program:
        p = _apply(plain, step.op, pool_p, step)
        c = _apply(churned, step.op, pool_c, step)
        assert bdd_minterms(plain, p, DEFAULT_VARS) == bdd_minterms(
            churned, c, DEFAULT_VARS
        )
        pool_p.append(p)
        pool_c.append(c)
        if step.gc:
            # Edges rooted in the pool stay valid across collections.
            churned.collect_garbage(pool_c)
            churned.check()
    plain.check()
    churned.check()
    for p, c in zip(pool_p, pool_c):
        assert bdd_minterms(plain, p, DEFAULT_VARS) == bdd_minterms(
            churned, c, DEFAULT_VARS
        )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_steps, min_size=1, max_size=10))
def test_recompute_after_flush_is_edge_identical(program) -> None:
    """Recomputing every op from a flushed computed table yields the
    *same canonical edge*: results never depend on cache state."""
    mgr = _fresh()
    pool = [FALSE, TRUE] + [mgr.var_node(v) for v in range(mgr.num_vars)]
    results = []
    for step in program:
        results.append((step, len(pool)))
        pool.append(_apply(mgr, step.op, pool, step))
    mgr.clear_caches()
    for step, at in results:
        redo = _apply(mgr, step.op, pool[:at], step)
        assert redo == pool[at], f"{step.op} diverged after a flush"
    mgr.check()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_steps, min_size=1, max_size=14))
def test_cold_cofactor_matches_warm_across_gc_and_sift(program) -> None:
    """At every step of a random program with interleaved GC,
    ``cofactor_cube`` from a cold computed table returns the edge the
    warm call returned."""
    mgr = _fresh(gc_min_live=0, gc_growth=1.0)
    pool = [FALSE, TRUE] + [mgr.var_node(v) for v in range(mgr.num_vars)]
    for step in program:
        pool.append(_apply(mgr, step.op, pool, step))
        f = pool[step.b % len(pool)] ^ (step.a & 1)
        cube = _step_cube(mgr, step)
        warm = mgr.cofactor_cube(f, cube)
        mgr.clear_caches()
        assert mgr.cofactor_cube(f, cube) == warm
        if step.gc:
            mgr.collect_garbage(pool)
        mgr.check()


def test_cold_cofactor_counts_one_miss_per_walked_edge() -> None:
    """A cold call counts one miss per edge its walk memoised while the
    computed table gains only the root entry."""
    mgr = BddManager()
    a, b, c, d, e = mgr.add_vars(DEFAULT_VARS)
    parity = FALSE
    for v in (a, b, c, d, e):
        parity = mgr.apply_xor(parity, mgr.var_node(v))
    cube = mgr.cube({b: 1, d: 0})
    mgr.clear_caches()
    mgr.reset_stats()
    got = mgr.cofactor_cube(parity, cube)
    assert mgr.computed_table_size() == 1
    # Parity has one node per level, reached below the root through both
    # polarities: the walk memoises the root edge and two edges on each
    # of b, c and d (the cube's bottom), and keeps e's as they are.
    assert mgr.stats["cache_misses"] == 7
    rest = mgr.apply_xor(mgr.var_node(a), mgr.var_node(c))
    assert got == mgr.apply_xor(rest, mgr.var_node(e)) ^ 1
