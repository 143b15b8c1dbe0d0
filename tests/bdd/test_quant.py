"""Quantification tests: exists / and_exists identities."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager
from tests.strategies import DEFAULT_VARS, all_assignments, expressions

var_subsets = st.sets(st.sampled_from(DEFAULT_VARS), min_size=1, max_size=3)


def build(expr):
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    return mgr, expr.to_bdd(mgr)


@given(expressions(), var_subsets)
@settings(max_examples=75, deadline=None)
def test_exists_matches_semantics(expr, names) -> None:
    mgr, node = build(expr)
    q = mgr.exists(node, [mgr.var_index(n) for n in names])
    free = [v for v in DEFAULT_VARS if v not in names]
    for env in all_assignments(free):
        want = any(
            expr.evaluate({**env, **dict(zip(sorted(names), bits))})
            for bits in all_bits(len(names))
        )
        got = mgr.eval(q, {**env, **{n: 0 for n in names}})
        assert got == want


def all_bits(n: int):
    for i in range(1 << n):
        yield tuple((i >> k) & 1 for k in range(n))


@given(expressions(), expressions(), var_subsets)
@settings(max_examples=75, deadline=None)
def test_and_exists_equals_exists_of_and(e1, e2, names) -> None:
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    f, g = e1.to_bdd(mgr), e2.to_bdd(mgr)
    variables = [mgr.var_index(n) for n in names]
    fused = mgr.and_exists(f, g, variables)
    naive = mgr.exists(mgr.apply_and(f, g), variables)
    assert fused == naive


@given(expressions(), var_subsets)
@settings(max_examples=50, deadline=None)
def test_quantified_result_independent_of_quantified_vars(expr, names) -> None:
    mgr, node = build(expr)
    variables = [mgr.var_index(n) for n in names]
    q = mgr.exists(node, variables)
    assert not (mgr.support(q) & set(variables))


@given(expressions())
@settings(max_examples=50, deadline=None)
def test_exists_of_nothing_is_identity(expr) -> None:
    mgr, node = build(expr)
    assert mgr.exists(node, []) == node
    assert mgr.and_exists(node, 1, []) == node


@given(expressions(), var_subsets, var_subsets)
@settings(max_examples=50, deadline=None)
def test_exists_is_idempotent_and_order_insensitive(expr, names1, names2) -> None:
    mgr, node = build(expr)
    v1 = [mgr.var_index(n) for n in names1]
    v2 = [mgr.var_index(n) for n in names2]
    both = mgr.exists(node, v1 + v2)
    sequential = mgr.exists(mgr.exists(node, v1), v2)
    assert both == sequential
    assert mgr.exists(both, v1) == both


def test_and_exists_early_termination_is_sound() -> None:
    # Regression guard: OR short-circuit inside and_exists must not skip
    # sibling branches when the first branch is TRUE.
    mgr = BddManager()
    a, b, c = mgr.add_vars(["a", "b", "c"])
    f = mgr.apply_or(mgr.var_node(a), mgr.var_node(b))
    g = mgr.apply_or(mgr.apply_not(mgr.var_node(a)), mgr.var_node(c))
    fused = mgr.and_exists(f, g, [a])
    naive = mgr.exists(mgr.apply_and(f, g), [a])
    # a=1 branch contributes c, a=0 branch contributes b.
    assert fused == naive == mgr.apply_or(mgr.var_node(b), mgr.var_node(c))
