"""Property-based tests: every BDD operation agrees with truth tables."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager
from tests.strategies import DEFAULT_VARS, all_assignments, expressions


def build(expr):
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    return mgr, expr.to_bdd(mgr)


@given(expressions())
@settings(max_examples=150, deadline=None)
def test_expression_to_bdd_matches_truth_table(expr) -> None:
    mgr, node = build(expr)
    for env in all_assignments(DEFAULT_VARS):
        assert mgr.eval(node, env) == expr.evaluate(env)


@given(expressions(), expressions())
@settings(max_examples=75, deadline=None)
def test_connectives_match_python_semantics(e1, e2) -> None:
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    f, g = e1.to_bdd(mgr), e2.to_bdd(mgr)
    fa = mgr.apply_and(f, g)
    fo = mgr.apply_or(f, g)
    fx = mgr.apply_xor(f, g)
    fn = mgr.apply_not(f)
    fe = mgr.apply_iff(f, g)
    for env in all_assignments(DEFAULT_VARS):
        vf, vg = e1.evaluate(env), e2.evaluate(env)
        assert mgr.eval(fa, env) == (vf and vg)
        assert mgr.eval(fo, env) == (vf or vg)
        assert mgr.eval(fx, env) == (vf != vg)
        assert mgr.eval(fn, env) == (not vf)
        assert mgr.eval(fe, env) == (vf == vg)


@given(expressions(), expressions(), expressions())
@settings(max_examples=50, deadline=None)
def test_ite_matches_semantics(e1, e2, e3) -> None:
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    r = mgr.ite(e1.to_bdd(mgr), e2.to_bdd(mgr), e3.to_bdd(mgr))
    for env in all_assignments(DEFAULT_VARS):
        want = e2.evaluate(env) if e1.evaluate(env) else e3.evaluate(env)
        assert mgr.eval(r, env) == want


@given(expressions(), st.sampled_from(DEFAULT_VARS), st.booleans())
@settings(max_examples=75, deadline=None)
def test_restrict_matches_semantics(expr, name, value) -> None:
    mgr, node = build(expr)
    r = mgr.restrict(node, mgr.var_index(name), value)
    for env in all_assignments(DEFAULT_VARS):
        fixed = dict(env)
        fixed[name] = int(value)
        assert mgr.eval(r, env) == expr.evaluate(fixed)


@given(
    expressions(),
    st.permutations(DEFAULT_VARS),
    st.permutations(DEFAULT_VARS),
)
@settings(max_examples=75, deadline=None)
def test_rename_matches_semantics_under_any_order(expr, targets, order) -> None:
    """Simultaneous renaming by any permutation, swaps included, on any
    variable order: the order-breaking nodes go through ``ite``."""
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    mgr.set_order(order)
    node = expr.to_bdd(mgr)
    mapping = dict(zip(DEFAULT_VARS, targets))
    r = mgr.rename(
        node, {mgr.var_index(old): mgr.var_index(new) for old, new in mapping.items()}
    )
    for env in all_assignments(DEFAULT_VARS):
        assert mgr.eval(r, env) == expr.evaluate(
            {old: env[new] for old, new in mapping.items()}
        )


@given(expressions())
@settings(max_examples=100, deadline=None)
def test_canonicity_syntactic_variants_share_nodes(expr) -> None:
    # f and !!f, f & f, f | f must be the same node.
    mgr, node = build(expr)
    assert mgr.apply_not(mgr.apply_not(node)) == node
    assert mgr.apply_and(node, node) == node
    assert mgr.apply_or(node, node) == node
    assert mgr.apply_xor(node, node) == 0


@given(expressions(), expressions())
@settings(max_examples=50, deadline=None)
def test_boolean_algebra_laws(e1, e2) -> None:
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    f, g = e1.to_bdd(mgr), e2.to_bdd(mgr)
    # Absorption, De Morgan, distribution spot laws on arbitrary functions.
    assert mgr.apply_or(f, mgr.apply_and(f, g)) == f
    assert mgr.apply_and(f, mgr.apply_or(f, g)) == f
    assert mgr.apply_not(mgr.apply_and(f, g)) == mgr.apply_or(
        mgr.apply_not(f), mgr.apply_not(g)
    )
