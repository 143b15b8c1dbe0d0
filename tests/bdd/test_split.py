"""Tests for split_by_vars — the subset-successor enumeration primitive.

The split returns the complete cofactor partition (the FALSE class
included).  The reference kernel memoises class maps across calls, so
the last tests replay it against the plain and/or reference after every
event that must flush that memo: a reclaiming sweep whose freed slots
new functions reuse, and the pair budget.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.bdd.manager as manager_module
from repro.bdd import BddManager
from repro.bdd.backends.protocol import generic_split_by_vars
from repro.bdd.cube import split_by_vars
from repro.bdd.manager import FALSE, TRUE
from repro.errors import BddError
from tests.strategies import expressions

SPLIT_VARS = ("u0", "u1")
LEAF_VARS = ("n0", "n1", "n2")
ALL_VARS = SPLIT_VARS + LEAF_VARS


def build(expr):
    mgr = BddManager()
    mgr.add_vars(ALL_VARS)  # split vars first => above leaf vars
    return mgr, expr.to_bdd(mgr)


@given(expressions(ALL_VARS, max_leaves=10))
@settings(max_examples=75, deadline=None)
def test_split_reconstructs_the_function(expr) -> None:
    mgr, node = build(expr)
    split_ids = [mgr.var_index(v) for v in SPLIT_VARS]
    pieces = split_by_vars(mgr, node, split_ids)
    rebuilt = FALSE
    covered = FALSE
    for leaf, cond in pieces.items():
        rebuilt = mgr.apply_or(rebuilt, mgr.apply_and(cond, leaf))
        covered = mgr.apply_or(covered, cond)
    assert rebuilt == node
    assert covered == TRUE


@given(expressions(ALL_VARS, max_leaves=10))
@settings(max_examples=75, deadline=None)
def test_split_conditions_partition_and_leaves_are_distinct(expr) -> None:
    mgr, node = build(expr)
    split_ids = [mgr.var_index(v) for v in SPLIT_VARS]
    pieces = list(split_by_vars(mgr, node, split_ids).items())
    # Leaves are distinct cofactors.
    leaves = [leaf for leaf, _ in pieces]
    assert len(leaves) == len(set(leaves))
    # Conditions are non-empty, pairwise disjoint, depend only on split
    # vars and cover every assignment (the partition is complete).
    split_set = set(split_ids)
    covered = FALSE
    for i, (_, ci) in enumerate(pieces):
        assert ci != FALSE
        assert mgr.support(ci) <= split_set
        for _, cj in pieces[i + 1 :]:
            assert mgr.apply_and(ci, cj) == FALSE
        covered = mgr.apply_or(covered, ci)
    assert covered == TRUE


@given(expressions(ALL_VARS, max_leaves=10))
@settings(max_examples=50, deadline=None)
def test_split_matches_explicit_cofactors(expr) -> None:
    mgr, node = build(expr)
    split_ids = [mgr.var_index(v) for v in SPLIT_VARS]
    pieces = split_by_vars(mgr, node, split_ids)
    for bits in itertools.product((0, 1), repeat=len(split_ids)):
        cofactor = mgr.cofactor_cube(node, dict(zip(split_ids, bits)))
        # Exactly one piece covers each assignment, the FALSE class too.
        covering = [
            leaf
            for leaf, cond in pieces.items()
            if mgr.eval_vars(cond, dict(zip(split_ids, bits)))
        ]
        assert covering == [cofactor]


def test_split_of_constant_true() -> None:
    mgr = BddManager()
    u = mgr.add_var("u")
    pieces = split_by_vars(mgr, TRUE, [u])
    assert pieces == {TRUE: TRUE}


def test_split_of_false_is_one_false_class() -> None:
    mgr = BddManager()
    u = mgr.add_var("u")
    assert split_by_vars(mgr, FALSE, [u]) == {FALSE: TRUE}


def test_split_rejects_vars_below_support() -> None:
    mgr = BddManager()
    n = mgr.add_var("n")  # above the split var: contract violation
    u = mgr.add_var("u")
    f = mgr.apply_and(mgr.var_node(n), mgr.var_node(u))
    with pytest.raises(BddError):
        split_by_vars(mgr, f, [u])
    with pytest.raises(BddError):
        generic_split_by_vars(mgr, f, [u])


def _split_reference(mgr, f, split_vars):
    """The split as it was first written: each class condition at a split
    node is ``(¬v ∧ lo_cond) ∨ (v ∧ hi_cond)``, built from two
    ``apply_and`` and two ``apply_or`` calls, with a memo that lives for
    one call.  Kept as the oracle for the kernel's memoised, one-lookup
    construction."""
    split_levels = {mgr.var_level(v) for v in split_vars}
    memo = {}

    def rec(node):
        if node < 2 or mgr.level(node) not in split_levels:
            return {node: TRUE}
        if node in memo:
            return memo[node]
        var_bdd = mgr.var_node(mgr.node_var(node))
        nvar_bdd = mgr.apply_not(var_bdd)
        result = {}
        for leaf, cond in rec(mgr.node_lo(node)).items():
            result[leaf] = mgr.apply_or(
                result.get(leaf, FALSE), mgr.apply_and(nvar_bdd, cond)
            )
        for leaf, cond in rec(mgr.node_hi(node)).items():
            result[leaf] = mgr.apply_or(
                result.get(leaf, FALSE), mgr.apply_and(var_bdd, cond)
            )
        memo[node] = result
        return result

    return dict(rec(f))


@given(expressions(ALL_VARS, max_leaves=12))
@settings(max_examples=100, deadline=None)
def test_split_equals_the_and_or_reference(expr) -> None:
    """Same classes, same lo-first order, same condition edges."""
    mgr, node = build(expr)
    split_ids = [mgr.var_index(v) for v in SPLIT_VARS]
    want = list(_split_reference(mgr, node, split_ids).items())
    assert list(split_by_vars(mgr, node, split_ids).items()) == want
    # A second call answers from the cross-call memo; the protocol-only
    # algorithm has none.  Both must still agree edge for edge.
    assert list(split_by_vars(mgr, node, split_ids).items()) == want
    assert list(generic_split_by_vars(mgr, node, split_ids).items()) == want


def _assert_matches_reference(mgr, node, split_ids) -> None:
    got = list(mgr.split_by_vars(node, split_ids).items())
    assert got == list(_split_reference(mgr, node, split_ids).items())


_EXPR_LISTS = st.lists(expressions(ALL_VARS, max_leaves=12), min_size=4, max_size=4)


@given(_EXPR_LISTS, _EXPR_LISTS)
@settings(max_examples=100, deadline=None)
def test_split_memo_is_flushed_when_slots_are_reclaimed(first, second) -> None:
    """A sweep reclaims the first functions' nodes and the second ones
    reuse the freed slots: no class map of the first may answer for the
    second."""
    mgr = BddManager()
    mgr.add_vars(ALL_VARS)
    split_ids = [mgr.var_index(v) for v in SPLIT_VARS]
    for expr in first:
        mgr.split_by_vars(expr.to_bdd(mgr), split_ids)
    assume(mgr.collect_garbage() > 0)
    funcs = [expr.to_bdd(mgr) for expr in second]
    for g in funcs:
        _assert_matches_reference(mgr, g, split_ids)


def _edges_under(mgr, f) -> set[int]:
    seen: set[int] = set()
    stack = [f]
    while stack:
        e = stack.pop()
        if e not in seen:
            seen.add(e)
            if e >= 2:
                stack += (mgr.node_lo(e), mgr.node_hi(e))
    return seen


@given(st.lists(expressions(ALL_VARS, max_leaves=12), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_split_memo_is_flushed_at_the_pair_budget(exprs) -> None:
    """Under a three-pair budget the memo is flushed between most calls;
    every split still equals the reference, and a call that starts over
    budget leaves only its own nodes in the memo."""
    mgr = BddManager()
    mgr.add_vars(ALL_VARS)
    split_ids = [mgr.var_index(v) for v in SPLIT_VARS]
    funcs = [e.to_bdd(mgr) for e in exprs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manager_module, "SPLIT_MEMO_BUDGET", 3)
        for f in funcs + funcs:
            over = mgr._split_pairs > 3
            _assert_matches_reference(mgr, f, split_ids)
            if over:
                memo = mgr._split_memo[frozenset(split_ids)]
                assert set(memo) <= _edges_under(mgr, f)
