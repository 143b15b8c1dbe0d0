"""Tests for split_by_vars — the subset-successor enumeration primitive."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from repro.bdd import BddManager
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
    for leaf, cond in pieces.items():
        assert leaf != FALSE
        rebuilt = mgr.apply_or(rebuilt, mgr.apply_and(cond, leaf))
    assert rebuilt == node


@given(expressions(ALL_VARS, max_leaves=10))
@settings(max_examples=75, deadline=None)
def test_split_conditions_partition_and_leaves_are_distinct(expr) -> None:
    mgr, node = build(expr)
    split_ids = [mgr.var_index(v) for v in SPLIT_VARS]
    pieces = list(split_by_vars(mgr, node, split_ids).items())
    # Leaves are distinct cofactors.
    leaves = [leaf for leaf, _ in pieces]
    assert len(leaves) == len(set(leaves))
    # Conditions are pairwise disjoint and depend only on split vars.
    split_set = set(split_ids)
    for i, (_, ci) in enumerate(pieces):
        assert mgr.support(ci) <= split_set
        for _, cj in pieces[i + 1 :]:
            assert mgr.apply_and(ci, cj) == FALSE


@given(expressions(ALL_VARS, max_leaves=10))
@settings(max_examples=50, deadline=None)
def test_split_matches_explicit_cofactors(expr) -> None:
    mgr, node = build(expr)
    split_ids = [mgr.var_index(v) for v in SPLIT_VARS]
    pieces = split_by_vars(mgr, node, split_ids)
    for bits in itertools.product((0, 1), repeat=len(split_ids)):
        cofactor = mgr.cofactor_cube(node, dict(zip(split_ids, bits)))
        if cofactor == FALSE:
            # No piece may cover this assignment.
            for leaf, cond in pieces.items():
                assert not mgr.eval_vars(cond, dict(zip(split_ids, bits)))
            continue
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


def test_split_of_false_is_empty() -> None:
    mgr = BddManager()
    u = mgr.add_var("u")
    assert split_by_vars(mgr, FALSE, [u]) == {}


def test_split_rejects_vars_below_support() -> None:
    mgr = BddManager()
    n = mgr.add_var("n")  # above the split var: contract violation
    u = mgr.add_var("u")
    f = mgr.apply_and(mgr.var_node(n), mgr.var_node(u))
    with pytest.raises(BddError):
        split_by_vars(mgr, f, [u])


def _split_reference(mgr, f, split_vars):
    """The split as it was first written: each class condition at a split
    node is ``(¬v ∧ lo_cond) ∨ (v ∧ hi_cond)``, built from two
    ``apply_and`` and two ``apply_or`` calls.  Kept as the oracle for the
    one-lookup ``ite`` construction."""
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

    out = dict(rec(f))
    out.pop(FALSE, None)
    return out


@given(expressions(ALL_VARS, max_leaves=12))
@settings(max_examples=100, deadline=None)
def test_split_equals_the_and_or_reference(expr) -> None:
    """Same classes, same lo-first order, same condition edges."""
    mgr, node = build(expr)
    split_ids = [mgr.var_index(v) for v in SPLIT_VARS]
    got = list(split_by_vars(mgr, node, split_ids).items())
    want = list(_split_reference(mgr, node, split_ids).items())
    assert got == want
