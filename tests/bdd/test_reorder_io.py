"""Tests for compaction, cross-manager transfer, dot and dumps."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    BddManager,
    compact,
    dump_function,
    load_function,
    to_dot,
    transfer,
)
from repro.errors import BddError
from tests.strategies import DEFAULT_VARS, all_assignments, expressions


def build(expr):
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    return mgr, expr.to_bdd(mgr)


@given(expressions())
@settings(max_examples=50, deadline=None)
def test_compact_preserves_semantics(expr) -> None:
    mgr, node = build(expr)
    # Create garbage on purpose.
    for name in DEFAULT_VARS:
        mgr.apply_xor(node, mgr.var_node(mgr.var_index(name)))
    mapping = compact(mgr, [node])
    new_node = mapping[node]
    for env in all_assignments(DEFAULT_VARS):
        assert mgr.eval(new_node, env) == expr.evaluate(env)


@given(expressions())
@settings(max_examples=30, deadline=None)
def test_compact_reduces_to_live_nodes(expr) -> None:
    mgr, node = build(expr)
    for name in DEFAULT_VARS:
        mgr.apply_xor(node, mgr.var_node(mgr.var_index(name)))
    live = mgr.size(node)
    compact(mgr, [node])
    # live internal nodes + the single shared terminal (complement edges)
    assert len(mgr) == live + 1


@given(expressions(), st.permutations(list(DEFAULT_VARS)))
@settings(max_examples=50, deadline=None)
def test_transfer_into_another_order_preserves_semantics(expr, new_order) -> None:
    mgr, node = build(expr)
    dst = BddManager()
    dst.add_vars(new_order)
    copy = transfer(node, mgr, dst)
    assert dst.var_order() == list(new_order)
    for env in all_assignments(DEFAULT_VARS):
        assert dst.eval(copy, env) == expr.evaluate(env)


@given(expressions())
@settings(max_examples=50, deadline=None)
def test_transfer_with_rename(expr) -> None:
    mgr, node = build(expr)
    dst = BddManager()
    dst.add_vars([f"{n}_x" for n in DEFAULT_VARS])
    copy = transfer(node, mgr, dst, name_map={n: f"{n}_x" for n in DEFAULT_VARS})
    for env in all_assignments(DEFAULT_VARS):
        renamed = {f"{n}_x": v for n, v in env.items()}
        assert dst.eval(copy, renamed) == expr.evaluate(env)


def test_transfer_requires_declared_vars() -> None:
    mgr = BddManager()
    mgr.add_vars(["a"])
    dst = BddManager()
    with pytest.raises(BddError):
        transfer(mgr.var_node(0), mgr, dst)


@given(expressions())
@settings(max_examples=50, deadline=None)
def test_dump_load_roundtrip(expr) -> None:
    mgr, node = build(expr)
    blob = dump_function(mgr, node)
    dst = BddManager()
    dst.add_vars(DEFAULT_VARS)
    copy = load_function(dst, blob)
    for env in all_assignments(DEFAULT_VARS):
        assert dst.eval(copy, env) == expr.evaluate(env)


def test_dump_load_terminals() -> None:
    mgr = BddManager()
    assert load_function(mgr, dump_function(mgr, 1)) == 1
    assert load_function(mgr, dump_function(mgr, 0)) == 0


def test_to_dot_mentions_all_roots_and_edges() -> None:
    mgr = BddManager()
    a, b = mgr.add_vars(["a", "b"])
    f = mgr.apply_and(mgr.var_node(a), mgr.var_node(b))
    dot = to_dot(mgr, {"f": f})
    assert "digraph" in dot
    assert 'label="a"' in dot and 'label="b"' in dot
    assert "root_f" in dot
    assert "style=dashed" in dot and "style=solid" in dot
