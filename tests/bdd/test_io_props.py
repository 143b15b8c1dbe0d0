"""Property tests for BDD (de)serialisation under a *dynamic* kernel.

The original dump/load coverage only exercised static managers; these
tests round-trip through :func:`dump_function`/:func:`load_function` and
the packed-array :func:`dump_nodes`/:func:`load_nodes` wire format while
the source manager garbage-collects *mid-run* and the destination holds
another variable order — exactly the life of a snapshot inside the
sharded runtime, where either side may sweep between transfers.  Complement-edge-heavy functions (XOR
towers, negations) are the interesting cases: every dumped ref carries a
sign bit that must survive verbatim.
"""

from __future__ import annotations

import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    BddManager,
    dump_function,
    dump_nodes,
    load_function,
    load_nodes,
)
from repro.errors import BddError
from tests.strategies import DEFAULT_VARS, all_assignments, expressions


def build(expr, *, order=None):
    mgr = BddManager()
    mgr.add_vars(order or DEFAULT_VARS)
    return mgr, expr.to_bdd(mgr)


def xor_tower(mgr):
    """A maximally complement-edge-heavy function (parity of all vars)."""
    f = 0
    for name in DEFAULT_VARS:
        f = mgr.apply_xor(f, mgr.var_node(mgr.var_index(name)))
    return f


@given(expressions(), st.permutations(list(DEFAULT_VARS)))
@settings(max_examples=40, deadline=None)
def test_dump_function_roundtrip_across_reorder(expr, dst_order) -> None:
    """Dump, load into a differently-ordered manager: both views must
    agree with the reference semantics."""
    mgr, node = build(expr)
    data = dump_function(mgr, node)
    dst = BddManager()
    dst.add_vars(dst_order)
    copy = load_function(dst, data)
    for env in all_assignments(DEFAULT_VARS):
        expected = expr.evaluate(env)
        assert mgr.eval(node, env) == expected
        assert dst.eval(copy, env) == expected


@given(expressions())
@settings(max_examples=40, deadline=None)
def test_dump_function_roundtrip_across_gc(expr) -> None:
    """A snapshot taken before a sweep loads identically after it, and a
    snapshot of the post-GC manager matches too."""
    mgr, node = build(expr)
    mgr.ref(node)
    data = dump_function(mgr, node)
    # Create garbage, then sweep it; node survives (pinned).
    for name in DEFAULT_VARS:
        mgr.apply_xor(node, mgr.var_node(mgr.var_index(name)))
    mgr.collect_garbage()
    dst = BddManager()
    dst.add_vars(DEFAULT_VARS)
    copy = load_function(dst, data)
    copy_post = load_function(dst, dump_function(mgr, node))
    assert copy == copy_post  # same manager, same function, same edge
    for env in all_assignments(DEFAULT_VARS):
        assert dst.eval(copy, env) == expr.evaluate(env)


@given(st.lists(expressions(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_dump_nodes_roundtrip_many_roots(exprs) -> None:
    """Packed snapshots preserve semantics and *sharing* for any root
    set, into a manager with a reversed order."""
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    roots = [e.to_bdd(mgr) for e in exprs]
    snap = dump_nodes(mgr, roots)
    dst = BddManager()
    dst.add_vars(list(reversed(DEFAULT_VARS)))
    copies = load_nodes(dst, snap)
    assert len(copies) == len(roots)
    for expr, copy in zip(exprs, copies):
        for env in all_assignments(DEFAULT_VARS):
            assert dst.eval(copy, env) == expr.evaluate(env)
    # Shared structure is stored once: node count ≤ the shared DAG size.
    assert len(snap["var"]) == mgr.size_many(roots)


@given(expressions())
@settings(max_examples=40, deadline=None)
def test_dump_nodes_preserves_complement_pairs(expr) -> None:
    """f and ¬f share all their nodes in the snapshot, and load back as
    exact complements (the sign bit survives the wire)."""
    mgr, node = build(expr)
    snap = dump_nodes(mgr, [node, node ^ 1])
    assert len(snap["var"]) == mgr.size(node)
    dst = BddManager()
    dst.add_vars(DEFAULT_VARS)
    copy, copy_neg = load_nodes(dst, snap)
    assert copy ^ copy_neg == 1


@given(expressions())
@settings(max_examples=30, deadline=None)
def test_dump_nodes_roundtrip_across_gc_and_reorder(expr) -> None:
    """Snapshots taken before and after a GC of the source load to the
    same edge in a destination with another order."""
    mgr, node = build(expr)
    mgr.ref(node)
    before = dump_nodes(mgr, [node])
    for name in DEFAULT_VARS:  # garbage + complement churn
        mgr.apply_xor(node, mgr.nvar_node(mgr.var_index(name)))
    mgr.collect_garbage()
    after = dump_nodes(mgr, [node])
    dst = BddManager()
    dst.add_vars(DEFAULT_VARS[::-1])
    (a,) = load_nodes(dst, before)
    (b,) = load_nodes(dst, after)
    assert a == b


def test_dump_nodes_xor_tower_pickle_density() -> None:
    """The packed form must stay compact under pickle (the wire case)."""
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    f = xor_tower(mgr)
    snap = dump_nodes(mgr, [f])
    assert len(snap["var"]) == mgr.size(f)
    blob = pickle.dumps(snap)
    dst = BddManager()
    dst.add_vars(DEFAULT_VARS)
    (copy,) = load_nodes(dst, pickle.loads(blob))
    for env in all_assignments(DEFAULT_VARS):
        assert dst.eval(copy, env) == (sum(env.values()) % 2 == 1)


def test_dump_nodes_terminal_roots() -> None:
    mgr = BddManager()
    snap = dump_nodes(mgr, [0, 1])
    assert len(snap["var"]) == 0
    dst = BddManager()
    assert load_nodes(dst, snap) == [0, 1]


def test_load_nodes_rejects_unknown_format() -> None:
    dst = BddManager()
    with pytest.raises(BddError):
        load_nodes(dst, {"format": "bogus/9"})


def test_dump_nodes_deep_chain_no_recursion() -> None:
    """Snapshotting must survive BDDs deeper than the recursion limit:
    the dump and the load run under a 1000-frame limit, below the
    3000-level chain's depth."""
    mgr = BddManager()
    vs = mgr.add_vars([f"x{i}" for i in range(3000)])
    f = 1
    for v in reversed(vs):
        f = mgr.apply_and(mgr.var_node(v), f)
    dst = BddManager()
    dst.add_vars([f"x{i}" for i in range(3000)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        snap = dump_nodes(mgr, [f])
        (copy,) = load_nodes(dst, snap)
    finally:
        sys.setrecursionlimit(old)
    assert len(snap["var"]) == 3000
    assert dst.size(copy) == 3000
