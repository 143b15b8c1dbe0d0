"""The two paths of snapshot import in :func:`repro.bdd.io.load_nodes`.

Under a preserved variable order every snapshot node sits above its
rebuilt children, so import must build it straight through the unique
table and never call ITE.  Under a different order some nodes land
below a child's top variable and must be recombined with ITE; the
result is still the destination's canonical edge of the same function.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager, dump_nodes, load_nodes
from repro.bdd.io import dump_function_packed, load_function_packed
from tests.strategies import DEFAULT_VARS, all_assignments, expressions


def _manager(order) -> BddManager:
    mgr = BddManager()
    mgr.add_vars(order)
    return mgr


def _no_ite(*_args):
    raise AssertionError("import under a preserved order called ite")


@given(st.lists(expressions(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_same_order_import_never_calls_ite(exprs) -> None:
    src = _manager(DEFAULT_VARS)
    roots = [e.to_bdd(src) for e in exprs]
    snap = dump_nodes(src, roots)
    blob = dump_function_packed(src, roots[0])
    dst = _manager(DEFAULT_VARS)
    expected = [e.to_bdd(dst) for e in exprs]
    dst.ite = _no_ite
    assert load_nodes(dst, snap) == expected
    assert load_function_packed(dst, blob) == expected[0]


@given(st.lists(expressions(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_reversed_order_import_falls_back_to_ite(exprs) -> None:
    src = _manager(DEFAULT_VARS)
    roots = [e.to_bdd(src) for e in exprs]
    dst = _manager(list(reversed(DEFAULT_VARS)))
    copies = load_nodes(dst, dump_nodes(src, roots))
    for expr, copy in zip(exprs, copies):
        assert copy == expr.to_bdd(dst)  # canonical ⇒ the same edge
        for env in all_assignments(DEFAULT_VARS):
            assert dst.eval(copy, env) == expr.evaluate(env)


def test_reversed_order_import_needs_ite() -> None:
    """The fallback is really taken: a two-level chain inverts."""
    src = _manager(DEFAULT_VARS)
    a, b = (src.var_node(src.var_index(v)) for v in "ab")
    snap = dump_nodes(src, [src.apply_and(a, b)])
    dst = _manager(list(reversed(DEFAULT_VARS)))
    dst.ite = _no_ite
    with pytest.raises(AssertionError, match="called ite"):
        load_nodes(dst, snap)
