"""In-place dynamic reordering: swap_levels / sift correctness.

The property under test is the whole point of in-place reordering: after
any sequence of adjacent-level swaps or a full sift — including ones
interleaved with garbage collections — every *held edge* still denotes
exactly the same Boolean function, and the manager's structural
invariants (canonical complement-edge form, ordering, reduction, table
consistency) all hold.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager, sift, swap_levels
from repro.bdd.reorder import greedy_sift_order, transfer
from repro.errors import BddError
from tests.strategies import DEFAULT_VARS, all_assignments, expressions

import pytest


def build(expr):
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    return mgr, expr.to_bdd(mgr)


def truth_table(mgr, f):
    return [mgr.eval(f, env) for env in all_assignments(DEFAULT_VARS)]


# --------------------------------------------------------------------- #
# Adjacent-level swap
# --------------------------------------------------------------------- #


@given(expressions(), st.integers(min_value=0, max_value=len(DEFAULT_VARS) - 2))
@settings(max_examples=150, deadline=None)
def test_swap_preserves_semantics(expr, level) -> None:
    mgr, f = build(expr)
    mgr.ref(f)
    before = truth_table(mgr, f)
    order_before = mgr.var_order()
    swap_levels(mgr, level, [f])
    mgr.check()
    assert truth_table(mgr, f) == before
    want = list(order_before)
    want[level], want[level + 1] = want[level + 1], want[level]
    assert mgr.var_order() == want


@given(
    expressions(),
    st.lists(
        st.integers(min_value=0, max_value=len(DEFAULT_VARS) - 2),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=100, deadline=None)
def test_swap_sequences_preserve_semantics(expr, levels) -> None:
    mgr, f = build(expr)
    mgr.ref(f)
    before = truth_table(mgr, f)
    for level in levels:
        swap_levels(mgr, level)
    mgr.check()
    assert truth_table(mgr, f) == before


def test_swap_rejects_bad_level() -> None:
    mgr = BddManager()
    mgr.add_vars("ab")
    with pytest.raises(BddError):
        swap_levels(mgr, 1)
    with pytest.raises(BddError):
        swap_levels(mgr, -1)


def test_swap_keeps_literal_edges_valid() -> None:
    mgr = BddManager()
    a, b = mgr.add_vars("ab")
    lit_a, lit_b = mgr.var_node(a), mgr.var_node(b)
    swap_levels(mgr, 0)
    mgr.check()
    assert mgr.var_node(a) == lit_a
    assert mgr.var_node(b) == lit_b
    assert mgr.eval(lit_a, {"a": 1, "b": 0})
    assert not mgr.eval(lit_a, {"a": 0, "b": 1})


# --------------------------------------------------------------------- #
# Full sift
# --------------------------------------------------------------------- #


@given(expressions())
@settings(max_examples=100, deadline=None)
def test_sift_preserves_semantics(expr) -> None:
    mgr, f = build(expr)
    mgr.ref(f)
    before = truth_table(mgr, f)
    result = sift(mgr)
    mgr.check()
    assert truth_table(mgr, f) == before
    assert result.size_after <= result.size_before


@given(expressions(), expressions())
@settings(max_examples=60, deadline=None)
def test_sift_across_gc_sweeps_with_pinned_roots(e1, e2) -> None:
    """Sift between collections; pinned roots keep their functions."""
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    f = mgr.ref(e1.to_bdd(mgr))
    g = mgr.ref(e2.to_bdd(mgr))
    tf, tg = truth_table(mgr, f), truth_table(mgr, g)
    mgr.collect_garbage()
    sift(mgr)
    mgr.check()
    h = mgr.ref(mgr.apply_and(f, g ^ 1))
    th = truth_table(mgr, h)
    mgr.collect_garbage()
    sift(mgr)
    mgr.check()
    assert truth_table(mgr, f) == tf
    assert truth_table(mgr, g) == tg
    assert truth_table(mgr, h) == th


@given(expressions())
@settings(max_examples=60, deadline=None)
def test_sift_roots_survive_without_extref(expr) -> None:
    """Unpinned functions passed as ``roots`` must not be reaped."""
    mgr, f = build(expr)
    before = truth_table(mgr, f)
    sift(mgr, [f])
    mgr.check()
    assert truth_table(mgr, f) == before


@given(expressions())
@settings(max_examples=40, deadline=None)
def test_sift_matches_rebuild_reference(expr) -> None:
    """The in-place result equals a rebuild under the sifted order."""
    mgr, f = build(expr)
    mgr.ref(f)
    sift(mgr)
    fresh = BddManager()
    fresh.add_vars(mgr.var_order())
    copy = transfer(f, mgr, fresh)
    assert fresh.size(copy) == mgr.size(f)
    for env in all_assignments(DEFAULT_VARS):
        assert fresh.eval(copy, env) == mgr.eval(f, env)


def _misordered_product(mgr, xs, ys):
    f = 0
    for x, y in zip(xs, ys):
        f = mgr.apply_or(f, mgr.apply_and(mgr.var_node(x), mgr.var_node(y)))
    return f


def test_sift_shrinks_misordered_product() -> None:
    mgr = BddManager()
    n = 6
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    f = mgr.ref(_misordered_product(mgr, xs, ys))
    mgr.collect_garbage()
    size_before = mgr.size(f)
    result = sift(mgr)
    mgr.check()
    assert mgr.size(f) < size_before / 3
    assert result.size_after < result.size_before
    # The optimum interleaves the pairs: every |level(x_i) - level(y_i)|
    # should be 1 in the sifted order.
    for x, y in zip(xs, ys):
        assert abs(mgr.var_level(x) - mgr.var_level(y)) == 1


def test_sift_finds_greedy_order_quality() -> None:
    """In-place sifting should do at least as well as one rebuild pass
    of the (quadratic) greedy reference on the misordered product."""
    mgr = BddManager()
    n = 4
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    f = mgr.ref(_misordered_product(mgr, xs, ys))
    reference = greedy_sift_order(mgr, [f], max_passes=1)
    scratch = BddManager()
    scratch.add_vars(reference)
    ref_size = scratch.size(transfer(f, mgr, scratch))
    sift(mgr)
    assert mgr.size(f) <= ref_size


def test_sift_respects_reorder_boundaries() -> None:
    """Variables never cross a frozen block boundary."""
    mgr = BddManager()
    n = 4
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    mgr.set_reorder_boundaries([n])  # xs block | ys block
    f = mgr.ref(_misordered_product(mgr, xs, ys))
    before = truth_table_pairs(mgr, f, xs, ys)
    sift(mgr)
    mgr.check()
    assert truth_table_pairs(mgr, f, xs, ys) == before
    for x in xs:
        assert mgr.var_level(x) < n
    for y in ys:
        assert mgr.var_level(y) >= n


def truth_table_pairs(mgr, f, xs, ys):
    import itertools

    out = []
    for bits in itertools.product((0, 1), repeat=len(xs) + len(ys)):
        out.append(mgr.eval_vars(f, dict(zip(list(xs) + list(ys), bits))))
    return out


def test_sift_trivial_managers() -> None:
    mgr = BddManager()
    assert sift(mgr).swaps == 0
    mgr.add_var("a")
    assert sift(mgr).swaps == 0
    mgr.add_var("b")
    assert sift(mgr).swaps == 0  # only terminal live


def test_swap_counts_reported() -> None:
    mgr = BddManager()
    n = 5
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    mgr.ref(_misordered_product(mgr, xs, ys))
    result = mgr.sift_now()
    assert result.swaps > 0
    assert result.vars_sifted > 0
    assert result.size_after == len(mgr)
    # The explicit pass is what the manager's reorder counters count.
    assert mgr.stats["reorder_runs"] == 1
    assert mgr.stats["reorder_swaps"] == result.swaps
    # The exported sift counts its pass the same way as sift_now.
    other = BddManager()
    other.ref(
        _misordered_product(
            other,
            other.add_vars([f"x{i}" for i in range(n)]),
            other.add_vars([f"y{i}" for i in range(n)]),
        )
    )
    plain = sift(other)
    assert plain.swaps > 0
    assert other.stats["reorder_runs"] == 1
    assert other.stats["reorder_swaps"] == plain.swaps
