"""Kernel garbage collection, complement edges and the computed table.

Covers the overhaul features: live roots survive a sweep, computed-table
entries survive or expire correctly, negation is O(1) and involutive
under complement edges, freed slots are recycled, and random expressions
keep reference semantics across collections.  ``TestGcTrigger`` pins the
one collection trigger (``gc_min_live`` floor and ``gc_growth`` over the
post-sweep baseline), the reclaim-ratio statistic, and that a sweep
never moves a variable.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.bdd import FALSE, TRUE, BddManager
from repro.bdd import manager as manager_mod
from tests.strategies import (
    DEFAULT_VARS,
    all_assignments,
    bdd_minterms,
    expressions,
    reference_minterms,
)


def fresh(gc_min_live: int = 0, gc_growth: float = 1.0) -> BddManager:
    mgr = BddManager(gc_min_live=gc_min_live, gc_growth=gc_growth)
    mgr.add_vars(DEFAULT_VARS)
    return mgr


def make_garbage(mgr: BddManager, node: int) -> None:
    """Create unrooted intermediate junk around ``node``."""
    for name in DEFAULT_VARS:
        v = mgr.var_node(mgr.var_index(name))
        mgr.apply_xor(node, v)
        mgr.apply_and(mgr.apply_or(node, v), mgr.apply_not(v))


class TestCollectGarbage:
    def test_live_roots_survive_a_sweep(self) -> None:
        mgr = fresh()
        a, b, c = (mgr.var_node(i) for i in range(3))
        f = mgr.apply_or(mgr.apply_and(a, b), mgr.apply_not(c))
        make_garbage(mgr, f)
        mgr.ref(f)
        reclaimed = mgr.collect_garbage()
        assert reclaimed > 0
        for env in all_assignments(DEFAULT_VARS):
            want = (env["a"] and env["b"]) or not env["c"]
            assert mgr.eval(f, env) == bool(want)

    def test_roots_argument_pins_without_ref(self) -> None:
        mgr = fresh()
        f = mgr.apply_and(mgr.var_node(0), mgr.var_node(1))
        make_garbage(mgr, f)
        mgr.collect_garbage([f])
        assert mgr.eval(f, {"a": 1, "b": 1, "c": 0, "d": 0, "e": 0})

    def test_unrooted_nodes_are_reclaimed(self) -> None:
        mgr = fresh()
        f = mgr.apply_and(mgr.var_node(0), mgr.var_node(1))
        make_garbage(mgr, f)
        before = mgr.num_nodes
        mgr.collect_garbage()  # nothing pinned but the literals
        # terminal + the pinned literal nodes is all that remains
        assert mgr.num_nodes < before
        assert mgr.num_nodes == 1 + len(DEFAULT_VARS)

    def test_literal_nodes_always_survive(self) -> None:
        mgr = fresh()
        lits = [mgr.var_node(i) for i in range(len(DEFAULT_VARS))]
        mgr.collect_garbage()
        # var_node must return the identical (still valid) edges
        assert [mgr.var_node(i) for i in range(len(DEFAULT_VARS))] == lits
        assert mgr.eval(lits[0], dict.fromkeys(DEFAULT_VARS, 1))

    def test_protect_context_manager(self) -> None:
        mgr = fresh()
        f = mgr.apply_xor(mgr.var_node(0), mgr.var_node(2))
        make_garbage(mgr, f)
        with mgr.protect(f):
            assert mgr.collect_garbage() > 0
            assert mgr.eval(f, {"a": 1, "b": 0, "c": 0, "d": 0, "e": 0})
        # after release f is collectable
        mgr.collect_garbage()
        assert mgr.num_nodes == 1 + len(DEFAULT_VARS)

    def test_ref_deref_nest(self) -> None:
        mgr = fresh()
        f = mgr.apply_and(mgr.var_node(0), mgr.var_node(1))
        mgr.ref(f)
        mgr.ref(f)
        mgr.deref(f)
        mgr.collect_garbage()
        assert mgr.eval(f, {"a": 1, "b": 1, "c": 0, "d": 0, "e": 0})

    def test_freed_slots_are_recycled(self) -> None:
        mgr = fresh()
        f = mgr.apply_and(mgr.var_node(0), mgr.var_node(1))
        make_garbage(mgr, f)
        mgr.collect_garbage()
        allocated = mgr.allocated_nodes
        # rebuilding equivalent junk must reuse the freed slots
        g = mgr.apply_and(mgr.var_node(0), mgr.var_node(1))
        mgr.apply_xor(g, mgr.var_node(2))
        assert mgr.allocated_nodes == allocated
        assert mgr.eval(g, {"a": 1, "b": 1, "c": 0, "d": 0, "e": 0})

    def test_budget_counts_live_not_allocated(self) -> None:
        mgr = BddManager(max_nodes=64)
        mgr.add_vars(DEFAULT_VARS)
        f = mgr.apply_and(mgr.var_node(0), mgr.var_node(1))
        for _ in range(4):
            make_garbage(mgr, f)
            mgr.collect_garbage([f])
        # repeated garbage + collection must not exhaust the budget
        assert mgr.num_nodes <= 64

    def test_maybe_collect_respects_trigger(self) -> None:
        mgr = BddManager(gc_min_live=10**9)
        mgr.add_vars(DEFAULT_VARS)
        make_garbage(mgr, mgr.var_node(0))
        assert not mgr.should_collect()
        assert mgr.maybe_collect_garbage() == 0
        assert mgr.stats["gc_runs"] == 0


def grow(mgr: BddManager, k: int) -> None:
    """Add ``k`` fresh variables and build their literals: exactly ``k``
    more live nodes, none of which a sweep can reclaim."""
    start = mgr.num_vars
    for v in mgr.add_vars([f"g{start + i}" for i in range(k)]):
        mgr.var_node(v)


class TestGcTrigger:
    def test_floor_and_growth_both_gate(self) -> None:
        mgr = BddManager(gc_min_live=10, gc_growth=2.0)
        grow(mgr, 8)
        assert mgr.stats["live_nodes"] == 9
        assert not mgr.should_collect()  # grown 9x, but below the floor
        grow(mgr, 1)
        assert mgr.should_collect()  # floor reached, growth armed
        assert mgr.collect_garbage() == 0  # baseline is now 10 live nodes
        assert not mgr.should_collect()  # above the floor, not grown 2x
        grow(mgr, 9)
        assert not mgr.should_collect()  # 19 < 2 x 10
        grow(mgr, 1)
        assert mgr.should_collect()

    def test_sweeps_never_move_the_floor(self) -> None:
        mgr = BddManager(gc_min_live=5, gc_growth=1.0)
        grow(mgr, 8)
        for _ in range(10):
            assert mgr.collect_garbage() == 0  # nothing to reclaim
        assert mgr.gc_min_live == 5
        assert mgr.gc_growth == 1.0
        assert mgr.should_collect()

    def test_unprofitable_sweeps_keep_collecting(self) -> None:
        mgr = BddManager(gc_min_live=8, gc_growth=1.0)
        mgr.add_vars([f"x{i}" for i in range(8)])
        f = 1
        for i in range(8):
            f = mgr.ref(mgr.apply_and(f, mgr.var_node(i)))
        for _ in range(5):
            assert mgr.maybe_collect_garbage() == 0
        assert mgr.stats["gc_runs"] == 5
        assert mgr.should_collect()

    def test_gc_numbers_read_and_write(self) -> None:
        mgr = BddManager(gc_min_live=123, gc_growth=3.5)
        assert (mgr.gc_min_live, mgr.gc_growth) == (123, 3.5)
        grow(mgr, 8)  # 9 live nodes against a baseline of 1
        assert not mgr.should_collect()
        mgr.gc_min_live = 9
        mgr.gc_growth = 9.0
        assert (mgr.gc_min_live, mgr.gc_growth) == (9, 9.0)
        assert mgr.should_collect()  # the new numbers take effect at once
        mgr.gc_growth = 9.5
        assert not mgr.should_collect()

    def test_stats_expose_reclaim_ratio(self) -> None:
        mgr = BddManager(gc_min_live=0, gc_growth=1.0)
        mgr.add_vars("ab")
        assert mgr.stats["reclaim_ratio_avg"] == 1.0  # no sweep yet
        g = mgr.apply_and(mgr.var_node(0), mgr.var_node(1))
        assert g >= 2
        mgr.collect_garbage()  # g unpinned: reclaimed
        stats = mgr.stats
        assert stats["gc_runs"] == 1
        assert 0.0 < stats["reclaim_ratio_avg"] <= 1.0

    def test_reclaim_ratio_is_the_mean_over_sweeps(self) -> None:
        mgr = fresh()
        make_garbage(mgr, mgr.var_node(0))
        live_before = mgr.stats["live_nodes"]
        reclaimed = mgr.collect_garbage()
        assert reclaimed > 0
        assert mgr.stats["reclaim_ratio_avg"] == reclaimed / live_before
        assert mgr.collect_garbage() == 0  # a second sweep finds nothing
        assert mgr.stats["reclaim_ratio_avg"] == reclaimed / live_before / 2

    def test_sweeps_never_reorder(self) -> None:
        """A pinned Σ x_i·y_i under the blocked order: every sweep
        reclaims nothing, and the order and the size stay as built."""
        mgr = BddManager(gc_min_live=0, gc_growth=1.0)
        xs = mgr.add_vars([f"x{i}" for i in range(5)])
        ys = mgr.add_vars([f"y{i}" for i in range(5)])
        f = 0
        for x, y in zip(xs, ys):
            f = mgr.apply_or(f, mgr.apply_and(mgr.var_node(x), mgr.var_node(y)))
        mgr.ref(f)
        mgr.collect_garbage()
        order, size = mgr.var_order(), mgr.size(f)
        for _ in range(5):
            assert mgr.maybe_collect_garbage() == 0
        assert mgr.var_order() == order
        assert mgr.size(f) == size


class TestComputedTable:
    def test_entries_survive_for_live_nodes(self) -> None:
        mgr = fresh()
        a, b = mgr.var_node(0), mgr.var_node(1)
        f = mgr.ref(mgr.apply_and(a, b))
        hits_before = mgr.stats["cache_hits"]
        assert mgr.apply_and(a, b) == f  # warm entry
        assert mgr.stats["cache_hits"] == hits_before + 1
        mgr.collect_garbage()
        assert mgr.apply_and(a, b) == f  # entry survived the sweep
        assert mgr.stats["cache_hits"] == hits_before + 2

    def test_entries_expire_for_dead_nodes(self) -> None:
        mgr = fresh()
        a, b, c = (mgr.var_node(i) for i in range(3))
        g = mgr.apply_and(mgr.apply_xor(a, b), c)  # unrooted
        entries_before = mgr.computed_table_size()
        assert entries_before > 0
        mgr.collect_garbage()  # g dies
        assert mgr.computed_table_size() < entries_before
        # re-deriving g must recompute (miss), not produce a stale hit
        misses_before = mgr.stats["cache_misses"]
        g2 = mgr.apply_and(mgr.apply_xor(a, b), c)
        assert mgr.stats["cache_misses"] > misses_before
        for env in all_assignments(DEFAULT_VARS):
            want = (env["a"] ^ env["b"]) and env["c"]
            assert mgr.eval(g2, env) == bool(want)

    def test_and_or_share_cache_entries(self) -> None:
        mgr = fresh()
        a, b = mgr.var_node(0), mgr.var_node(1)
        f_or = mgr.apply_or(a, b)
        hits_before = mgr.stats["cache_hits"]
        # De Morgan: or(a, b) == ¬and(¬a, ¬b) — the same table entry
        assert mgr.apply_and(mgr.apply_not(a), mgr.apply_not(b)) == mgr.apply_not(f_or)
        assert mgr.stats["cache_hits"] == hits_before + 1

    def test_hit_rate_reporting(self) -> None:
        mgr = fresh()
        assert mgr.cache_hit_rate() == 0.0
        a, b = mgr.var_node(0), mgr.var_node(1)
        f = mgr.apply_and(a, b)
        assert mgr.apply_and(a, b) == f
        assert 0.0 < mgr.cache_hit_rate() <= 1.0
        stats = mgr.stats
        assert stats["cache_hits"] + stats["cache_misses"] > 0


class TestComputedTableBound:
    """The computed table is flushed at GC safe points once it holds
    ``COMPUTED_TABLE_CAP`` entries, and never inside an operator."""

    @staticmethod
    def churn(mgr: BddManager, rounds: int = 6, start: int = 0) -> None:
        """Fresh computed-table entries: junk around distinct functions."""
        n = len(DEFAULT_VARS)
        for k in range(start, start + rounds):
            a, b = mgr.var_node(k % n), mgr.var_node(k // n % n)
            make_garbage(mgr, mgr.apply_xor(a, mgr.apply_not(b)))

    def test_safe_points_bound_the_table(self, monkeypatch) -> None:
        monkeypatch.setattr(manager_mod, "COMPUTED_TABLE_CAP", 8)
        mgr = BddManager(gc_min_live=10**9)
        mgr.add_vars(DEFAULT_VARS)
        safe_points = (mgr.should_collect, mgr.maybe_collect_garbage) * 3
        for k, safe_point in enumerate(safe_points):
            self.churn(mgr, 2, start=2 * k)
            assert mgr.computed_table_size() >= 8
            safe_point()
            assert mgr.computed_table_size() <= 8
        assert mgr.stats["gc_runs"] == 0

    def test_reclaiming_sweep_flushes_the_table(self) -> None:
        mgr = fresh()
        keep = mgr.ref(mgr.apply_and(mgr.var_node(0), mgr.var_node(1)))
        mgr.collect_garbage()
        self.churn(mgr)
        assert mgr.computed_table_size() > 0
        assert mgr.collect_garbage() > 0
        assert mgr.computed_table_size() == 0
        stats = mgr.stats
        assert stats["cache_misses"] == stats["recursive_calls"]
        assert mgr.apply_and(mgr.var_node(0), mgr.var_node(1)) == keep

    def test_operators_never_flush(self, monkeypatch) -> None:
        monkeypatch.setattr(manager_mod, "COMPUTED_TABLE_CAP", 1)
        mgr = BddManager()
        mgr.add_vars(DEFAULT_VARS)
        self.churn(mgr)
        assert mgr.computed_table_size() > 1
        mgr.should_collect()
        assert mgr.computed_table_size() == 0

    def test_flush_keeps_miss_accounting(self, monkeypatch) -> None:
        monkeypatch.setattr(manager_mod, "COMPUTED_TABLE_CAP", 16)
        mgr = BddManager(gc_min_live=10**9)
        mgr.add_vars(DEFAULT_VARS)
        seen = mgr.stats
        flushes = 0
        for k in range(8):
            self.churn(mgr, 1, start=k)
            before = mgr.stats
            assert before["cache_misses"] == before["recursive_calls"]
            size = mgr.computed_table_size()
            mgr.should_collect()
            flushes += mgr.computed_table_size() < size
            after = mgr.stats
            assert after["cache_misses"] == after["recursive_calls"]
            # A flush forgets entries, not the misses that made them.
            assert after["cache_misses"] == before["cache_misses"]
            for key in ("cache_hits", "cache_misses", "recursive_calls"):
                assert seen[key] <= before[key] <= after[key]
            seen = after
        assert flushes > 0

    def test_tiny_cap_changes_no_result(self, monkeypatch) -> None:
        from repro.bench import circuits
        from repro.network.bddbuild import build_network_bdds
        from repro.symb.reach import network_reachable_states

        def reach():
            net = circuits.random_network(4, 8, 4, seed=5, n_nodes=60)
            mgr = BddManager(gc_min_live=0, gc_growth=1.0)
            inputs = {name: mgr.add_var(name) for name in net.inputs}
            cs = {name: mgr.add_var(name) for name in net.latches}
            ns = {name: mgr.add_var(f"{name}'") for name in net.latches}
            bdds = build_network_bdds(net, mgr, inputs, cs)
            result = network_reachable_states(bdds, ns_vars=ns)
            return mgr, result

        _, want = reach()
        monkeypatch.setattr(manager_mod, "COMPUTED_TABLE_CAP", 1)
        mgr, got = reach()
        assert (got.states, got.iterations, got.state_count) == (
            want.states,
            want.iterations,
            want.state_count,
        )
        stats = mgr.stats
        assert stats["cache_misses"] == stats["recursive_calls"]


class TestComplementEdges:
    def test_not_is_involutive(self) -> None:
        mgr = fresh()
        f = mgr.apply_xor(mgr.var_node(0), mgr.var_node(1))
        assert mgr.apply_not(mgr.apply_not(f)) == f
        assert mgr.apply_not(f) != f

    def test_not_allocates_no_nodes(self) -> None:
        mgr = fresh()
        f = mgr.apply_and(mgr.var_node(0), mgr.apply_or(mgr.var_node(1), mgr.var_node(2)))
        live = mgr.num_nodes
        g = mgr.apply_not(f)
        assert mgr.num_nodes == live  # O(1): no new nodes, ever
        assert mgr.size(g) == mgr.size(f)

    def test_terminal_edges(self) -> None:
        mgr = fresh()
        assert mgr.apply_not(FALSE) == TRUE
        assert mgr.apply_not(TRUE) == FALSE


@given(expressions())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_semantics(expr) -> None:
    """Old vs new kernel on random expressions: both must realise the
    brute-force truth table, and negation must complement it exactly."""
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    node = expr.to_bdd(mgr)
    want = reference_minterms(expr, DEFAULT_VARS)
    assert bdd_minterms(mgr, node, DEFAULT_VARS) == want
    n_all = 1 << len(DEFAULT_VARS)
    assert len(bdd_minterms(mgr, mgr.apply_not(node), DEFAULT_VARS)) == n_all - len(want)


@given(expressions(), expressions())
@settings(max_examples=40, deadline=None)
def test_collection_preserves_reference_semantics(expr1, expr2) -> None:
    """Random expressions stay correct across interleaved collections."""
    mgr = BddManager(gc_min_live=0, gc_growth=1.0)
    mgr.add_vars(DEFAULT_VARS)
    f = mgr.ref(expr1.to_bdd(mgr))
    mgr.collect_garbage()
    g = mgr.ref(expr2.to_bdd(mgr))
    mgr.collect_garbage()
    both = mgr.apply_and(f, g)
    want1 = reference_minterms(expr1, DEFAULT_VARS)
    want2 = reference_minterms(expr2, DEFAULT_VARS)
    assert bdd_minterms(mgr, f, DEFAULT_VARS) == want1
    assert bdd_minterms(mgr, g, DEFAULT_VARS) == want2
    assert bdd_minterms(mgr, both, DEFAULT_VARS) == want1 & want2
