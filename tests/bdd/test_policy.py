"""Adaptive runtime policies: GcPolicy back-off and ReorderPolicy triggers."""

from __future__ import annotations

import pytest

from repro.bdd import BddManager
from repro.bdd.policy import GcPolicy, ReorderPolicy


# --------------------------------------------------------------------- #
# GcPolicy
# --------------------------------------------------------------------- #


class TestGcPolicyStatic:
    def test_reproduces_legacy_trigger(self) -> None:
        p = GcPolicy(mode="static", min_live=100, growth=2.0)
        assert not p.should_collect(live=99, baseline=10)
        assert not p.should_collect(live=150, baseline=100)
        assert p.should_collect(live=200, baseline=100)

    def test_record_never_moves_the_floor(self) -> None:
        p = GcPolicy(mode="static", min_live=100, growth=2.0)
        for _ in range(10):
            p.record(live_before=1000, reclaimed=0)
        assert p.floor == 100

    def test_unknown_mode_rejected(self) -> None:
        with pytest.raises(ValueError):
            GcPolicy(mode="aggressive")


class TestGcPolicyAdaptive:
    def test_never_collects_after_window_unprofitable_sweeps(self) -> None:
        """The acceptance property: after ``window`` consecutive sweeps
        whose reclaim ratio is below threshold, no collection triggers at
        the heap size those sweeps failed to shrink."""
        p = GcPolicy(
            mode="adaptive",
            min_live=100,
            growth=1.0,
            reclaim_threshold=0.2,
            window=3,
            backoff=2.0,
        )
        live = 1000
        assert p.should_collect(live, baseline=100)
        for _ in range(p.window):
            p.record(live_before=live, reclaimed=10)  # ratio 0.01
        assert not p.should_collect(live, baseline=100)
        # ... and not until the heap genuinely outgrows the back-off
        # (the floor jumped to backoff × the post-sweep live count).
        assert p.floor >= p.backoff * (live - 10)
        assert not p.should_collect(p.floor - 1, baseline=100)
        assert p.should_collect(p.floor, baseline=100)

    def test_profitable_sweeps_reset_the_streak(self) -> None:
        p = GcPolicy(mode="adaptive", min_live=10, growth=1.0, window=2)
        p.record(1000, reclaimed=10)  # bad
        p.record(1000, reclaimed=900)  # good: resets
        p.record(1000, reclaimed=10)  # bad again — streak is 1, not 3
        assert p.backoffs == 0
        assert p.should_collect(1000, baseline=10)

    def test_floor_recovers_after_profitable_sweep(self) -> None:
        p = GcPolicy(
            mode="adaptive", min_live=100, growth=1.0, window=1, backoff=4.0
        )
        p.record(1000, reclaimed=0)
        backed_off = p.floor
        assert backed_off >= 4000
        p.record(8000, reclaimed=7000)  # very profitable
        assert p.floor < backed_off
        for _ in range(10):
            p.record(8000, reclaimed=7000)
        assert p.floor == p.min_live

    def test_ratio_reported(self) -> None:
        p = GcPolicy(mode="adaptive", min_live=0, growth=1.0)
        assert p.record(200, reclaimed=50) == pytest.approx(0.25)
        assert p.last_ratio == pytest.approx(0.25)


class TestManagerAdaptiveGc:
    def _pinned_manager(self, n: int = 200) -> BddManager:
        """A manager whose nodes are all pinned (sweeps reclaim nothing)."""
        mgr = BddManager(
            gc_policy=GcPolicy(
                mode="adaptive", min_live=8, growth=1.0, window=2, backoff=2.0
            )
        )
        mgr.add_vars([f"x{i}" for i in range(8)])
        f = 1
        for i in range(8):
            f = mgr.apply_and(f, mgr.var_node(i) ^ (i & 1))
            mgr.ref(f)
        return mgr

    def test_unprofitable_sweeps_back_off_the_manager(self) -> None:
        mgr = self._pinned_manager()
        assert mgr.should_collect()
        assert mgr.collect_garbage() == 0
        assert mgr.collect_garbage() == 0  # second bad sweep: window hit
        assert not mgr.should_collect()
        assert mgr.maybe_collect_garbage() == 0
        assert mgr.stats["gc_runs"] == 2  # the suppressed call never swept

    def test_static_manager_keeps_collecting(self) -> None:
        mgr = BddManager(gc_min_live=8, gc_growth=1.0)
        mgr.add_vars([f"x{i}" for i in range(8)])
        f = 1
        for i in range(8):
            f = mgr.ref(mgr.apply_and(f, mgr.var_node(i)))
        for _ in range(5):
            mgr.collect_garbage()
        assert mgr.should_collect()

    def test_legacy_knob_properties(self) -> None:
        mgr = BddManager(gc_min_live=123, gc_growth=3.5)
        assert mgr.gc_min_live == 123
        assert mgr.gc_growth == 3.5
        mgr.gc_min_live = 50
        mgr.gc_growth = 1.5
        assert mgr.gc_policy.floor == 50
        assert mgr.gc_policy.growth == 1.5


# --------------------------------------------------------------------- #
# ReorderPolicy
# --------------------------------------------------------------------- #


class TestReorderPolicy:
    def test_off_never_fires(self) -> None:
        p = ReorderPolicy(mode="off")
        for _ in range(10):
            assert not p.should_reorder(live=10**6, reclaim_ratio=0.0)

    def test_auto_fires_after_window_unprofitable_sweeps(self) -> None:
        p = ReorderPolicy(mode="auto", window=2, min_live=0)
        assert not p.should_reorder(live=5000, reclaim_ratio=0.05)
        assert p.should_reorder(live=5000, reclaim_ratio=0.05)

    def test_profitable_sweep_resets_streak(self) -> None:
        p = ReorderPolicy(mode="auto", window=2, min_live=0)
        assert not p.should_reorder(live=5000, reclaim_ratio=0.05)
        assert not p.should_reorder(live=5000, reclaim_ratio=0.9)
        assert not p.should_reorder(live=5000, reclaim_ratio=0.05)

    def test_window_one_fires_on_every_unprofitable_sweep(self) -> None:
        p = ReorderPolicy(mode="auto", window=1, min_live=0)
        assert p.should_reorder(live=5000, reclaim_ratio=0.05)
        assert p.should_reorder(live=5000, reclaim_ratio=0.05)

    def test_min_live_gate(self) -> None:
        p = ReorderPolicy(mode="auto", window=1, min_live=10_000)
        assert not p.should_reorder(live=500, reclaim_ratio=0.0)

    def test_cooldown(self) -> None:
        p = ReorderPolicy(mode="auto", window=1, min_live=0, cooldown_growth=2.0)
        assert p.should_reorder(live=1000, reclaim_ratio=0.0)
        p.record_reorder(live_after=800)
        assert not p.should_reorder(live=1000, reclaim_ratio=0.0)
        assert p.should_reorder(live=1601, reclaim_ratio=0.0)

    def test_unknown_mode_rejected(self) -> None:
        for mode in ("always", "sift"):
            with pytest.raises(ValueError):
                ReorderPolicy(mode=mode)


class TestManagerGcTriggeredReorder:
    def test_unprofitable_collections_trigger_inplace_sift(self) -> None:
        """End to end: pinned misordered function, low floor, auto
        reorder — collections stop paying, the manager sifts in place,
        the pinned edge keeps its function, and the live count drops."""
        mgr = BddManager(
            gc_policy=GcPolicy(mode="adaptive", min_live=8, growth=1.0, window=99),
            reorder_policy=ReorderPolicy(
                mode="auto", window=2, min_live=0, reclaim_threshold=0.2
            ),
        )
        n = 5
        xs = mgr.add_vars([f"x{i}" for i in range(n)])
        ys = mgr.add_vars([f"y{i}" for i in range(n)])
        f = 0
        for x, y in zip(xs, ys):
            f = mgr.apply_or(f, mgr.apply_and(mgr.var_node(x), mgr.var_node(y)))
        mgr.ref(f)
        mgr.collect_garbage()
        size_blocked = mgr.size(f)
        import itertools

        table = {
            bits: mgr.eval_vars(f, dict(zip(xs + ys, bits)))
            for bits in itertools.product((0, 1), repeat=2 * n)
        }
        mgr.collect_garbage()  # unprofitable sweep #1 (everything pinned)
        mgr.collect_garbage()  # unprofitable sweep #2: reorder fires
        assert mgr.stats["reorder_runs"] == 1
        assert mgr.stats["reorder_swaps"] > 0
        assert mgr.size(f) < size_blocked
        mgr.check()
        for bits, want in table.items():
            assert mgr.eval_vars(f, dict(zip(xs + ys, bits))) == want

    def test_off_mode_never_reorders(self) -> None:
        mgr = BddManager(gc_min_live=0, gc_growth=1.0)
        mgr.add_vars("abc")
        mgr.ref(mgr.apply_and(mgr.var_node(0), mgr.var_node(1)))
        for _ in range(5):
            mgr.collect_garbage()
        assert mgr.stats["reorder_runs"] == 0

    def test_stats_expose_reclaim_ratio(self) -> None:
        mgr = BddManager(gc_min_live=0, gc_growth=1.0)
        mgr.add_vars("ab")
        g = mgr.apply_and(mgr.var_node(0), mgr.var_node(1))
        assert g >= 2
        mgr.collect_garbage()  # g unpinned: reclaimed
        stats = mgr.stats
        assert stats["gc_runs"] == 1
        assert 0.0 < stats["reclaim_ratio_avg"] <= 1.0
