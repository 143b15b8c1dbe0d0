#!/usr/bin/env python
"""Tour of the kernel runtime: the GC trigger and explicit sifting.

Two short acts:

1. the one garbage-collection trigger: a sweep runs once the live count
   reaches ``gc_min_live`` *and* ``gc_growth`` × what the previous sweep
   left, and a sweep never moves either number or the variable order;
2. build Σ x_i·y_i under the *worst* variable order (all ``x`` above all
   ``y`` — exponentially sized) with a low GC floor: the sweeps reclaim
   nothing and the order stays put; one explicit ``sift_now()`` then
   finds the interleaved order in place, and the held edge stays valid.

Solver managers run the default trigger (100 000 live nodes, 2× growth)
and are never sifted, so this tour sets the numbers on managers it
builds itself.

Run:  python examples/adaptive_runtime_tour.py
"""

import sys
from pathlib import Path

try:  # src layout: let `python examples/<name>.py` run without installing
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bdd import BddManager


def act_one_trigger() -> None:
    print("== 1. The GC trigger: a floor and a growth factor ==")
    mgr = BddManager(gc_min_live=10, gc_growth=2.0)
    vs = mgr.add_vars([f"v{i}" for i in range(19)])
    for v in vs[:9]:
        mgr.var_node(v)  # literals: live nodes no sweep reclaims
    live = mgr.stats["live_nodes"]
    assert live == mgr.gc_min_live and mgr.should_collect()
    print(f"  live={live}: should_collect=True (floor {mgr.gc_min_live} reached)")
    mgr.collect_garbage()
    assert not mgr.should_collect()
    print("  after a sweep that reclaimed nothing: should_collect=False")
    for v in vs[9:]:
        mgr.var_node(v)
    live = mgr.stats["live_nodes"]
    print(f"  live={live} (2x the sweep's baseline): should_collect={mgr.should_collect()}")
    assert mgr.should_collect()
    print(f"  floor still {mgr.gc_min_live}, growth still {mgr.gc_growth} ✓")


def act_two_sift() -> None:
    print("== 2. Explicit in-place sifting ==")
    n = 9
    mgr = BddManager(gc_min_live=50, gc_growth=1.05)
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    f = 0
    for x, y in zip(xs, ys):
        new = mgr.apply_or(f, mgr.apply_and(mgr.var_node(x), mgr.var_node(y)))
        mgr.ref(new)
        mgr.deref(f)
        f = new
        mgr.maybe_collect_garbage()  # sweeps reclaim little, never reorder
    stats = mgr.stats
    print(f"  f = Σ x_i·y_i over {2 * n} vars, built blocked (x…, y…)")
    print(
        f"  size(f) = {mgr.size(f)} nodes, gc_runs={stats['gc_runs']}, "
        f"reorders={stats['reorder_runs']}"
    )
    result = mgr.sift_now()
    stats = mgr.stats
    print(
        f"  sift_now(): size(f) = {mgr.size(f)} nodes, "
        f"reorders={stats['reorder_runs']}  swaps={stats['reorder_swaps']}"
    )
    assert stats["reorder_swaps"] == result.swaps > 0
    print(f"  order now interleaved: {mgr.var_order()[:6]} …")
    assert mgr.eval_vars(f, {v: 1 for v in xs + ys})
    assert not mgr.eval_vars(f, {v: 0 for v in xs + ys})
    print("  held edge still evaluates correctly after the sift ✓")


def main() -> None:
    act_one_trigger()
    act_two_sift()
    print("done.")


if __name__ == "__main__":
    main()
