#!/usr/bin/env python
"""Tour of the kernel runtime: the GC trigger and the fixed variable order.

Two short acts:

1. the one garbage-collection trigger: a sweep runs once the live count
   reaches ``gc_min_live`` *and* ``gc_growth`` × what the previous sweep
   left, and a sweep never moves either number or the variable order;
2. build Σ x_i·y_i under the *worst* variable order (all ``x`` above all
   ``y`` — exponentially sized) with a low GC floor: the held result owns
   almost every live node, so a sweep finds next to nothing to reclaim,
   and the order stays put — a manager's order is fixed once it holds
   nodes.
   The remedy is a different order chosen up front: ``transfer`` copies
   the function into a fresh, interleaved manager.

Solver managers run the default trigger (100 000 live nodes, 2× growth),
so this tour sets the numbers on managers it builds itself.

Run:  python examples/adaptive_runtime_tour.py
"""

import sys
from pathlib import Path

try:  # src layout: let `python examples/<name>.py` run without installing
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bdd import BddManager, transfer
from repro.errors import BddError


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


def act_two_bad_order() -> None:
    print("== 2. A bad order: sweeps cannot fix it, and it stays put ==")
    n = 9
    mgr = BddManager(gc_min_live=50, gc_growth=1.05)
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    order = mgr.var_order()
    interleaved = [name for pair in zip(order[:n], order[n:]) for name in pair]
    f = 0
    for x, y in zip(xs, ys):
        new = mgr.apply_or(f, mgr.apply_and(mgr.var_node(x), mgr.var_node(y)))
        mgr.ref(new)
        mgr.deref(f)
        f = new
        mgr.maybe_collect_garbage()  # the held result survives every sweep
    print(f"  f = Σ x_i·y_i over {2 * n} vars, built blocked (x…, y…)")
    print(f"  {mgr.stats['gc_runs']} sweeps while building")
    live = mgr.stats["live_nodes"]
    reclaimed = mgr.collect_garbage()
    print(
        f"  one more sweep: reclaimed {reclaimed} of {live} live nodes; "
        f"size(f) = {mgr.size(f)}"
    )
    assert mgr.stats["gc_runs"] > 1 and reclaimed * 10 < mgr.size(f)
    assert mgr.var_order() == order
    print("  order unchanged by every sweep ✓")
    try:
        mgr.set_order(interleaved)
    except BddError:
        print("  set_order on a manager that holds nodes: refused ✓")
    else:
        raise AssertionError("set_order moved a populated manager's order")
    good = BddManager()
    good.add_vars(interleaved)
    g = transfer(f, mgr, good)
    print(f"  transfer into (x0, y0, x1, y1, …): size = {good.size(g)} nodes")
    assert good.size(g) < mgr.size(f)
    for value in (0, 1):
        assignment = {name: value for name in order}
        assert mgr.eval(f, assignment) == good.eval(g, assignment) == bool(value)
    print("  both copies evaluate alike ✓")


def main() -> None:
    act_one_trigger()
    act_two_bad_order()
    print("done.")


if __name__ == "__main__":
    main()
