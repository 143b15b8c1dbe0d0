#!/usr/bin/env python
"""Tour of the kernel policies: self-tuning GC + dynamic reordering.

Three short acts:

1. build a function under the *worst* variable order (all ``x`` above
   all ``y`` for Σ x_i·y_i — exponentially sized) and watch GC-triggered
   in-place sifting discover the interleaved order mid-build, while the
   held edge stays valid throughout;
2. show the adaptive GC policy backing off after unprofitable sweeps;
3. run a symbolic reachability fixpoint under a blocked (cs…, ns…)
   order on a bare manager, once with reordering off and once with
   ``ReorderPolicy(mode="auto")``, and compare the kernel counters.

The policies are kernel settings: solver managers run the defaults
(static GC, no reordering), so this tour sets them on managers it
builds itself.

Run:  python examples/adaptive_runtime_tour.py
"""

import sys
from pathlib import Path

try:  # src layout: let `python examples/<name>.py` run without installing
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bdd import BddManager, GcPolicy, ReorderPolicy
from repro.bench import circuits
from repro.network.bddbuild import build_network_bdds
from repro.symb.reach import network_reachable_states


def act_one_reorder() -> None:
    print("== 1. GC-triggered in-place reordering ==")
    n = 9
    mgr = BddManager(
        gc_policy=GcPolicy(mode="adaptive", min_live=50, growth=1.05),
        reorder_policy=ReorderPolicy(
            mode="auto", min_live=0, window=1, reclaim_threshold=0.3
        ),
    )
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    f = 0
    for x, y in zip(xs, ys):
        new = mgr.apply_or(f, mgr.apply_and(mgr.var_node(x), mgr.var_node(y)))
        mgr.ref(new)
        mgr.deref(f)
        f = new
        mgr.maybe_collect_garbage()  # the policies live on this path
    stats = mgr.stats
    print(f"  f = Σ x_i·y_i over {2 * n} vars, built blocked (x…, y…)")
    print(f"  final size(f) = {mgr.size(f)} nodes (blocked order needs ~2^{n})")
    print(
        f"  peak_live={stats['peak_live_nodes']}  gc_runs={stats['gc_runs']}  "
        f"reorders={stats['reorder_runs']}  swaps={stats['reorder_swaps']}"
    )
    print(f"  order now interleaved: {mgr.var_order()[:6]} …")
    assert mgr.eval_vars(f, {v: 1 for v in xs + ys})
    assert not mgr.eval_vars(f, {v: 0 for v in xs + ys})
    print("  held edge still evaluates correctly after every reorder ✓")


def act_two_adaptive_gc() -> None:
    print("== 2. Self-tuning garbage collection ==")
    mgr = BddManager(
        gc_policy=GcPolicy(mode="adaptive", min_live=8, growth=1.0, window=2)
    )
    mgr.add_vars([f"v{i}" for i in range(6)])
    g = 1
    for i in range(6):
        g = mgr.ref(mgr.apply_and(g, mgr.var_node(i)))  # pin everything
    print(f"  floor before: {mgr.gc_policy.floor} nodes, everything pinned")
    mgr.collect_garbage()
    mgr.collect_garbage()  # two sweeps reclaiming nothing → back-off
    print(
        f"  after 2 unprofitable sweeps: floor={mgr.gc_policy.floor}, "
        f"should_collect={mgr.should_collect()} (suppressed until real growth)"
    )


def _blocked_reach(n: int, reorder_mode: str) -> tuple[int, dict]:
    net = circuits.gray_counter(n)
    mgr = BddManager(
        gc_policy=GcPolicy(mode="adaptive", min_live=200, growth=1.2),
        reorder_policy=ReorderPolicy(
            mode=reorder_mode, min_live=0, window=1, reclaim_threshold=0.5
        ),
    )
    input_vars = {name: mgr.add_var(name) for name in net.inputs}
    cs = {name: mgr.add_var(name) for name in net.latches}
    ns = {name: mgr.add_var(f"{name}'") for name in net.latches}  # blocked
    bdds = build_network_bdds(net, mgr, input_vars, cs)
    result = network_reachable_states(bdds, ns_vars=ns)
    return result.state_count, mgr.stats


def act_three_reachability() -> None:
    print("== 3. Both policies on a reachability fixpoint ==")
    n = 9
    for mode in ("off", "auto"):
        states, stats = _blocked_reach(n, mode)
        print(
            f"  reorder={mode:4s} states={states}  "
            f"peak_live={stats['peak_live_nodes']}  gc_runs={stats['gc_runs']}  "
            f"reorders={stats['reorder_runs']}"
        )
        assert states == 2**n
    print("  same reached set under both policies ✓")


def main() -> None:
    act_one_reorder()
    act_two_adaptive_gc()
    act_three_reachability()
    print("done.")


if __name__ == "__main__":
    main()
