"""Machine-readable benchmark driver: the repo's recorded perf trajectory.

Runs the BDD-kernel microbenchmarks and the Table 1 solver benchmarks and
writes two JSON artifacts (wall time, peak live node count, computed-table
hit rate, GC activity per workload).  Invoke through the console script::

    repro bench                                 # full run
    repro bench --smoke                         # fast CI variant
    repro bench --only table1                   # the paper's Table 1
    repro bench --list                          # list workloads, run nothing
    repro bench --baseline BENCH_kernel.json --tolerance 1.4

Outputs (written to ``--out-dir``, default: the repository root):

* ``BENCH_kernel.json``  — kernel workloads (apply/quantify/rename/GC)
* ``BENCH_table1.json``  — end-to-end solver runs over the Table 1 cases
* ``BENCH_diff.md``      — with ``--baseline``: a markdown diff table of
  **all** workloads vs the baseline (CI appends it to the job summary)

A run that records Table 1 rows also prints them in the paper's columns
(:func:`render_table1`), with ``CNC`` where a flow hit its budget.

With ``--baseline`` the kernel results are compared against a previous
``BENCH_kernel.json``; any workload slower than ``tolerance ×`` the
median slowdown fails the run (exit code 1) — the benchmark-regression
gate used by CI.
"""

from __future__ import annotations

import argparse
import fnmatch
import gc
import json
import os
import platform
import subprocess
import sys
import time
from collections.abc import Callable, Mapping
from dataclasses import replace
from functools import partial
from pathlib import Path

from repro._version import __version__
from repro.bdd.manager import BddManager
from repro.bdd.policy import GcPolicy, ReorderPolicy
from repro.bench import circuits
from repro.bench.suite import SplitCase
from repro.eqn.config import (
    BENCH_COLUMNS,
    BENCH_FLAGS,
    DEFAULT,
    SolveConfig,
    add_config_flags,
)
from repro.network.bddbuild import build_network_bdds
from repro.obs.trace import current_tracer, install_tracer, uninstall_tracer
from repro.symb.reach import network_reachable_states
from repro.util.tables import format_table

REPO_ROOT = Path(__file__).resolve().parents[3]

SCHEMA_KERNEL = "repro-bench-kernel/4"
SCHEMA_TABLE1 = "repro-bench-table1/9"

#: Table 1 variant rows, declared once as data: ``(suffix, cases,
#: config overrides)``.  A full run records each listed case again as
#: ``<case><suffix>`` under the run's config with the overrides merged
#: in; ``table1_row_names``, ``run_table1_bench`` and ``list_workloads``
#: all walk this table.  A variant is skipped when the run itself
#: already sets its first overridden field (an interleaved run covers
#: the ``@interleave`` rows, a ``--backend buddy`` run the ``@buddy``
#: ones), and a ``@buddy`` row is planned only where the native library
#: loads (never measured on the silent fallback under a ``buddy``
#: label).  ``@batch8`` appears twice so that the suite rows precede the
#: ``@interleave`` row in the artifact.  The adaptive GC and reorder
#: policies are priced by the kernel pairs (``*_reorder``,
#: ``gc_reachability``) rather than by Table 1 variants: the partitioned
#: solves of the Table 1 cases stay below the collection floor, so an
#: adaptive twin of a row repeats its base row's work.
#:
#: * ``@shards2`` — the sharded runtime; read wall-clock deltas together
#:   with ``meta.cpu_count`` (on one core the workers time-slice).
#: * ``@batch8`` — BFS frontier, batches of 8: the sibling grouping that
#:   makes the incremental completion memo pay.
#: * ``@interleave`` — the per-latch ``F.cs/F.ns/S.cs/S.ns`` product
#:   order; byte-identical results, only node counts and wall differ.
#:   On the committed artifact (one run per row) twin16x4@batch8 takes
#:   1.09 s stacked and 1.17 s interleaved, twin12_8 8.7 s and 11.8 s.
#: * ``@budget`` — the ``@batch8`` engine with the resident ψ set capped
#:   far below the twin rings' unbounded peak, so the row prices real
#:   spills/reloads against byte-identical results.
#: * ``@compose`` — cases whose restricted U alphabet leaves a
#:   conforming letter-free component, solved via the decomposition.
#: * ``@buddy`` — the native BuDDy kernel, only where it loads.
BATCH8 = {"frontier": "bfs", "batch": 8}
VARIANTS = (
    ("@shards2", ("johnson12",), {"shards": 2}),
    ("@batch8", ("johnson12", "rand20"), BATCH8),
    ("@interleave", ("johnson12",), {"product_order": "interleaved"}),
    ("@batch8", ("twin16x4", "twin12_8"), BATCH8),
    (
        "@interleave+batch8",
        ("twin16x4", "twin12_8"),
        {"product_order": "interleaved", **BATCH8},
    ),
    ("@budget", ("twin16x4",), {**BATCH8, "resident_budget": 2_048}),
    ("@compose", ("twin20_4",), {"compose": True}),
    ("@buddy", ("s27", "johnson8"), {"backend": "buddy"}),
)


# --------------------------------------------------------------------- #
# Kernel workloads
# --------------------------------------------------------------------- #


def wl_and_or_chain(n: int) -> BddManager:
    """Monotone conjunction chain (the classic apply benchmark)."""
    mgr = BddManager()
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    f = 1
    for x, y in zip(xs, ys):
        f = mgr.apply_and(f, mgr.apply_or(mgr.var_node(x), mgr.var_node(y)))
    return mgr


def wl_xor_parity(n: int) -> BddManager:
    """Parity chain — linear with complement edges."""
    mgr = BddManager()
    vs = mgr.add_vars([f"x{i}" for i in range(2 * n)])
    f = 0
    for v in vs:
        f = mgr.apply_xor(f, mgr.var_node(v))
    return mgr


def wl_equality_and_exists(n: int) -> BddManager:
    """∃x . (x ≡ y) ∧ g(x): the shape of every image step."""
    mgr = BddManager()
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    eq = 1
    for x, y in zip(xs, ys):
        eq = mgr.apply_and(eq, mgr.apply_iff(mgr.var_node(x), mgr.var_node(y)))
    g = 1
    for x in xs[::2]:
        g = mgr.apply_and(g, mgr.var_node(x))
    mgr.and_exists(eq, g, xs)
    return mgr


def wl_iff_conformance_rebuild(n: int) -> BddManager:
    """Conformance-part shape: iff chains + negation, rebuilt cold.

    Mirrors how the solvers form ``ns_k ≡ T_k`` partitions and ``¬C_j``
    conformance complements; cold caches per round make the negation cost
    visible (O(1) with complement edges).
    """
    mgr = BddManager()
    xs = mgr.add_vars([f"x{i}" for i in range(n)])
    ys = mgr.add_vars([f"y{i}" for i in range(n)])
    out = 0
    for _ in range(6):
        mgr.clear_caches()
        eq = 1
        for x, y in zip(xs, ys):
            eq = mgr.apply_and(eq, mgr.apply_iff(mgr.var_node(x), mgr.var_node(y)))
        out = mgr.apply_not(eq)
    assert out != 0
    return mgr


def wl_frontier_diff_loop(n: int) -> BddManager:
    """Reached/frontier churn: or + diff, the reachability inner loop."""
    mgr = BddManager()
    xs = mgr.add_vars([f"x{i}" for i in range(2 * n)])
    reached = mgr.var_node(xs[0])
    for step in range(10 * n):
        nxt = reached
        lit = mgr.var_node(xs[1 + step % (2 * n - 1)])
        nxt = mgr.apply_or(nxt, mgr.apply_and(lit, mgr.apply_not(reached)))
        frontier = mgr.apply_diff(nxt, reached)
        reached = mgr.apply_or(reached, frontier)
    return mgr


def wl_rename(n: int) -> BddManager:
    """Order-preserving ns -> cs rename (fast structural path)."""
    mgr = BddManager()
    pairs = []
    for i in range(n):
        cs = mgr.add_var(f"cs{i}")
        ns = mgr.add_var(f"ns{i}")
        pairs.append((cs, ns))
    f = 1
    for cs, ns in pairs[: n // 2]:
        f = mgr.apply_and(f, mgr.apply_or(mgr.var_node(ns), 0))
    rename = {ns: cs for cs, ns in pairs}
    for _ in range(50):
        mgr.clear_caches()
        mgr.rename(f, rename)
    return mgr


def wl_gc_reachability(n: int) -> BddManager:
    """Symbolic reachability with GC wired into the fixpoint.

    The manager is configured with a low collection floor so the garbage
    collector actually runs; the recorded ``gc_runs``/``gc_reclaimed``
    stats prove node reclamation keeps the fixpoint bounded.
    """
    net = circuits.counter(n)
    mgr = BddManager(gc_min_live=1_000, gc_growth=1.5)
    input_vars = {name: mgr.add_var(name) for name in net.inputs}
    cs, ns = {}, {}
    for name in net.latches:
        cs[name] = mgr.add_var(name)
        ns[name] = mgr.add_var(f"{name}'")
    bdds = build_network_bdds(net, mgr, input_vars, cs)
    result = network_reachable_states(bdds, ns_vars=ns)
    assert result.state_count == 2**n
    return mgr


def wl_deep_chain(n: int) -> BddManager:
    """Deep-BDD stress: an ``n``-variable conjunction chain run on the
    iterative explicit-frame core.

    ``n`` exceeds any sane recursion limit, so this workload only exists
    because the kernel is recursion-free on deep managers; it tracks the
    constant factor of the iterative core (build + quantify + xor).
    """
    mgr = BddManager(apply_core="iterative")
    vs = mgr.add_vars([f"x{i}" for i in range(n)])
    f = 1
    for v in reversed(vs):  # bottom-up fold: O(1) nodes per step
        f = mgr.apply_and(mgr.var_node(v), f)
    assert mgr.size(f) == n
    mgr.exists(f, vs[: n // 2])
    g = 0
    for v in reversed(vs[: n // 4]):
        g = mgr.apply_xor(mgr.var_node(v), g)
    mgr.and_exists(f, g, vs[: n // 8])
    return mgr


def _misordered_product(n: int, reorder_mode: str) -> BddManager:
    """Σ x_i·y_i built under the worst (blocked) order.

    With all ``x`` above all ``y`` this function needs ~2^n nodes; the
    interleaved order needs ~3n.  The manager runs adaptive GC with a
    low floor, so collections fire during construction, reclaim almost
    nothing (the partial result is pinned and owns nearly every node),
    and — with ``reorder_mode != "off"`` — the reorder policy answers the
    unprofitable sweeps with an in-place sift that discovers the
    interleaving mid-build.  Comparing the recorded ``peak_live_nodes``
    of the ``off`` and ``auto`` variants is the headline number for
    GC-triggered dynamic reordering.
    """
    mgr = BddManager(
        gc_policy=GcPolicy(mode="adaptive", min_live=50, growth=1.05),
        reorder_policy=ReorderPolicy(
            mode=reorder_mode,
            min_live=0,
            window=1,
            cooldown_growth=1.3,
            reclaim_threshold=0.3,
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
        mgr.maybe_collect_garbage()
    return mgr


def wl_misordered_product(n: int) -> BddManager:
    return _misordered_product(n, "off")


def wl_misordered_product_reorder(n: int) -> BddManager:
    return _misordered_product(n, "auto")


def _reach_blocked(n: int, reorder_mode: str) -> BddManager:
    """Gray-counter reachability under a blocked (cs…, ns…) order.

    The deliberately bad order — all current-state variables above all
    next-state variables instead of interleaved — inflates every image
    step.  The ``_reorder`` variant lets unprofitable collections
    trigger in-place sifting mid-fixpoint (pinned relation parts,
    reached set and frontier all keep their edges across the reorder).
    """
    net = circuits.gray_counter(n)
    mgr = BddManager(
        gc_policy=GcPolicy(mode="adaptive", min_live=200, growth=1.2),
        reorder_policy=ReorderPolicy(
            mode=reorder_mode, min_live=0, window=1, reclaim_threshold=0.5
        ),
    )
    input_vars = {name: mgr.add_var(name) for name in net.inputs}
    cs = {name: mgr.add_var(name) for name in net.latches}
    ns = {name: mgr.add_var(f"{name}'") for name in net.latches}
    bdds = build_network_bdds(net, mgr, input_vars, cs)
    result = network_reachable_states(bdds, ns_vars=ns)
    assert result.state_count == 2**n
    return mgr


def wl_reach_blocked(n: int) -> BddManager:
    return _reach_blocked(n, "off")


def wl_reach_blocked_reorder(n: int) -> BddManager:
    return _reach_blocked(n, "auto")


def _reach_sharded(n: int, shards: int) -> BddManager:
    """Random-logic reachability, optionally on the sharded runtime.

    Few iterations with heavy image steps — the shape where shipping
    frontier slices to worker processes amortises best.  ``shards=1`` is
    the in-process reference; compare the ``@shards2`` row against it
    *together with* the recorded ``meta.cpu_count`` (single-core runners
    pay the full transfer + duplication overhead with nothing to
    overlap; the win needs real cores).
    """
    net = circuits.random_network(4, n, 4, seed=5, n_nodes=110)
    mgr = BddManager()
    input_vars = {name: mgr.add_var(name) for name in net.inputs}
    cs = {name: mgr.add_var(name) for name in net.latches}
    ns = {name: mgr.add_var(f"{name}'") for name in net.latches}
    bdds = build_network_bdds(net, mgr, input_vars, cs)
    result = network_reachable_states(bdds, ns_vars=ns, shards=shards)
    assert result.state_count > 0
    return mgr


def wl_reach_shards1(n: int) -> BddManager:
    return _reach_sharded(n, 1)


def wl_reach_shards2(n: int) -> BddManager:
    return _reach_sharded(n, 2)


def _indep_images(n: int, shards: int) -> BddManager:
    """A round of independent image computations, dealt across shards.

    Mirrors the partitioned oracle's per-output ``Q_ψ`` images: several
    *complete* images of different constraints against the same relation
    — embarrassingly parallel, so the sharded variant's only overhead is
    the snapshot traffic.  This is the best case for multi-core scaling
    (each shard owns the full relation and serves whole images).  The
    sharded variant speaks the oracle's protocol: each shard ``retain``s
    its constraints, images them in one ``expand_batch`` and
    ``release``s them.
    """
    from repro.symb.image import image_with_plan, plan_image
    from repro.symb.relation import transition_relation

    net = circuits.random_network(3, n, 3, seed=13, n_nodes=100)
    mgr = BddManager()
    input_vars = {name: mgr.add_var(name) for name in net.inputs}
    cs = {name: mgr.add_var(name) for name in net.latches}
    ns = {name: mgr.add_var(f"{name}'") for name in net.latches}
    bdds = build_network_bdds(net, mgr, input_vars, cs)
    relation = transition_relation(
        mgr, bdds.next_state, ns, order=list(net.latches)
    )
    parts = list(relation)
    quantify = [*input_vars.values(), *cs.values()]
    cs_vars = list(cs.values())
    # One constraint per latch: the reachable wave from "that latch set".
    constraints = [
        mgr.apply_and(bdds.init_cube ^ 1, mgr.var_node(v)) for v in cs_vars
    ]
    constraints = [c for c in constraints if c != 0] or [bdds.init_cube]
    out = 0
    if shards <= 1:
        plan = plan_image(mgr, parts, quantify, set(cs_vars))
        for c in constraints:
            out = mgr.apply_or(out, image_with_plan(mgr, plan, c))
    else:
        from repro.bdd.io import dump_nodes, load_nodes
        from repro.shard import ShardPool
        from repro.shard.plan import load_parts, make_plan

        with ShardPool(shards, mgr.var_order()) as pool:
            dealt: list[list[int]] = [[] for _ in range(pool.num_shards)]
            for k in range(pool.num_shards):
                plan_id = make_plan(
                    pool, k, mgr, load_parts(pool, k, mgr, parts), quantify, cs_vars
                )
                handles = dealt[k]
                for c in constraints[k :: pool.num_shards]:
                    handles.append(pool.new_handle())
                    pool.submit(k, ("retain", handles[-1], dump_nodes(mgr, [c])))
                pool.submit(k, ("expand_batch", plan_id, handles))
                pool.submit(k, ("release", handles))
            for k, handles in enumerate(dealt):
                for _ in handles:
                    pool.collect(k)
                for snap in pool.collect(k):
                    (img,) = load_nodes(mgr, snap)
                    out = mgr.apply_or(out, img)
                pool.collect(k)
    assert out != 0
    return mgr


def wl_indep_images_shards1(n: int) -> BddManager:
    return _indep_images(n, 1)


def wl_indep_images_shards2(n: int) -> BddManager:
    return _indep_images(n, 2)


def _solve_johnson(n: int, config: SolveConfig) -> BddManager:
    """A partitioned Johnson-counter solve under ``config``.

    The ``solve@*`` rows share one instance and differ only in config:
    the ``@batch1``/``@batch8`` pair isolates the cost/benefit of
    batching (and the BFS sibling grouping that makes the completion
    memo hit); ``@interleave`` and ``@buddy`` run the ``@batch1`` solve
    under the interleaved product order and on the native kernel.
    """
    from repro.eqn.problem import build_latch_split_problem
    from repro.eqn.solver import solve_equation

    x_latches = [f"j{k}" for k in range(1, n, 2)]
    problem = build_latch_split_problem(circuits.johnson(n), x_latches, config)
    result = solve_equation(problem, config)
    assert result.csf_states > 0
    return problem.manager


def _solve_workload(**overrides) -> Callable[[int], BddManager]:
    return partial(_solve_johnson, config=SolveConfig(frontier="bfs", **overrides))


KERNEL_WORKLOADS = [
    # (name, fn, full_size, smoke_size)
    ("and_or_chain", wl_and_or_chain, 14, 8),
    ("xor_parity", wl_xor_parity, 14, 8),
    ("equality_and_exists", wl_equality_and_exists, 14, 8),
    ("iff_conformance_rebuild", wl_iff_conformance_rebuild, 12, 7),
    ("frontier_diff_loop", wl_frontier_diff_loop, 10, 5),
    ("rename", wl_rename, 12, 8),
    ("gc_reachability", wl_gc_reachability, 10, 5),
    ("deep_chain", wl_deep_chain, 4000, 1500),
    ("misordered_product", wl_misordered_product, 12, 7),
    ("misordered_product_reorder", wl_misordered_product_reorder, 12, 7),
    ("reach_blocked_order", wl_reach_blocked, 9, 8),
    ("reach_blocked_order_reorder", wl_reach_blocked_reorder, 9, 8),
    # Sharded-runtime pairs: compare each @shards2 row against its
    # @shards1 twin *and* the recorded meta.cpu_count.
    ("reach@shards1", wl_reach_shards1, 18, 12),
    ("reach@shards2", wl_reach_shards2, 18, 12),
    ("indep_images@shards1", wl_indep_images_shards1, 16, 10),
    ("indep_images@shards2", wl_indep_images_shards2, 16, 10),
    # Frontier-batched subset-engine pair: same solve, batch sizes 1/8.
    ("solve@batch1", _solve_workload(), 10, 8),
    ("solve@batch8", _solve_workload(batch=8), 10, 8),
    # Product-order pair: the @batch1 solve under the interleaved
    # product order (identical result bytes; ordering cost only).
    ("solve@interleave", _solve_workload(product_order="interleaved"), 10, 8),
    # Backend pair: the @batch1 solve on the native BuDDy kernel.  Runs
    # only where the shared library loads (see _workload_available);
    # elsewhere the row is skipped, never silently measured on the
    # pure-Python fallback.
    ("solve@buddy", _solve_workload(backend="buddy"), 10, 8),
]


def _phase_breakdown(start: int) -> dict | None:
    """Aggregate tracer spans since event index ``start`` into seconds.

    Returns ``None`` when no tracer is installed (the row then carries
    no ``phases`` key).  Worker-relayed ``shard:*`` spans run
    concurrently with coordinator spans, so the totals are per-phase
    sums, not a partition of wall time.
    """
    tracer = current_tracer()
    if tracer is None:
        return None
    totals: dict[str, float] = {}
    for event in tracer.events(start):
        if event.get("ph") == "X":
            name = event["name"]
            totals[name] = totals.get(name, 0.0) + event["dur"] / 1e6
    return {name: round(secs, 6) for name, secs in sorted(totals.items())}


def _trace_mark() -> int:
    """Current tracer event index (0 when tracing is off)."""
    tracer = current_tracer()
    return len(tracer) if tracer is not None else 0


def _workload_available(name: str) -> bool:
    """Whether a kernel workload can run *honestly* on this machine.

    ``@buddy`` rows require the native library: the registry would fall
    back to pure Python with a warning, and a row labelled ``buddy``
    that measured the reference kernel would poison every baseline
    comparison downstream.
    """
    if name.endswith("@buddy"):
        from repro.bdd.backends import backend_available

        return backend_available("buddy")
    return True


def make_workload_filter(
    only: str | None = None, skip: str | None = None
) -> Callable[[str, str], bool]:
    """Build an ``accept(suite, name)`` predicate from glob patterns.

    ``only`` and ``skip`` are comma-separated shell-style globs matched
    (case-sensitively) against the full ``suite/name`` path, the bare
    workload ``name`` and the bare ``suite`` name — so ``--only kernel``
    keeps a whole suite, ``--only 'table1/rand*'`` or ``--only 'rand*'``
    a family, and ``--skip '*@shards*'`` drops the sharded variants
    everywhere.  An empty/None ``only`` accepts everything; ``skip``
    wins over ``only``.
    """

    def patterns(spec: str | None) -> list[str]:
        return [p for p in (spec or "").split(",") if p]

    only_pats = patterns(only)
    skip_pats = patterns(skip)

    def matches(pats: list[str], suite: str, name: str) -> bool:
        full = f"{suite}/{name}"
        return any(
            fnmatch.fnmatchcase(full, pat)
            or fnmatch.fnmatchcase(name, pat)
            or fnmatch.fnmatchcase(suite, pat)
            for pat in pats
        )

    def accept(suite: str, name: str) -> bool:
        if only_pats and not matches(only_pats, suite, name):
            return False
        return not (skip_pats and matches(skip_pats, suite, name))

    return accept


def _accept_all(_suite: str, _name: str) -> bool:
    return True


def run_kernel(
    smoke: bool,
    repeats: int,
    select: Callable[[str, str], bool] = _accept_all,
) -> list[dict]:
    results = []
    for name, fn, full_n, smoke_n in KERNEL_WORKLOADS:
        if not select("kernel", name):
            continue
        if not _workload_available(name):
            print(
                f"  kernel/{name:28s} skipped (backend unavailable)",
                flush=True,
            )
            continue
        n = smoke_n if smoke else full_n
        best = None
        stats: dict = {}
        hit_rate = 0.0
        backend = "python"
        trace_start = _trace_mark()
        for _ in range(repeats):
            gc.collect()
            t0 = time.perf_counter()
            mgr = fn(n)
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
                stats = mgr.stats
                hit_rate = mgr.cache_hit_rate()
                backend = getattr(mgr, "backend_name", "python")
        phases = _phase_breakdown(trace_start)
        results.append(
            {
                "name": name,
                "backend": backend,
                "size": n,
                "wall_s": round(best, 6),
                **({"phases": phases} if phases is not None else {}),
                "peak_live_nodes": stats.get("peak_live_nodes", 0),
                "live_nodes": stats.get("live_nodes", 0),
                "cache_hit_rate": round(hit_rate, 4),
                "cache_hits": stats.get("cache_hits", 0),
                "cache_misses": stats.get("cache_misses", 0),
                "gc_runs": stats.get("gc_runs", 0),
                "gc_reclaimed": stats.get("gc_reclaimed", 0),
                "reclaim_ratio_avg": round(stats.get("reclaim_ratio_avg", 1.0), 4),
                "reorder_runs": stats.get("reorder_runs", 0),
                "reorder_swaps": stats.get("reorder_swaps", 0),
            }
        )
        print(
            f"  kernel/{name:28s} n={n:4d} {best * 1e3:9.2f} ms  "
            f"peak={stats.get('peak_live_nodes', 0):8d}  "
            f"hit_rate={hit_rate:.2f}  gc_runs={stats.get('gc_runs', 0)}  "
            f"reorders={stats.get('reorder_runs', 0)} "
            f"swaps={stats.get('reorder_swaps', 0)}",
            flush=True,
        )
    return results


# --------------------------------------------------------------------- #
# Table 1 (solver) benchmarks
# --------------------------------------------------------------------- #


def _run_table1_case(case, config: SolveConfig, row_name: str) -> dict:
    from repro.eqn.problem import build_latch_split_problem
    from repro.eqn.solver import solve_equation
    from repro.errors import ReproError
    from repro.serve.keys import solve_cache_key
    from repro.util.limits import ResourceLimit

    net = case.network()
    u_signals = list(case.u_signals) if case.u_signals else None
    row: dict = {
        "name": row_name,
        "io_cs": net.stats(),
        "paper_row": case.paper_row,
        **{name: getattr(config, name) for name in BENCH_COLUMNS},
        "methods": {},
    }
    # Only the partitioned flow shards, spills, and composes; those
    # variant rows skip the monolithic baseline (on the budget/compose
    # cases it is an expected CNC anyway — burning the whole time budget
    # to record a foregone conclusion).
    partitioned_only = (
        config.shards > 1 or config.resident_budget is not None or config.compose
    )
    methods = ("partitioned",) if partitioned_only else ("partitioned", "monolithic")
    for method in methods:
        method_config = replace(config, method=method)
        # The same canonical problem hash the serve cache keys on: a row
        # and a served solve of the identical (circuit, split, config)
        # combination carry the same key, making cached-vs-cold latency
        # comparisons attributable row by row.  Excluded fields (the
        # backend, the resident budget) never reach the hash: a @buddy
        # row and its base row carry the same key.
        key = solve_cache_key(
            net, list(case.x_latches), u_signals=u_signals, config=method_config
        )
        limit = ResourceLimit(max_seconds=case.max_seconds, max_nodes=case.max_nodes)
        gc.collect()
        trace_start = _trace_mark()
        t0 = time.perf_counter()
        try:
            problem = build_latch_split_problem(
                net,
                list(case.x_latches),
                method_config,
                u_signals=u_signals,
                max_nodes=case.max_nodes,
            )
            result = solve_equation(problem, method_config, limit=limit)
        except ReproError:
            row["methods"][method] = {"cnc": True, "cache_key": key}
            print(f"  table1/{row_name:14s} {method:12s} CNC", flush=True)
            continue
        elapsed = time.perf_counter() - t0
        mgr_stats = problem.manager.stats
        phases = _phase_breakdown(trace_start)
        row["methods"][method] = {
            "cnc": False,
            "cache_key": key,
            "wall_s": round(elapsed, 4),
            **({"phases": phases} if phases is not None else {}),
            "csf_states": result.csf_states,
            **result.stats.bench_columns(),
            "peak_live_nodes": mgr_stats["peak_live_nodes"],
            "cache_hit_rate": round(problem.manager.cache_hit_rate(), 4),
            "gc_runs": mgr_stats["gc_runs"],
            "reclaim_ratio_avg": round(mgr_stats["reclaim_ratio_avg"], 4),
            "reorder_runs": mgr_stats["reorder_runs"],
            "reorder_swaps": mgr_stats["reorder_swaps"],
        }
        print(
            f"  table1/{row_name:14s} {method:12s} {elapsed * 1e3:9.1f} ms  "
            f"states={result.csf_states}  "
            f"peak={mgr_stats['peak_live_nodes']}",
            flush=True,
        )
    part = row["methods"].get("partitioned", {})
    mono = row["methods"].get("monolithic", {})
    if not part.get("cnc", True) and not mono.get("cnc", True):
        if part["csf_states"] != mono["csf_states"]:
            raise ReproError(
                f"table1/{row_name}: flows disagree ({part['csf_states']} "
                f"partitioned vs {mono['csf_states']} monolithic CSF states)"
            )
        row["ratio_mono_over_part"] = round(mono["wall_s"] / part["wall_s"], 2)
    return row


def _table1_base_cases(smoke: bool) -> list:
    from repro.bench.suite import TABLE1_CASES

    if not smoke:
        return list(TABLE1_CASES)
    return [c for c in TABLE1_CASES if not c.expect_mono_cnc][:3]


def plan_table1(smoke: bool, run: SolveConfig = DEFAULT) -> list[tuple]:
    """Every ``(row name, case, config)`` a run with this config records.

    The one planner behind :func:`table1_row_names` (which the
    ``--only``/``--skip`` nothing-matched guard checks against) and
    :func:`run_table1_bench`: a variant row that a smoke run (or a run
    that already sets the variant's field) suppresses is never
    selectable, so a filtered run cannot write an empty artifact with a
    success exit code.
    """
    from repro.bdd.backends import backend_available
    from repro.bench.suite import (
        TABLE1_BENCH_ONLY_CASES,
        TABLE1_CASES,
        TABLE1_COMPOSE_CASES,
    )

    rows = [(case.name, case, run) for case in _table1_base_cases(smoke)]
    if smoke:
        return rows
    cases = {
        case.name: case
        for case in (*TABLE1_CASES, *TABLE1_BENCH_ONLY_CASES, *TABLE1_COMPOSE_CASES)
    }
    for suffix, names, overrides in VARIANTS:
        headline = next(iter(overrides))
        if getattr(run, headline) != getattr(DEFAULT, headline):
            continue
        config = replace(run, **overrides)
        if "backend" in overrides and not backend_available(config.backend):
            continue
        rows += [(f"{name}{suffix}", cases[name], config) for name in names]
    return rows


def table1_row_names(smoke: bool, **run) -> list[str]:
    """Every row name a run with these config fields would emit."""
    return [name for name, _, _ in plan_table1(smoke, SolveConfig(**run))]


def run_table1_bench(
    smoke: bool,
    run: SolveConfig = DEFAULT,
    select: Callable[[str, str], bool] = _accept_all,
) -> list[dict]:
    return [
        _run_table1_case(case, config, name)
        for name, case, config in plan_table1(smoke, run)
        if select("table1", name)
    ]


TABLE1_HEADERS = ["Name", "i/o/cs", "Fcs/Xcs", "States(X)", "Part,s", "Mono,s", "Ratio"]


def render_table1(rows: list[dict], cases: Mapping[str, SplitCase]) -> str:
    """Recorded Table 1 rows in the paper's columns.

    ``cases`` maps each row name to its planned case, which supplies the
    ``Fcs/Xcs`` split.  A flow that hit its budget reads ``CNC``, as in
    the paper; a flow the row does not run reads ``-``.
    """

    def time_cell(flow: dict | None) -> str:
        if flow is None:
            return "-"
        return "CNC" if flow["cnc"] else f"{flow['wall_s']:.2f}"

    cells = []
    for row in rows:
        part = row["methods"].get("partitioned")
        mono = row["methods"].get("monolithic")
        done = [flow for flow in (part, mono) if flow is not None and not flow["cnc"]]
        xcs = len(cases[row["name"]].x_latches)
        fcs = int(row["io_cs"].rsplit("/", 1)[1]) - xcs
        ratio = row.get("ratio_mono_over_part")
        cells.append(
            [
                row["name"],
                row["io_cs"],
                f"{fcs}/{xcs}",
                done[0]["csf_states"] if done else "CNC",
                time_cell(part),
                time_cell(mono),
                f"{ratio:.1f}" if ratio is not None else "-",
            ]
        )
    return format_table(TABLE1_HEADERS, cells)


# --------------------------------------------------------------------- #
# Workload listing (``repro bench --list``)
# --------------------------------------------------------------------- #


def list_workloads(
    select: Callable[[str, str], bool] = _accept_all,
) -> str:
    """Human-readable listing of every workload and variant, unrun.

    ``repro bench --list`` prints this: kernel workloads with their full
    and smoke sizes, Table 1 cases with their :data:`VARIANTS`
    rows, and the bench-only and compose cases, which exist only as
    variant rows.  ``select`` (built from ``--only``/``--skip``)
    restricts the listing the same way it restricts a run.
    """
    from repro.bench.suite import (
        TABLE1_BENCH_ONLY_CASES,
        TABLE1_CASES,
        TABLE1_COMPOSE_CASES,
    )

    def variants(name: str) -> list[str]:
        return [f"{name}{suffix}" for suffix, names, _ in VARIANTS if name in names]

    lines = ["kernel workloads (name, full n, smoke n):"]
    for name, _fn, full_n, smoke_n in KERNEL_WORKLOADS:
        if not select("kernel", name):
            continue
        lines.append(f"  kernel/{name:28s} n={full_n:<5d} smoke n={smoke_n}")
    lines.append("")
    lines.append("table1 cases (solver, partitioned vs monolithic):")
    for case in TABLE1_CASES:
        if not select("table1", case.name):
            continue
        rows = variants(case.name)
        suffix = f"  (+ variants: {', '.join(rows)})" if rows else ""
        cnc = "  [mono expected CNC]" if case.expect_mono_cnc else ""
        lines.append(f"  table1/{case.name:14s} {case.paper_row}{cnc}{suffix}")
    for case in (*TABLE1_BENCH_ONLY_CASES, *TABLE1_COMPOSE_CASES):
        tag = "[compose row]" if case in TABLE1_COMPOSE_CASES else "[bench-only row]"
        for row_name in variants(case.name):
            if select("table1", row_name):
                lines.append(f"  table1/{row_name:24s} {case.paper_row}  {tag}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Baseline comparison / the markdown diff table
# --------------------------------------------------------------------- #


def compare_to_baseline(results: list[dict], baseline: dict) -> list[dict]:
    """Per-workload comparison rows against a parsed baseline payload.

    Each row carries the raw ratio and the **median-normalised** ratio:
    the baseline may come from different hardware (the committed smoke
    baseline comes from a dev box; CI runners are slower and noisy), and
    a uniformly slower machine scales every workload alike, so only the
    spread around the median slowdown signals a real regression.
    Sub-millisecond baseline entries are noise-floored (excluded from
    the median and never failed).  A row whose BDD backend differs from
    the baseline's (rows without a recorded backend count as the
    pure-Python reference) is likewise excluded: a kernel swap is an
    environment change, not a code regression.  Sharded (``@shardsN``)
    rows where one side of the comparison ran on a single-core machine
    (``meta.cpu_count == 1``) and the other did not are marked
    ``env-limited`` and excluded too: on one core the worker processes
    time-slice and the transfer overhead dominates, so the ratio
    measures the machine, not the code.
    """
    old = {r["name"]: r for r in baseline.get("results", [])}
    base_cpus = baseline.get("meta", {}).get("cpu_count")
    cur_cpus = os.cpu_count()
    shards_env_limited = (
        base_cpus is not None
        and cur_cpus is not None
        and base_cpus != cur_cpus
        and min(base_cpus, cur_cpus) == 1
    )
    rows: list[dict] = []
    ratios: dict[str, float] = {}
    for r in results:
        base = old.get(r["name"])
        row = {
            "name": r["name"],
            "size": r["size"],
            "wall_s": r["wall_s"],
            "backend": r.get("backend", "python"),
            "base_wall_s": base["wall_s"] if base else None,
            "base_backend": base.get("backend", "python") if base else None,
            "ratio": None,
            "norm_ratio": None,
            "status": "new",
        }
        if base is not None:
            if base.get("backend", "python") != r.get("backend", "python"):
                row["status"] = "backend-changed"
            elif shards_env_limited and "@shards" in r["name"]:
                row["status"] = "env-limited"
                row["base_cpus"] = base_cpus
                row["cur_cpus"] = cur_cpus
            elif base.get("size") != r["size"]:
                row["status"] = "size-changed"
            elif base["wall_s"] < 0.001:
                row["status"] = "sub-ms"
            else:
                row["ratio"] = r["wall_s"] / base["wall_s"]
                ratios[r["name"]] = row["ratio"]
                row["status"] = "compared"
        rows.append(row)
    if ratios:
        ordered = sorted(ratios.values())
        median = ordered[len(ordered) // 2]
        scale = max(median, 1.0)  # a faster machine earns no slack
        for row in rows:
            if row["ratio"] is not None:
                row["norm_ratio"] = row["ratio"] / scale
                row["median"] = median
    return rows


def check_regression(
    results: list[dict], baseline_path: Path, tolerance: float
) -> list[str]:
    """Compare kernel wall times against a baseline file.

    Per-workload slowdowns are **normalised by the median slowdown**
    across all comparable workloads (see :func:`compare_to_baseline`);
    only a workload slower than ``tolerance ×`` the *median* ratio is a
    real, workload-specific regression.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    for row in compare_to_baseline(results, baseline):
        if row["norm_ratio"] is not None and row["norm_ratio"] > tolerance:
            failures.append(
                f"{row['name']}: {row['ratio']:.2f}x vs baseline "
                f"(> {tolerance:.2f}x the median slowdown {row['median']:.2f}x)"
            )
    return failures


def format_markdown_diff(
    results: list[dict], baseline_path: Path, tolerance: float
) -> str:
    """Render the full baseline comparison as a markdown table.

    Every workload appears — passes as well as failures — so the PR
    comment / job summary shows the whole perf picture, not just the
    breakages (ROADMAP "benchmark trend tracking" follow-up).
    """
    baseline = json.loads(Path(baseline_path).read_text())
    rows = compare_to_baseline(results, baseline)
    medians = [r["median"] for r in rows if r.get("median") is not None]
    lines = [
        "## Kernel benchmark diff",
        "",
        f"Baseline: `{baseline_path}`"
        + (
            f" (rev `{baseline['meta']['git_rev']}`)"
            if baseline.get("meta", {}).get("git_rev")
            else ""
        ),
    ]
    # Surface both environments: shard-variant deltas (``@shards2`` vs
    # ``@shards1``) are only meaningful relative to the core counts.
    base_meta = baseline.get("meta", {})
    cur_cpus, cur_python = os.cpu_count(), platform.python_version()
    base_cpus = base_meta.get("cpu_count")
    base_python = base_meta.get("python")
    lines.append(
        f"Environment: cpus={cur_cpus}, "
        f"python={cur_python} "
        f"(baseline: cpus={base_cpus if base_cpus is not None else '?'}, "
        f"python={base_python if base_python is not None else '?'})"
    )
    mismatches = []
    if base_cpus is not None and base_cpus != cur_cpus:
        mismatches.append(
            f"cpu_count differs (baseline {base_cpus}, current {cur_cpus})"
        )
    if base_python is not None and base_python != cur_python:
        mismatches.append(
            f"python differs (baseline {base_python}, current {cur_python})"
        )
    backend_changed = [r["name"] for r in rows if r["status"] == "backend-changed"]
    if backend_changed:
        mismatches.append(
            "BDD backend differs on: " + ", ".join(backend_changed)
        )
    if mismatches:
        lines.append(
            "> ⚠️ **environment mismatch:** "
            + "; ".join(mismatches)
            + " — wall-clock ratios and especially the sharded "
            "(`@shardsN`) and cross-backend (`@buddy`) deltas are not "
            "comparable across these runs."
        )
    if medians:
        lines.append(
            f"Median slowdown: **{medians[0]:.2f}x** "
            f"(gate: > {tolerance:.2f}x the median fails)"
        )
    lines += [
        "",
        "| workload | n | baseline | current | ratio | vs median | status |",
        "|---|---:|---:|---:|---:|---:|---|",
    ]
    for r in rows:
        base = (
            f"{r['base_wall_s'] * 1e3:.2f} ms"
            if r["base_wall_s"] is not None
            else "—"
        )
        cur = f"{r['wall_s'] * 1e3:.2f} ms"
        ratio = f"{r['ratio']:.2f}x" if r["ratio"] is not None else "—"
        norm = f"{r['norm_ratio']:.2f}x" if r["norm_ratio"] is not None else "—"
        if r["status"] == "compared":
            status = "🔴 regression" if r["norm_ratio"] > tolerance else "✅"
        elif r["status"] == "env-limited":
            status = (
                f"⚪ environment-limited "
                f"(cpus {r['base_cpus']} → {r['cur_cpus']})"
            )
        elif r["status"] == "sub-ms":
            status = "⚪ sub-ms (noise floor)"
        elif r["status"] == "size-changed":
            status = "⚪ size changed"
        elif r["status"] == "backend-changed":
            status = (
                f"⚪ backend changed "
                f"({r['base_backend']} → {r['backend']})"
            )
        else:
            status = "🆕 new workload"
        lines.append(
            f"| {r['name']} | {r['size']} | {base} | {cur} | {ratio} | {norm} | {status} |"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or None
    except Exception:
        return None


def meta(smoke: bool, **extra) -> dict:
    """Run provenance.  ``extra`` records suite-specific knobs only —
    the ``--reorder``/``--gc`` flags go into the table1 meta alone,
    since kernel workloads hard-code their per-workload policies.

    ``cpu_count`` makes the sharded-runtime rows interpretable across
    machines: ``@shards2`` beating ``@shards1`` needs real cores, and a
    single-core runner shows the pure overhead instead.
    """
    return {
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(),
        "smoke": smoke,
        **extra,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes / fewer repeats (CI)"
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list available workloads and variants without running them",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="kernel repeats (default 5, smoke 2)"
    )
    parser.add_argument(
        "--out-dir", type=Path, default=REPO_ROOT, help="where to write BENCH_*.json"
    )
    parser.add_argument(
        "--only",
        default=None,
        help=(
            "comma-separated glob(s) of workloads to run, matched against "
            "'suite/name', the bare name and the bare suite — e.g. "
            "'kernel', 'table1/rand*', '*@shards*' (default: everything)"
        ),
    )
    parser.add_argument(
        "--skip",
        default=None,
        help=(
            "comma-separated glob(s) of workloads to exclude (applied "
            "after --only; same matching rules)"
        ),
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help=(
            "write a Chrome trace-event JSON of the whole run to this "
            "file (also enables span phases on the kernel rows; without "
            "it only the ungated table1 rows are traced)"
        ),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="previous BENCH_kernel.json to gate regressions against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="max allowed slowdown factor vs the baseline (default 1.5)",
    )
    # The table1 run config; kernel workloads pin their own managers.
    add_config_flags(parser, BENCH_FLAGS)
    args = parser.parse_args(argv)
    run = SolveConfig.from_args(args)
    select = make_workload_filter(args.only, args.skip)
    if args.list:
        print(list_workloads(select))
        return 0
    args.out_dir.mkdir(parents=True, exist_ok=True)
    repeats = args.repeats if args.repeats is not None else (2 if args.smoke else 5)
    filtered = bool(args.only or args.skip)
    # Tracing policy: --trace traces everything (the user asked for a
    # trace and accepts the overhead inside timed regions).  Without it
    # the kernel suite — the one the regression gate compares — runs
    # with tracing fully disabled (a global None check per span site),
    # and a tracer is installed only for the ungated table1 suite so
    # its rows still record per-phase breakdowns.
    run_tracer = install_tracer() if args.trace else None

    rc = 0
    run_kernel_suite = any(
        select("kernel", name) for name, *_ in KERNEL_WORKLOADS
    )
    if run_kernel_suite:
        print("== kernel benchmarks ==", flush=True)
        kernel_results = run_kernel(args.smoke, repeats, select)
        payload = {
            "schema": SCHEMA_KERNEL,
            # Kernel workloads pin their own managers, so the suite-level
            # backend is always the reference kernel; per-row ``backend``
            # fields record what each workload actually ran on.
            "meta": meta(args.smoke, backend="python", filtered=filtered),
            "results": kernel_results,
        }
        out = args.out_dir / "BENCH_kernel.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
        if args.baseline is not None:
            diff_md = format_markdown_diff(
                kernel_results, args.baseline, args.tolerance
            )
            diff_out = args.out_dir / "BENCH_diff.md"
            diff_out.write_text(diff_md)
            print(f"wrote {diff_out}")
            failures = check_regression(kernel_results, args.baseline, args.tolerance)
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            if failures:
                rc = 1

    table1_plan = plan_table1(args.smoke, run)
    run_table1_suite = any(select("table1", name) for name, _, _ in table1_plan)
    if run_table1_suite:
        if current_tracer() is None:
            install_tracer()  # table1 rows are ungated; record phases
        print("== table1 benchmarks ==", flush=True)
        table1_rows = run_table1_bench(args.smoke, run, select)
        payload = {
            "schema": SCHEMA_TABLE1,
            "meta": meta(
                args.smoke,
                **{name: getattr(run, name) for name in BENCH_FLAGS},
                filtered=filtered,
            ),
            "results": table1_rows,
        }
        out = args.out_dir / "BENCH_table1.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
        print()
        print(render_table1(table1_rows, {name: case for name, case, _ in table1_plan}))

    if not run_kernel_suite and not run_table1_suite:
        uninstall_tracer()
        print("no workloads match --only/--skip; nothing run", file=sys.stderr)
        return 2

    if run_tracer is not None:
        run_tracer.export(str(args.trace))
        print(f"wrote {args.trace} ({len(run_tracer)} events)")
    uninstall_tracer()
    return rc


if __name__ == "__main__":
    sys.exit(main())
