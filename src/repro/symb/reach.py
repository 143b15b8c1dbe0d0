"""Symbolic reachability analysis (implicit state enumeration, [3]).

Classic BFS fixed point over the partitioned transition relation; used by
tests (vs explicit BFS), by the solver's statistics and by the image
ablation benchmark.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.bdd import sat_count
from repro.bdd.manager import FALSE, BddManager
from repro.network.bddbuild import NetworkBdds
from repro.obs.trace import span as obs_span
from repro.symb import image as image_mod
from repro.symb.image import image_partitioned
from repro.symb.relation import PartitionedRelation, transition_relation


@dataclass
class ReachabilityResult:
    """Fixed point of forward reachability."""

    states: int  # BDD over the cs variables
    iterations: int
    state_count: int


def reachable_states(
    mgr: BddManager,
    relation: PartitionedRelation,
    init: int,
    cs_vars: Sequence[int],
    ns_vars: Sequence[int],
    input_vars: Sequence[int],
    *,
    schedule: bool = True,
    shards: int = 1,
) -> ReachabilityResult:
    """Forward reachability from ``init`` under a partitioned relation.

    ``cs_vars`` and ``ns_vars`` must be aligned (same latch order); the
    image is computed over ``ns`` then renamed back to ``cs``.

    ``shards=1`` (the default) runs entirely in-process.  With
    ``shards=N`` (N ≥ 2) every one of ``N`` worker processes
    (:mod:`repro.shard`) holds all relation parts, and each image step
    ORs the transferred images of the frontier's cofactor slices in this
    manager (:class:`~repro.shard.plan.ShardedImage`) — the frontier
    sequence, the reached set and the iteration count are identical to
    the in-process path (the sharded image computes the same function,
    and BDDs are canonical).  The workers inherit the manager's node
    budget and backend (:func:`repro.shard.pool.pool_opts`).
    """
    rename = mgr.rename_map(dict(zip(ns_vars, cs_vars)))
    quantify = list(input_vars) + list(cs_vars)
    parts = list(relation)
    # Every frontier is a function of the cs variables, so the
    # early-quantification schedule can be computed once for the whole
    # fixpoint and reused via image_with_plan: each iteration then runs
    # the plan's fold with interned quant sets and no rescheduling (a
    # frontier that is one state, a cube, folds the clusters' cofactors).
    # The manager's order never moves once it holds nodes, so the plan
    # stays valid for the whole fixpoint.
    plan = None
    pool = sharded = None
    if shards > 1:
        from repro.shard import ShardPool, ShardedImage
        from repro.shard.pool import pool_opts

        pool = ShardPool(shards, mgr.var_order(), **pool_opts(mgr))
        try:
            sharded = ShardedImage(pool, mgr, parts, quantify, set(cs_vars))
        except BaseException:
            pool.close()
            raise
    elif schedule:
        plan = image_mod.plan_image(
            mgr, parts, quantify, constraint_support=set(cs_vars)
        )
    reached = init
    frontier = init
    iterations = 0
    # Pin everything the fixpoint still needs, so the kernel may collect
    # the intermediates of earlier iterations (image results, stale
    # frontiers) whenever its growth trigger arms.  A sweep never moves
    # a variable, so the loop's edges keep their levels between iterations.
    for part in parts:
        mgr.ref(part)
    mgr.ref(reached)
    mgr.ref(frontier)
    try:
        while frontier != FALSE:
            iterations += 1
            with obs_span("reach_iteration", iteration=iterations) as it_span:
                if sharded is not None:
                    img_ns = sharded.run(frontier)
                elif plan is not None:
                    img_ns = image_mod.image_with_plan(mgr, plan, frontier, gc=True)
                else:
                    img_ns = image_partitioned(
                        mgr, parts, frontier, quantify, schedule=False, gc=True
                    )
                img_cs = mgr.rename(img_ns, rename)
                mgr.deref(frontier)
                frontier = mgr.ref(mgr.apply_diff(img_cs, reached))
                mgr.deref(reached)
                reached = mgr.ref(mgr.apply_or(reached, img_cs))
                mgr.maybe_collect_garbage()
                it_span.set(live_nodes=len(mgr))
    finally:
        if pool is not None:
            pool.close()
        if plan is not None:
            image_mod.release_plan(mgr, plan)
        for part in parts:
            mgr.deref(part)
        mgr.deref(reached)
        mgr.deref(frontier)
    count = sat_count(mgr, reached, list(cs_vars))
    return ReachabilityResult(states=reached, iterations=iterations, state_count=count)


def network_reachable_states(
    bdds: NetworkBdds,
    *,
    ns_vars: Mapping[str, int] | None = None,
    schedule: bool = True,
    shards: int = 1,
) -> ReachabilityResult:
    """Reachable-state fixed point of a network from its initial state.

    Declares fresh ``ns`` variables (named ``<latch>'``) when ``ns_vars``
    is not supplied; note that appending variables at the bottom of the
    order is fine for correctness but interleaved cs/ns orders (declared
    up front by the caller) are faster.
    """
    mgr = bdds.manager
    if ns_vars is None:
        ns_vars = {}
        for name in bdds.net.latches:
            var_name = f"{name}'"
            try:
                ns_vars[name] = mgr.var_index(var_name)
            except KeyError:
                ns_vars[name] = mgr.add_var(var_name)
    relation = transition_relation(
        mgr, bdds.next_state, ns_vars, order=list(bdds.net.latches)
    )
    latch_order = list(bdds.net.latches)
    # The network's function BDDs are not part of the relation parts; pin
    # them so fixpoint garbage collections cannot reclaim what the caller
    # may still use afterwards.
    pinned = list(bdds.next_state.values()) + list(bdds.outputs.values())
    pinned.append(bdds.init_cube)
    for f in pinned:
        mgr.ref(f)
    try:
        return reachable_states(
            mgr,
            relation,
            bdds.init_cube,
            [bdds.state_vars[n] for n in latch_order],
            [ns_vars[n] for n in latch_order],
            bdds.all_input_vars(),
            schedule=schedule,
            shards=shards,
        )
    finally:
        for f in pinned:
            mgr.deref(f)
