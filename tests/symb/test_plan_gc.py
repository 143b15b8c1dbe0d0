"""GC safety of clustered image plans.

``plan_image`` merges consecutive scheduled steps into clusters, which
are new BDDs no caller holds.  The plan pins them itself, so a plan
built now must survive a forced collection before it runs, in-process,
inside ``reachable_states`` and inside a shard worker (``op_plan``).
Every result is checked against the unscheduled fold,
``image_partitioned(..., schedule=False)``.

A cube constraint is imaged by cofactoring the plan's clusters; those
cofactors are unpinned intermediates cached in the computed table, so
they must survive collections between fold steps and be recomputed
after a sweep has flushed the table.
"""

from __future__ import annotations

from repro.bdd.io import dump_nodes, load_nodes
from repro.bdd.cube import iter_minterms
from repro.bdd.manager import _OP_COFACTOR, FALSE, BddManager
from repro.bench import circuits
from repro.network.bddbuild import build_network_bdds
from repro.shard import ShardPool
from repro.shard.plan import load_parts, make_plan
from repro.symb import image as image_mod
from repro.symb.image import (
    image_partitioned,
    image_with_plan,
    plan_image,
    release_plan,
)
from repro.symb.reach import network_reachable_states
from repro.symb.relation import transition_relation


def _net():
    return circuits.random_network(4, 8, 4, seed=5, n_nodes=60)


def _relation():
    """Parts, quantified vars, cs vars and a few constraints over cs."""
    net = _net()
    mgr = BddManager()
    inputs = {name: mgr.add_var(name) for name in net.inputs}
    cs = {name: mgr.add_var(name) for name in net.latches}
    ns = {name: mgr.add_var(f"{name}'") for name in net.latches}
    bdds = build_network_bdds(net, mgr, inputs, cs)
    parts = list(
        transition_relation(mgr, bdds.next_state, ns, order=list(net.latches))
    )
    cs_vars = list(cs.values())
    quantify = [*inputs.values(), *cs_vars]
    lits = [mgr.var_node(v) for v in cs_vars]
    constraints = [
        bdds.init_cube,
        lits[0],
        mgr.apply_xor(lits[1], lits[2]),
        mgr.apply_or(mgr.apply_and(lits[0], lits[3]), lits[-1] ^ 1),
    ]
    for f in [*parts, *constraints]:
        mgr.ref(f)
    return mgr, parts, quantify, cs_vars, constraints


def _unscheduled(mgr, parts, constraints, quantify):
    images = [
        mgr.ref(image_partitioned(mgr, parts, c, quantify, schedule=False))
        for c in constraints
    ]
    assert any(img != FALSE for img in images)
    return images


def test_plan_merges_steps_and_retires_exactly() -> None:
    mgr, parts, quantify, cs_vars, _ = _relation()
    plan = plan_image(mgr, parts, quantify, set(cs_vars))
    steps = plan.steps
    assert len(steps) < len(parts)
    retired = [v for _, retire, _ in steps for v in retire] + list(plan.leftover)
    assert sorted(retired) == sorted(quantify)
    for k, (_, retire, _) in enumerate(steps):
        later = set().union(*(mgr.support(p) for p, _, _ in steps[k + 1 :]))
        assert not set(retire) & later
    release_plan(mgr, plan)


def test_release_plan_drops_every_pin() -> None:
    mgr, parts, quantify, cs_vars, _ = _relation()
    pins = dict(mgr._extref)
    plan = plan_image(mgr, parts, quantify, set(cs_vars))
    assert mgr._extref != pins
    release_plan(mgr, plan)
    assert mgr._extref == pins


def test_in_process_plan_survives_gc_and_sift() -> None:
    mgr, parts, quantify, cs_vars, constraints = _relation()
    want = _unscheduled(mgr, parts, constraints, quantify)
    plan = plan_image(mgr, parts, quantify, set(cs_vars))
    assert mgr.collect_garbage() > 0
    mgr.check()
    for c, w in zip(constraints, want):
        assert image_with_plan(mgr, plan, c, gc=True) == w
    release_plan(mgr, plan)


def _cube_constraints(mgr, cs_vars, constraints):
    """Full and partial cs cubes: minterms of the given constraints."""
    cubes = []
    for c in constraints:
        for bits in list(iter_minterms(mgr, c, cs_vars))[:3]:
            cubes.append(mgr.cube(dict(zip(cs_vars, bits))))
            cubes.append(mgr.cube(dict(zip(cs_vars[1::2], bits[1::2]))))
    for f in cubes:
        mgr.ref(f)
    return cubes


def _cofactor_entries(mgr) -> int:
    return sum(1 for key in mgr._computed if key & 15 == _OP_COFACTOR)


def test_cube_image_survives_gc_between_fold_steps(monkeypatch) -> None:
    mgr, parts, quantify, cs_vars, constraints = _relation()
    cubes = _cube_constraints(mgr, cs_vars, constraints)
    want = _unscheduled(mgr, parts, cubes, quantify)
    plan = plan_image(mgr, parts, quantify, set(cs_vars))
    assert len(plan.steps) > 1
    sweeps = []
    collect = BddManager.collect_garbage

    def sweep(self, roots=()):
        sweeps.append(collect(self, roots))
        return sweeps[-1]

    # Collect at every safe point the fold offers.
    monkeypatch.setattr(BddManager, "should_collect", lambda self: True)
    monkeypatch.setattr(BddManager, "collect_garbage", sweep)
    for c, w in zip(cubes, want):
        assert image_with_plan(mgr, plan, c, gc=True) == w
    assert sweeps and max(sweeps) > 0
    mgr.check()
    release_plan(mgr, plan)


def test_cube_image_after_sift_and_sweep_recomputes_cofactors() -> None:
    mgr, parts, quantify, cs_vars, constraints = _relation()
    cubes = _cube_constraints(mgr, cs_vars, constraints)
    want = _unscheduled(mgr, parts, cubes, quantify)
    plan = plan_image(mgr, parts, quantify, set(cs_vars))
    mgr.collect_garbage()
    mgr.check()
    for c, w in zip(cubes, want):
        assert image_with_plan(mgr, plan, c) == w
    assert _cofactor_entries(mgr) > 0
    assert mgr.collect_garbage() > 0
    assert mgr.computed_table_size() == 0
    for c, w in zip(cubes, want):
        assert image_with_plan(mgr, plan, c) == w
    assert _cofactor_entries(mgr) > 0
    release_plan(mgr, plan)


def test_reach_plan_survives_gc_and_sift(monkeypatch) -> None:
    net = _net()
    mgr = BddManager()
    inputs = {name: mgr.add_var(name) for name in net.inputs}
    cs = {name: mgr.add_var(name) for name in net.latches}
    ns = {name: mgr.add_var(f"{name}'") for name in net.latches}
    bdds = build_network_bdds(net, mgr, inputs, cs)
    base = network_reachable_states(bdds, ns_vars=ns, schedule=False)
    mgr.ref(base.states)
    original = image_mod.image_with_plan
    forced = []

    def gc_then_image(mgr, plan, constraint, **kwargs):
        # ``reachable_states`` pins the frontier; nothing pins the plan's
        # clusters but the plan itself.
        forced.append(mgr.collect_garbage())
        return original(mgr, plan, constraint, **kwargs)

    monkeypatch.setattr(image_mod, "image_with_plan", gc_then_image)
    got = network_reachable_states(bdds, ns_vars=ns)
    assert forced and max(forced) > 0
    assert got.states == base.states
    assert got.iterations == base.iterations
    assert got.state_count == base.state_count


def test_worker_plan_survives_gc_and_sift() -> None:
    mgr, parts, quantify, cs_vars, constraints = _relation()
    want = _unscheduled(mgr, parts, constraints, quantify)
    with ShardPool(1, mgr.var_order()) as pool:
        handles = load_parts(pool, 0, mgr, parts)
        plan_id = make_plan(pool, 0, mgr, handles, quantify, cs_vars)
        assert pool.call(0, ("gc",)) > 0
        resident = []
        for c in constraints:
            resident.append(pool.new_handle())
            pool.call(0, ("retain", resident[-1], dump_nodes(mgr, [c])))
        snaps = pool.call(0, ("expand_batch", plan_id, resident))
        pool.call(0, ("release", resident))
    got = [load_nodes(mgr, snap)[0] for snap in snaps]
    assert got == want
