"""Tests for partitioned image computation and scheduling."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BddManager
from repro.bdd.cube import cube_assignment
from repro.errors import BddError
from repro.symb import image as image_mod
from repro.symb import (
    PartitionedRelation,
    functions_to_relation,
    image_monolithic,
    image_partitioned,
    schedule_parts,
)
from repro.symb.image import image_with_plan, plan_image, release_plan
from tests.strategies import DEFAULT_VARS, expressions


def build_parts(exprs):
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    return mgr, [e.to_bdd(mgr) for e in exprs]


part_lists = st.lists(expressions(max_leaves=6), min_size=1, max_size=5)
var_subsets = st.sets(st.sampled_from(DEFAULT_VARS), min_size=1, max_size=3)


@given(part_lists, expressions(max_leaves=6), var_subsets)
@settings(max_examples=60, deadline=None)
def test_partitioned_image_equals_monolithic(exprs, constraint_expr, names) -> None:
    mgr, parts = build_parts(exprs)
    constraint = constraint_expr.to_bdd(mgr)
    quantify = [mgr.var_index(n) for n in names]
    mono_rel = PartitionedRelation(mgr, list(parts)).monolithic()
    want = image_monolithic(mgr, mono_rel, constraint, quantify)
    got_scheduled = image_partitioned(mgr, parts, constraint, quantify)
    got_naive = image_partitioned(mgr, parts, constraint, quantify, schedule=False)
    assert got_scheduled == want
    assert got_naive == want


@given(part_lists, var_subsets)
@settings(max_examples=40, deadline=None)
def test_schedule_retires_every_quantified_variable_once(exprs, names) -> None:
    mgr, parts = build_parts(exprs)
    quantify = {mgr.var_index(n) for n in names}
    plan = schedule_parts(mgr, parts, quantify)
    assert len(plan) == len(parts)
    assert sorted(p for p, _ in plan) == sorted(parts)
    retired: list[int] = []
    for _, retire in plan:
        retired.extend(retire)
    # No variable retired twice.
    assert len(retired) == len(set(retired))
    # A retired variable must not appear in any later part.
    for k, (_, retire) in enumerate(plan):
        later_support = set()
        for part, _ in plan[k + 1 :]:
            later_support |= mgr.support(part)
        assert not (set(retire) & later_support)


def test_schedule_prefers_parts_that_retire_variables() -> None:
    mgr = BddManager()
    a, b, c, q = mgr.add_vars(["a", "b", "c", "q"])
    # part0 mentions q, part1 does not; processing part1 first would keep
    # q alive; the schedule must retire q right after the only q-part
    # remains processed last or order parts so q dies early.
    part_q = mgr.apply_and(mgr.var_node(q), mgr.var_node(a))
    part_bc = mgr.apply_and(mgr.var_node(b), mgr.var_node(c))
    plan = schedule_parts(mgr, [part_bc, part_q], [q])
    # Wherever part_q lands, q must be retired immediately after it.
    for part, retire in plan:
        if part == part_q:
            assert q in retire


def test_image_empty_parts_just_quantifies() -> None:
    mgr = BddManager()
    a, b = mgr.add_vars(["a", "b"])
    f = mgr.apply_and(mgr.var_node(a), mgr.var_node(b))
    assert image_partitioned(mgr, [], f, [a]) == mgr.exists(f, [a])


def test_image_false_constraint_short_circuits() -> None:
    mgr = BddManager()
    a, b = mgr.add_vars(["a", "b"])
    assert image_partitioned(mgr, [mgr.var_node(b)], 0, [a]) == 0


def test_transition_image_matches_explicit_successors() -> None:
    # A 2-bit counter: check image of {00} under en=1 is {01}.
    from repro.bench import circuits
    from repro.network import build_network_bdds, declare_network_vars

    net = circuits.counter(2)
    mgr = BddManager()
    iv, sv = declare_network_vars(mgr, net)
    ns_vars = {name: mgr.add_var(f"{name}'") for name in net.latches}
    bdds = build_network_bdds(net, mgr, iv, sv)
    rel = functions_to_relation(
        mgr, ((ns_vars[n], bdds.next_state[n]) for n in net.latches)
    )
    constraint = bdds.init_cube
    img = image_partitioned(
        mgr, list(rel), constraint, [iv["en"]] + list(sv.values())
    )
    # Successors of 00 under en in {0,1}: 00 (hold) and 01 (count).
    models = set()
    for b0, b1 in itertools.product((0, 1), repeat=2):
        env = {"b0'": b0, "b1'": b1}
        if mgr.eval(img, env):
            models.add((b0, b1))
    assert models == {(0, 0), (1, 0)}


def test_plan_image_clusters_preserve_conjunction(monkeypatch) -> None:
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    parts = [
        mgr.var_node(0),
        mgr.apply_or(mgr.var_node(1), mgr.var_node(2)),
        mgr.apply_xor(mgr.var_node(3), mgr.var_node(4)),
    ]
    whole = PartitionedRelation(mgr, parts).monolithic()
    sizes = {}
    for threshold in (0, 2, 10_000):
        monkeypatch.setattr(image_mod, "CLUSTER_MAX_NODES", threshold)
        plan = plan_image(mgr, parts, [0, 3], set())
        clusters = [part for part, _, _ in plan.steps]
        assert PartitionedRelation(mgr, clusters).monolithic() == whole
        retired = sorted(v for _, r, _ in plan.steps for v in r)
        assert retired + list(plan.leftover) == [0, 3]
        sizes[threshold] = len(plan.steps)
        release_plan(mgr, plan)
    assert sizes[10_000] == 1
    assert sizes[0] == 3


# -- cube constraints ------------------------------------------------- #

bindings = st.dictionaries(st.sampled_from(DEFAULT_VARS), st.booleans())


class CountingManager(BddManager):
    """Records the edges :meth:`cofactor_cube` is called on."""

    def __init__(self) -> None:
        super().__init__()
        self.cofactored: list[int] = []

    def cofactor_cube(self, f, cube):
        self.cofactored.append(f)
        return super().cofactor_cube(f, cube)


def _cube_images_agree(exprs, quantify_names, assignment) -> list[int]:
    """Image one cube with a plan and unscheduled; returns the cofactored edges."""
    mgr = CountingManager()
    mgr.add_vars(DEFAULT_VARS)
    parts = [e.to_bdd(mgr) for e in exprs]
    quantify = [mgr.var_index(n) for n in sorted(quantify_names)]
    psi = mgr.cube({mgr.var_index(n): b for n, b in assignment.items()})
    want = image_partitioned(mgr, parts, psi, quantify, schedule=False)
    plan = plan_image(mgr, parts, quantify, range(len(DEFAULT_VARS)))
    assert image_with_plan(mgr, plan, psi) == want
    release_plan(mgr, plan)
    return mgr.cofactored


@given(part_lists, var_subsets, bindings)
@settings(max_examples=80, deadline=None)
def test_plan_images_full_and_partial_cubes_by_cofactoring(exprs, names, bits) -> None:
    full = {n: bits.get(n, False) for n in names}
    partial = {n: b for n, b in bits.items() if n in names}
    for assignment in (full, partial):
        assert _cube_images_agree(exprs, names, assignment)


@given(part_lists, var_subsets, bindings)
@settings(max_examples=60, deadline=None)
def test_plan_folds_a_cube_that_binds_a_kept_variable(exprs, names, bits) -> None:
    kept = next(n for n in DEFAULT_VARS if n not in names)
    assert _cube_images_agree(exprs, names, {kept: True, **bits}) == []


def test_cube_assignment_reads_cubes_only() -> None:
    mgr = BddManager()
    a, b, c = mgr.add_vars(["a", "b", "c"])
    lit_a, lit_b, lit_c = (mgr.var_node(v) for v in (a, b, c))
    assert cube_assignment(mgr, FALSE) is None
    assert cube_assignment(mgr, TRUE) == {}
    assert cube_assignment(mgr, lit_b) == {b: 1}
    assert cube_assignment(mgr, mgr.apply_not(lit_b)) == {b: 0}
    cube = mgr.apply_and(mgr.apply_and(lit_a, mgr.apply_not(lit_b)), lit_c)
    assert cube_assignment(mgr, cube) == {a: 1, b: 0, c: 1}
    assert cube_assignment(mgr, mgr.apply_or(lit_a, lit_c)) is None
    assert cube_assignment(mgr, mgr.apply_and(lit_a, mgr.apply_xor(lit_b, lit_c))) is None


@given(expressions(), st.dictionaries(st.sampled_from([*DEFAULT_VARS, "z"]), st.booleans()))
@settings(max_examples=100, deadline=None)
def test_one_pass_cofactor_matches_sequential_restrict(expr, bits) -> None:
    mgr = BddManager()
    mgr.add_vars([*DEFAULT_VARS, "z"])
    f = expr.to_bdd(mgr)
    assignment = {mgr.var_index(n): b for n, b in bits.items()}
    want = f
    for var, val in assignment.items():
        want = mgr.restrict(want, var, val)
    assert mgr.cofactor_cube(f, assignment) == want
    assert mgr.cofactor_cube(f, mgr.cube(assignment)) == want
    assert mgr.cofactor_cube(mgr.apply_not(f), assignment) == mgr.apply_not(want)


def test_cofactor_by_false_cube_raises() -> None:
    mgr = BddManager()
    (a,) = mgr.add_vars(["a"])
    with pytest.raises(BddError):
        mgr.cofactor_cube(mgr.var_node(a), FALSE)
