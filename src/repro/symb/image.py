"""Image computation: the kernel of every operation in the paper.

Two implementations of ``∃ quantify . (constraint ∧ Π parts)``:

* :func:`image_monolithic` — conjoin everything, then quantify (the
  baseline; one fused ``and_exists`` against the pre-built monolithic
  relation when it is available);
* :func:`image_partitioned` — schedule the parts (see
  :mod:`repro.symb.schedule`) and fold them in with ``and_exists``,
  retiring quantified variables as early as possible.  The monolithic
  conjunction is never materialised.

Both are exact; they differ only in intermediate BDD sizes, which is
precisely the paper's claim (and the E5 ablation benchmark).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

from repro.bdd.cube import cube_assignment
from repro.bdd.manager import FALSE, TRUE, BddManager, QuantSet
from repro.obs.trace import span as obs_span
from repro.symb.schedule import schedule_parts

#: Node threshold for merging consecutive plan steps into one cluster
#: (see :func:`plan_image`).  Small enough that a cluster never
#: approaches the size of the monolithic relation, large enough that the
#: 2–50-node parts of a Table-1 relation fold in a handful of steps.
CLUSTER_MAX_NODES = 200


def image_monolithic(
    mgr: BddManager,
    relation: int,
    constraint: int,
    quantify: Iterable[int],
) -> int:
    """``∃ quantify . (constraint ∧ relation)`` with a monolithic relation."""
    return mgr.and_exists(constraint, relation, list(quantify))


def image_partitioned(
    mgr: BddManager,
    parts: Sequence[int],
    constraint: int,
    quantify: Iterable[int],
    *,
    schedule: bool = True,
    gc: bool = False,
) -> int:
    """``∃ quantify . (constraint ∧ Π parts)`` on the partitioned form.

    With ``schedule=False`` the parts are conjoined in the given order
    and all quantification happens at the end (the "no early
    quantification" strawman used by the E5 ablation).

    With ``gc=True`` the manager may collect garbage between fold steps
    (only when its growth trigger arms).  Callers must then hold their own
    live functions through ``mgr.ref``/``mgr.protect`` — the fold protects
    only its running ``result`` and the remaining parts.  A collection
    never moves a variable: the manager's order is fixed once it holds
    nodes, so the plan's retire sets keep their levels between folds.
    """
    qvars = list(quantify)
    if not parts:
        if constraint == FALSE:
            return FALSE
        return mgr.exists(constraint, qvars)
    if not schedule:
        result = constraint
        for part in parts:
            result = mgr.apply_and(result, part)
            if result == FALSE:
                return FALSE
        return mgr.exists(result, qvars)

    plan = schedule_parts(
        mgr,
        parts,
        qvars,
        constraint_support=mgr.support(constraint),
    )
    result = constraint
    quantified: set[int] = set()
    for i, (part, retire) in enumerate(plan):
        result = mgr.and_exists(result, part, retire)
        quantified.update(retire)
        if result == FALSE:
            return FALSE
        if gc and mgr.should_collect():
            mgr.collect_garbage([result, *(p for p, _ in plan[i + 1 :])])
    leftover = [v for v in qvars if v not in quantified]
    # result can only be FALSE here via the early return above, but guard
    # the quantification anyway: ∃ x . FALSE is FALSE.
    if leftover and result != FALSE:
        result = mgr.exists(result, leftover)
    return result


class ImagePlan(NamedTuple):
    """A reusable image plan for a fixed part list (see :func:`plan_image`)."""

    #: ``(cluster, retire, project)`` per fold step: the cluster, the
    #: variables quantified right after it, and the constraint variables
    #: outside its support.
    steps: list[tuple[int, QuantSet, QuantSet]]
    #: Quantified variables no step retires (quantified at the end).
    leftover: QuantSet
    #: Every variable the plan quantifies.
    quantified: frozenset[int]


def plan_image(
    mgr: BddManager,
    parts: Sequence[int],
    quantify: Iterable[int],
    constraint_support: Iterable[int],
) -> ImagePlan:
    """Precompute a reusable image plan for a fixed part list.

    The subset construction computes thousands of images against the
    *same* partitioned relation with only the constraint ψ changing; as
    long as every constraint's support stays within
    ``constraint_support``, the schedule can be computed once and reused
    via :func:`image_with_plan`.

    Consecutive scheduled steps are merged into clusters while their
    conjunction stays within :data:`CLUSTER_MAX_NODES` nodes (the
    IWLS'95 cluster threshold): one fold step per cluster instead of one
    per tiny part, with far fewer dead intermediates.  A cluster retires
    the union of its steps' retire sets, which is exact because a
    retired variable appears in no later part.  Clusters are new BDDs,
    so every plan part is pinned here; the plan's holder hands it back
    to :func:`release_plan` when done.

    Every retire set, projection set and the leftover set is interned as
    a :class:`~repro.bdd.manager.QuantSet`, so the thousands of fold
    steps the plan will drive skip the per-call sort/dedup/intern pass.
    The manager's order is fixed once it holds nodes, so a plan built
    once stays valid for every later fold.
    """
    with obs_span("plan_image", parts=len(parts)) as plan_span:
        qvars = list(quantify)
        csupp = set(constraint_support)
        steps = schedule_parts(mgr, parts, qvars, constraint_support=csupp)
        clusters: list[tuple[int, list[int]]] = []
        for part, retire in steps:
            if clusters:
                merged = mgr.apply_and(clusters[-1][0], part)
                if mgr.size(merged) <= CLUSTER_MAX_NODES:
                    clusters[-1] = (merged, clusters[-1][1] + retire)
                    continue
            clusters.append((part, list(retire)))
        planned = {v for _, retire in clusters for v in retire}
        leftover = [v for v in qvars if v not in planned]
        plan = [
            (
                mgr.ref(part),
                mgr.quant_set(retire),
                mgr.quant_set(sorted(csupp - mgr.support(part))),
            )
            for part, retire in clusters
        ]
        plan_span.set(steps=len(steps), clusters=len(plan), leftover=len(leftover))
        return ImagePlan(plan, mgr.quant_set(leftover), frozenset(qvars))


def release_plan(mgr: BddManager, plan: ImagePlan) -> None:
    """Drop the pins :func:`plan_image` took on ``plan``'s parts."""
    for part, _, _ in plan.steps:
        mgr.deref(part)


def image_with_plan(
    mgr: BddManager,
    plan: ImagePlan,
    constraint: int,
    *,
    gc: bool = False,
) -> int:
    """Run a precomputed image plan against one constraint.

    Each fold step is one fused ``and_exists`` — the conjunction with
    the next part quantifies its retired variables on the fly and
    short-circuits to FALSE the moment the product dies, so the
    monolithic conjunction is never materialised.

    A constraint that is a cube whose variables the plan all quantifies
    (every subset state of the paper's construction is one product
    state) is not folded through at all: ``∃Q.(ψ ∧ Π C_k) =
    ∃(Q∖vars ψ).Π (C_k|ψ)``.  Each cluster is cofactored by ψ projected
    onto its support, so the kernel's cofactor cache serves every ψ
    that agrees with an earlier one there, and the cofactors are folded
    from TRUE with the same retire sets; those stay exact when a
    cluster's support shrinks.  Any other constraint takes the fold.

    ``gc=True`` allows opportunistic garbage collection between fold
    steps (see :func:`image_partitioned` for the rooting contract).
    """
    if constraint == FALSE:
        return FALSE
    steps = plan.steps
    bound = cube_assignment(mgr, constraint)
    if bound is not None and plan.quantified.issuperset(bound):
        parts = []
        for cluster, _, project in steps:
            part = mgr.cofactor_cube(cluster, mgr.exists(constraint, project))
            if part == FALSE:
                return FALSE
            parts.append(part)
        result = TRUE
    else:
        parts = [cluster for cluster, _, _ in steps]
        result = constraint
    for i, (_, retire, _) in enumerate(steps):
        result = mgr.and_exists(result, parts[i], retire)
        if result == FALSE:
            return FALSE
        if gc and mgr.should_collect():
            mgr.collect_garbage([result, *parts[i + 1 :]])
    if plan.leftover:
        result = mgr.exists(result, plan.leftover)
    return result

