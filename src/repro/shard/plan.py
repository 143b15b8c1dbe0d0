"""The sharded image join.

The successor image of the paper is one partitioned image with early
quantification, :math:`\\exists Q .\\; (\\psi \\wedge \\Pi)`.  It is
spread over the shard workers with the fact that image distributes
over disjunction:

.. math::

    \\exists Q . ((\\psi_1 \\vee \\psi_2) \\wedge \\Pi) =
    (\\exists Q . \\psi_1 \\wedge \\Pi) \\vee (\\exists Q . \\psi_2 \\wedge \\Pi)

Every shard holds *all* relation parts with the full
early-quantification plan; each constraint is cut into disjoint
cofactor slices on its topmost variables, the slices of a batch are
dealt round-robin over the shards, and the coordinator ORs the slice
images.  Every step is exact, so the sharded image is
*function-identical* to the in-process one (and therefore
edge-identical in the coordinator manager, by BDD canonicity) whichever
shard images which slice.

A batch is split into a submit half (:meth:`ShardedImage.submit`: one
multi-slice ``expand_batch`` per shard that was dealt a slice) and a
join half (:meth:`ShardedImage.join`: collect each shard's reply and OR
the slice images in).  Between the two the caller may queue more
commands on the same pipes; replies are collected in submission order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.bdd.cube import cube_assignment
from repro.bdd.io import dump_nodes, load_nodes
from repro.bdd.manager import FALSE, BddManager
from repro.shard.pool import ShardPool


def load_parts(
    pool: ShardPool, shard: int, mgr: BddManager, parts: Sequence[int]
) -> list[int]:
    """Transfer ``parts`` into ``shard``'s manager; returns their handles."""
    handles = []
    for part in parts:
        handle = pool.new_handle()
        pool.submit(shard, ("load", handle, dump_nodes(mgr, [part])))
        handles.append(handle)
    for _ in handles:
        pool.collect(shard)
    return handles


def make_plan(
    pool: ShardPool,
    shard: int,
    mgr: BddManager,
    part_handles: Sequence[int],
    quantify: Iterable[int],
    constraint_support: Iterable[int],
) -> int:
    """Build a reusable worker-side image plan; returns its plan id.

    Variables cross the pipe by name, so the worker's manager may hold
    them in another order.
    """
    plan_id = pool.new_handle()
    pool.call(
        shard,
        (
            "plan",
            plan_id,
            list(part_handles),
            [mgr.var_name(v) for v in quantify],
            [mgr.var_name(v) for v in constraint_support],
        ),
    )
    return plan_id


class ShardedImage:
    """A partitioned image computation distributed over a worker pool.

    Construction transfers every part into every worker once and
    precomputes a worker-side image plan there.  Images then run over
    shard-resident constraints (:meth:`submit` then :meth:`join`, or
    both in :meth:`run_resident_batch`); :meth:`run` wraps one
    non-resident constraint in a retain/release round trip.

    The object holds only variable *indices* and worker handles, so it
    stays valid across coordinator-side garbage collection (callers pin
    the parts themselves, exactly as for
    :func:`repro.symb.image.plan_image`).
    """

    def __init__(
        self,
        pool: ShardPool,
        mgr: BddManager,
        parts: Sequence[int],
        quantify: Iterable[int],
        constraint_support: Iterable[int],
    ) -> None:
        self.pool = pool
        self.mgr = mgr
        qvars = list(quantify)
        csupp = list(constraint_support)
        # Constraint variables eligible as slice splitters.
        self._candidates = csupp
        self._plan_ids = [
            make_plan(pool, k, mgr, load_parts(pool, k, mgr, parts), qvars, csupp)
            for k in range(pool.num_shards)
        ]

    def run(self, constraint: int) -> int:
        """``∃ quantify . (constraint ∧ Π parts)`` via the shard pool.

        Result-identical to the in-process
        :func:`~repro.symb.image.image_partitioned`.  The constraint is
        retained on every shard for the duration of one
        :meth:`run_resident_batch` call.
        """
        if constraint == FALSE:
            return FALSE
        pool = self.pool
        handle = pool.new_handle()
        blob = dump_nodes(self.mgr, [constraint])
        pool.broadcast(("retain", handle, blob))
        (result,) = self.run_resident_batch([(handle, constraint)])
        pool.broadcast(("release", [handle]))
        return result

    def _slice_pairs(self, constraint: int) -> list[tuple[int, dict[str, int]]]:
        """Disjoint cofactor slices of ``constraint``, one per shard.

        Splits on the topmost constraint variables actually in the
        support, binary-tree style, until there are enough slices (or no
        split variable is left).  The slices OR back to the constraint
        exactly, so the join is lossless.  Each slice is returned with
        its defining assignment (variable *name* -> 0/1), so a worker
        holding the constraint can rebuild the slice without the slice
        BDD ever crossing the wire (the resident-handle protocol).

        A cube constraint (one product state) is not sliced: it stays
        one slice, which the worker images by cofactoring its plan.
        """
        mgr = self.mgr
        if cube_assignment(mgr, constraint) is not None:
            return [(constraint, {})]
        support = mgr.support(constraint)
        splitters = sorted(
            (v for v in self._candidates if v in support),
            key=mgr.var_level,
        )
        slices: list[tuple[int, dict[str, int]]] = [(constraint, {})]
        for var in splitters:
            if len(slices) >= self.pool.num_shards:
                break
            pos, neg = mgr.var_node(var), mgr.nvar_node(var)
            name = mgr.var_name(var)
            nxt: list[tuple[int, dict[str, int]]] = []
            for s, spec in slices:
                lo = mgr.apply_and(s, neg)
                hi = mgr.apply_and(s, pos)
                if lo != FALSE:
                    nxt.append((lo, {**spec, name: 0}))
                if hi != FALSE:
                    nxt.append((hi, {**spec, name: 1}))
            slices = nxt
        return slices

    def submit(self, items: Sequence[tuple[int, int]]) -> list[list[int]]:
        """Deal a batch of **shard-resident** constraints to the shards.

        ``items`` is a list of ``(handle, constraint)`` pairs: the
        handle names the constraint in every worker's resident registry
        (the caller must have submitted its ``retain`` first), and the
        coordinator-side edge is used only for slice planning — no
        snapshot is shipped.  The batch's cofactor slices are dealt
        round-robin and each shard dealt any gets **one**
        ``expand_batch`` of ``(handle, bits)`` specs.  Returns the deal
        for :meth:`join`: per shard, the item index of each slice.
        """
        pool = self.pool
        num = pool.num_shards
        deal: list[list[int]] = [[] for _ in range(num)]
        specs: list[list] = [[] for _ in range(num)]
        cursor = 0
        for i, (handle, constraint) in enumerate(items):
            for _, spec in self._slice_pairs(constraint):
                deal[cursor % num].append(i)
                specs[cursor % num].append((handle, spec))
                cursor += 1
        for shard in range(num):
            if specs[shard]:
                pool.submit(
                    shard, ("expand_batch", self._plan_ids[shard], specs[shard])
                )
        return deal

    def join(self, deal: list[list[int]], count: int) -> list[int]:
        """Collect the replies of :meth:`submit` and OR-join per item.

        Each dealt shard's reply is collected in shard order; the caller
        must have collected every reply submitted to a shard before its
        ``expand_batch``.  Returns the ``count`` item images.
        """
        mgr = self.mgr
        results = [FALSE] * count
        for shard, owners in enumerate(deal):
            if not owners:
                continue
            for i, snap in zip(owners, self.pool.collect(shard)):
                (img,) = load_nodes(mgr, snap)
                results[i] = mgr.apply_or(results[i], img)
        return results

    def run_resident_batch(self, items: Sequence[tuple[int, int]]) -> list[int]:
        """Image a batch of shard-resident constraints (blocking).

        :meth:`submit` then :meth:`join`, with no other traffic pending
        on the pool.
        """
        return self.join(self.submit(items), len(items))
