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
cofactor slices on its topmost variables, the slices are imaged on
whichever shard is free, and the coordinator ORs the slice images.
Every step is exact, so the sharded image is *function-identical* to
the in-process one (and therefore edge-identical in the coordinator
manager, by BDD canonicity).

Work stealing
-------------

Statically dealt slices can leave a shard idle while a peer grinds
through a heavy slice.  :meth:`ShardedImage.run_resident_batch` is a
**work-stealing dispatcher**: each shard keeps a small window of
single-slice commands in flight, and whenever its own queue drains it
steals pending slices from the most-loaded peer.  Because every
constraint is shard-resident on *every* worker (the retain protocol),
re-dispatching a slice is just a cheap ``(handle, bits)`` spec — no BDD
crosses the wire.  OR is commutative and associative and BDDs are
canonical, so the joined image is identical whatever the final
placement and completion order.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from repro.bdd.cube import cube_assignment
from repro.bdd.io import dump_nodes, load_nodes
from repro.bdd.manager import FALSE, BddManager
from repro.obs.trace import span as obs_span
from repro.shard.pool import ShardPool

#: Single-slice commands each shard keeps in flight while stealing.
STEAL_WINDOW = 2


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

    Variables cross the pipe by name, so the plan stays valid however
    either side reorders afterwards.
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
    shard-resident constraints (:meth:`run_resident_batch`); :meth:`run`
    wraps one non-resident constraint in a retain/release round trip.

    The object holds only variable *indices* and worker handles, so it
    stays valid across coordinator-side garbage collection and in-place
    reordering (callers pin the parts themselves, exactly as for
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
        #: Slices re-dispatched by the work-stealing batch dispatcher.
        self.steals = 0
        # Constraint variables eligible as slice splitters (indices, so
        # reordering keeps this valid).
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

    def run_resident_batch(self, items: Sequence[tuple[int, int]]) -> list[int]:
        """Image a batch of **shard-resident** constraints (blocking).

        ``items`` is a list of ``(handle, constraint)`` pairs: the
        handle names the constraint in every worker's resident registry
        (the caller must have ``retain``-ed it there first), and the
        coordinator-side edge is used only for slice planning — no
        snapshot is shipped.  The batch's cofactor slices are dealt
        round-robin into per-shard queues, each shard keeps up to
        :data:`STEAL_WINDOW` single-slice ``expand_batch`` commands in
        flight, and the coordinator collects from whichever worker
        finishes first
        (:meth:`~repro.shard.pool.ShardPool.wait_any`).  A shard whose
        own queue drains **steals** the tail of the most-loaded peer's
        queue, re-dispatched as a ``(handle, bits)`` spec with no BDD
        transfer.  :attr:`steals` counts the re-dispatched slices.

        The per-item result is the OR of its slice images; OR is
        commutative and associative and BDDs are canonical, so the
        result is identical whatever placement and completion order the
        stealing produced.

        Must be called with no other traffic pending on the pool: the
        dispatcher owns every watched pipe until the batch completes.
        """
        pool, mgr = self.pool, self.mgr
        num = pool.num_shards
        steal_span = obs_span(
            "steal_batch", items=len(items), shards=num, window=STEAL_WINDOW
        )
        steals_before = self.steals
        queues: list[deque] = [deque() for _ in range(num)]
        cursor = 0
        for i, (handle, constraint) in enumerate(items):
            for _, spec in self._slice_pairs(constraint):
                queues[cursor % num].append((i, handle, spec))
                cursor += 1
        results = [FALSE] * len(items)
        inflight: list[deque] = [deque() for _ in range(num)]

        def top_up(shard: int) -> None:
            while len(inflight[shard]) < STEAL_WINDOW:
                if queues[shard]:
                    i, handle, spec = queues[shard].popleft()
                else:
                    donor = max(range(num), key=lambda p: len(queues[p]))
                    if not queues[donor]:
                        return
                    # Steal from the tail: the head slices are about to
                    # be dispatched locally by the donor itself.
                    i, handle, spec = queues[donor].pop()
                    self.steals += 1
                pool.submit(
                    shard,
                    ("expand_batch", self._plan_ids[shard], [(handle, spec)]),
                )
                inflight[shard].append(i)

        with steal_span:
            for shard in range(num):
                top_up(shard)
            while any(inflight):
                busy = [shard for shard in range(num) if inflight[shard]]
                for shard in pool.wait_any(busy):
                    (snap,) = pool.collect(shard)
                    i = inflight[shard].popleft()
                    (img,) = load_nodes(mgr, snap)
                    results[i] = mgr.apply_or(results[i], img)
                    top_up(shard)
            steal_span.set(slices=cursor, steals=self.steals - steals_before)
        return results
