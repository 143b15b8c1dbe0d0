"""The paper's contribution: the partitioned transition oracle.

Implements Section 3.2 verbatim.  For each subset state ψ(cs):

* ``Q_ψ(u,v) = ∃i,cs [ Π_j(u_j ≡ U_j) ∧ ¬C ∧ ψ ]`` — the (u,v) classes
  under which some input makes the outputs of ``F`` and ``S``
  non-conform.  Computed **one output at a time** (``¬C = Σ_j ¬C_j``)
  so the monolithic conformance relation is never built.
* ``P_ψ(u,v,ns) = ∃i,cs [ Π_j(u_j ≡ U_j) ∧ Π_k(ns_k ≡ T_k) ∧ ψ ]`` —
  the successor image, a partitioned image computation with early
  quantification of ``i`` and ``cs``.
* ``P'_ψ = P_ψ ∧ ¬Q_ψ``; its (u,v)-cofactor classes are the outgoing
  edges, each leaf (a function of ``ns``) renamed ``ns → cs`` becoming
  the successor subset.
* letters with no successor and not in ``Q_ψ`` go to the accepting
  completion state ``DCA`` (handled by the driver).

Neither ``F`` nor ``S`` is ever completed and no monolithic relation is
ever constructed; validity rests on Theorem 1 (tested in
``tests/automata/test_commutation.py``).

``trim=False`` disables the DCN shortcut of footnote 9 for the E6
ablation: a DC1 flag variable is threaded through the image as one more
partition ``dc' ≡ (dc ∨ ¬C)``, non-conforming subsets are expanded like
any others, and prefix-closure removes them at the end.

Incremental completion
----------------------

``Q_ψ`` is recomputed for every subset in the classic flow, yet for a
fixed output ``j`` it only depends on the **cofactor class** of ψ with
respect to the support of its image parts: state variables that feed
neither the ``u`` functions nor ``¬C_j`` can be quantified out of ψ
first, and ``Q^j_ψ = Q^j_{∃R_j.ψ}``.  The oracle memoizes the per-output
images under that projection key, so sibling subsets that differ only in
latches irrelevant to an output share one image computation — in a
frontier batch the duplicates are deduplicated *before* any work is
scheduled.  Memo keys and values are pinned against garbage collection;
hits/misses are reported through :meth:`PartitionedOracle.record_stats`.

Sharded batching
----------------

``shards=N`` (N ≥ 2) distributes the oracle's image computations over a
:class:`~repro.shard.pool.ShardPool` of worker processes, each owning
its own shard manager: the ``P_ψ`` image runs as a
:class:`~repro.shard.plan.ShardedImage` (every shard holds all parts;
ψ is cut into cofactor slices, dealt round-robin and OR-joined in this
manager), and the per-output ``Q_ψ`` images — independent of one
another — are dealt round-robin across the shards and OR-joined.
Both joins are exact, so the sharded oracle is result-identical to
``shards=1`` (which keeps the in-process path, bit for bit).

Subset states are **shard-resident**: when a frontier batch arrives
(:meth:`PartitionedOracle.expand_batch`), each new ψ is serialized
exactly once and ``retain``-ed in every worker's resident registry;
every P/Q image of the batch then names ψ by its coordinator-keyed
handle, and the handles are ``release``-d when the batch completes.
A batch's retains, P slices, Q images and releases are all submitted
before any of its replies is collected, so the workers overlap their
image computations across the whole batch instead of one ψ at a time.

Under a FIFO frontier the driver also hands over the *next* batch
(``expand_batch(batch, prefetch=next_batch)``, see
:attr:`PartitionedOracle.prefetches`): the oracle submits batch n+1
before it collects batch n's replies, so the workers image batch n+1
while the coordinator assembles and applies batch n.  At most one
batch is ahead.  Each pipe carries ``retain n, P n, Q n, release n,
retain n+1, ...``, so a worker still holds at most one batch of ψ, and
replies are joined in batch order: a completion-memo key an earlier
batch in flight already missed is a hit, read from the memo at join
time.  Batch n's replies may still sit unread when batch n+1's retains
go out; :meth:`ShardPool.submit <repro.shard.pool.ShardPool.submit>`
reads them ahead whenever the pipe is full, so a large retain behind a
large P reply cannot deadlock the coordinator and a worker.
"""

from __future__ import annotations

from repro.bdd.cube import split_by_vars
from repro.bdd.io import dump_nodes, load_nodes
from repro.bdd.backends.protocol import BddBackend
from repro.bdd.manager import FALSE
from repro.errors import EquationError
from repro.obs.trace import span as obs_span
from repro.symb.image import (
    image_partitioned,
    image_with_plan,
    plan_image,
    release_plan,
)
from repro.eqn.config import SolveConfig
from repro.eqn.problem import EquationProblem
from repro.eqn.stats import SubsetStats
from repro.eqn.subset import SubsetEdge, expand_batch_pinned, finish_expansion


class PartitionedOracle:
    """Transition oracle computing on partitioned representations."""

    def __init__(
        self,
        problem: EquationProblem,
        config: SolveConfig | None = None,
        *,
        pool: "object | None" = None,
        **knobs,
    ) -> None:
        config = SolveConfig.from_mapping(knobs, config)
        self.problem = problem
        self.config = config
        self.schedule = config.schedule
        self.trim = config.trim
        mgr: BddBackend = problem.manager
        self.mgr = mgr

        # Π_j (u_j ≡ U_j): F's communication outputs.
        self.u_parts = [
            mgr.apply_iff(mgr.var_node(problem.u_vars[name]), problem.f_u[name])
            for name in problem.u_names
        ]
        # Π_k (ns_k ≡ T_k): product transition partition = union of the
        # partitions of F and S (the paper's partitioned product).
        self.t_parts = [
            mgr.apply_iff(mgr.var_node(problem.f_ns_vars[name]), problem.f_next[name])
            for name in problem.f_ns_vars
        ] + [
            mgr.apply_iff(mgr.var_node(problem.s_ns_vars[name]), problem.s_next[name])
            for name in problem.s_ns_vars
        ]
        # Per-output non-conformance ¬C_j = ¬[O^F_j ≡ O^S_j].
        self.nonconf = [
            mgr.apply_not(c) for _, c in problem.conformance_parts()
        ]
        self.quantify = problem.quantify_vars()
        self.rename = problem.ns_to_cs()
        self.uv_vars = problem.uv_vars()
        self.init_cube = problem.init_cube
        if not self.trim:
            # DC1 flag partition: dc' ≡ (dc ∨ ¬C).   Only built in the
            # ablation mode — with trimming the flag never exists.
            any_nonconf = FALSE
            for nc in self.nonconf:
                any_nonconf = mgr.apply_or(any_nonconf, nc)
            flag = mgr.apply_or(mgr.var_node(problem.dc_var), any_nonconf)
            self.dc_part = mgr.apply_iff(mgr.var_node(problem.dc_ns_var), flag)
            self.t_parts = self.t_parts + [self.dc_part]
            self.quantify = self.quantify + [problem.dc_var]
            self.rename = {**self.rename, problem.dc_ns_var: problem.dc_var}
            self.init_cube = mgr.apply_and(
                self.init_cube, mgr.apply_not(mgr.var_node(problem.dc_var))
            )
        # Interned ns -> cs map for the per-successor rename.
        self.rename = mgr.rename_map(self.rename)
        # Incremental completion: per-output projection sets and memo
        # tables.  R_j = state variables feeding neither the u functions
        # nor ¬C_j; ∃R_j.ψ is the memo key for output j's Q image.
        self.memo_hits = 0
        self.memo_misses = 0
        self._q_memo: list[dict[int, int]] = [dict() for _ in self.nonconf]
        self._q_proj: list[object | None] = []
        # Projecting over plain product cs variables only is sound in
        # both modes: the DC1 flag of the no-trim ablation is not in
        # all_cs_vars(), so a flagged ψ is never projected onto a
        # flag-free class.
        cs_set = set(problem.all_cs_vars())
        for nc in self.nonconf:
            supp: set[int] = set()
            for part in [*self.u_parts, nc]:
                supp |= mgr.support(part)
            drop = sorted(cs_set - supp)
            self._q_proj.append(mgr.quant_set(drop) if drop else None)
        # Every ψ is a function of the product cs variables, so the
        # quantification schedules can be computed once and reused for
        # every subset expansion; plan_image interns every retire set as
        # a QuantSet, so each of the thousands of and_exists fold steps
        # skips the per-call level sort/intern pass.
        cs_support = set(self.quantify)
        self._pool = None
        self._p_sharded = None
        self._q_remote: list[tuple[int, int]] = []
        # Shard-resident subset states: ψ edge -> worker handle for the
        # batch in flight, plus the transfer instrumentation the
        # acceptance tests assert on (one serialization per subset state).
        self._psi_handles: dict[int, int] = {}
        self._psi_serializations = 0
        self._resident_peak = 0
        # The batch submitted ahead (prefetch), and per output the memo
        # keys whose Q image is still in flight (each pinned once, from
        # submit until its join moves the pin into the memo).
        self._ahead: _Submitted | None = None
        self._q_pending: list[set[int]] = [set() for _ in self.nonconf]
        # A caller-owned pool (the job server reuses one warm pool across
        # jobs, resetting it between solves) is borrowed, not owned:
        # ``close`` leaves it running for the next job.
        self._owns_pool = pool is None
        shards = config.shards
        if shards > 1:
            from repro.shard import ShardPool, ShardedImage
            from repro.shard.plan import load_parts, make_plan
            from repro.shard.pool import pool_opts

            self.p_plan = None
            self.q_plans = None
            if pool is None:
                pool = ShardPool(
                    shards,
                    mgr.var_order(),
                    **pool_opts(mgr),
                )
            elif pool.num_shards != shards:
                raise EquationError(
                    f"external pool has {pool.num_shards} shards, "
                    f"solve requested {shards}"
                )
            self._pool = pool
            try:
                # P_ψ: cofactor slices across the shards, OR-joined here.
                self._p_sharded = ShardedImage(
                    pool,
                    mgr,
                    self.u_parts + self.t_parts,
                    self.quantify,
                    cs_support,
                )
                # Q_ψ: one *complete* image per output, dealt
                # round-robin — each shard holds the u-parts plus its
                # outputs' ¬C_j parts.
                u_handles = [
                    load_parts(pool, k, mgr, self.u_parts)
                    for k in range(pool.num_shards)
                ]
                for j, nc in enumerate(self.nonconf):
                    k = j % pool.num_shards
                    (nc_handle,) = load_parts(pool, k, mgr, [nc])
                    plan_id = make_plan(
                        pool,
                        k,
                        mgr,
                        u_handles[k] + [nc_handle],
                        self.quantify,
                        cs_support,
                    )
                    self._q_remote.append((k, plan_id))
            except BaseException:
                # Setup failed: reap the workers deterministically
                # instead of leaving them to __del__ timing.
                self.close()
                raise
        elif self.schedule:
            self.p_plan = plan_image(
                mgr, self.u_parts + self.t_parts, self.quantify, cs_support
            )
            self.q_plans = [
                plan_image(mgr, self.u_parts + [nc], self.quantify, cs_support)
                for nc in self.nonconf
            ]
        else:
            self.p_plan = None
            self.q_plans = None

    # ------------------------------------------------------------------ #

    @property
    def prefetches(self) -> bool:
        """Whether :meth:`expand_batch` submits ``prefetch=`` ahead.

        True only when sharded: the workers image the next batch while
        the coordinator applies this one.  In-process there is nothing
        to overlap.
        """
        return self._pool is not None

    def live_roots(self) -> list[int]:
        """Every BDD the oracle reuses across expansions (GC roots).

        The subset driver pins these.  The plans' own (clustered) parts
        are pinned by :func:`plan_image` until :meth:`close`;
        completion-memo entries are created later and pin themselves as
        they are inserted.
        """
        roots = [*self.u_parts, *self.t_parts, *self.nonconf, self.init_cube]
        if not self.trim:
            roots.append(self.dc_part)
        return roots

    def initial(self) -> int:
        return self.init_cube

    def is_accepting(self, psi: int) -> bool:
        """A subset is accepting unless it contains a DC1-flagged state."""
        if self.trim:
            return True
        dc = self.mgr.var_node(self.problem.dc_var)
        return self.mgr.apply_and(psi, dc) == FALSE

    def record_stats(self, stats: SubsetStats) -> None:
        """Set the completion-memo and shard counters on the record."""
        stats.completion_memo_hits = self.memo_hits
        stats.completion_memo_misses = self.memo_misses
        if self._pool is not None:
            stats.psi_serializations = self._psi_serializations
            stats.psi_resident_peak = self._resident_peak
            stats.pool_op_counts = dict(self._pool.op_counts)

    # -- the incremental completion step ------------------------------- #

    def _q_key(self, j: int, psi: int) -> int:
        """Memo key for output ``j``: ψ projected onto relevant latches."""
        proj = self._q_proj[j]
        return psi if proj is None else self.mgr.exists(psi, proj)

    def _q_insert(self, j: int, key: int, value: int) -> int:
        """Record ``Q^j`` for a cofactor class; pins both edges."""
        mgr = self.mgr
        mgr.ref(key)
        mgr.ref(value)
        self._q_memo[j][key] = value
        return value

    def _q_output(self, j: int, psi: int) -> int:
        """``Q^j_ψ`` through the memo (in-process, scheduled flow)."""
        mgr = self.mgr
        key = self._q_key(j, psi)
        hit = self._q_memo[j].get(key)
        if hit is not None:
            self.memo_hits += 1
            return hit
        self.memo_misses += 1
        plan = self.q_plans[j]
        # Imaging the projection rather than ψ itself is the incremental
        # step: the irrelevant latches are already gone from the
        # constraint, and the result is identical by construction.
        with mgr.protect(key):
            img = image_with_plan(mgr, plan, key, gc=True)
        return self._q_insert(j, key, img)

    def non_conformance(self, psi: int) -> int:
        """``Q_ψ(u,v)``, computed one output at a time (in-process)."""
        mgr = self.mgr
        q = FALSE
        if self.q_plans is not None:
            for j in range(len(self.nonconf)):
                # The accumulator must survive collections triggered
                # inside the next image fold.
                with mgr.protect(q):
                    q_j = self._q_output(j, psi)
                q = mgr.apply_or(q, q_j)
            return q
        for nc in self.nonconf:
            q = mgr.apply_or(
                q,
                image_partitioned(
                    mgr,
                    self.u_parts + [nc],
                    psi,
                    self.quantify,
                    schedule=False,
                ),
            )
        return q

    def close(self) -> None:
        """Release plan and memo pins, shut down the shard pool (idempotent).

        A borrowed pool (``pool=`` passed at construction) is left
        running: its owner resets it (clearing worker-side plans and
        resident registries) before the next solve.
        """
        mgr = self.mgr
        if self.p_plan is not None:
            for plan in [self.p_plan, *self.q_plans]:
                release_plan(mgr, plan)
            self.p_plan = self.q_plans = None
        for memo in self._q_memo:
            for key, value in memo.items():
                mgr.deref(key)
                mgr.deref(value)
            memo.clear()
        # A batch still in flight (after a cancel or CNC) holds a pin on
        # each of its Q misses; its replies are drained by the pool's
        # close, or by a borrowed pool's reset.
        for pending in self._q_pending:
            for key in pending:
                mgr.deref(key)
            pending.clear()
        self._ahead = None
        if self._pool is not None:
            if self._owns_pool:
                self._pool.close()
            self._pool = None
            self._p_sharded = None
            self._q_remote = []
            self._psi_handles.clear()

    def successor_image(self, psi: int) -> int:
        """``P_ψ(u,v,ns)`` — the partitioned image of ψ (in-process)."""
        if self.p_plan is not None:
            return image_with_plan(self.mgr, self.p_plan, psi, gc=True)
        return image_partitioned(
            self.mgr,
            self.u_parts + self.t_parts,
            psi,
            self.quantify,
            schedule=False,
        )

    # -- expansion ------------------------------------------------------ #

    def expand(self, psi: int) -> tuple[list[SubsetEdge], int]:
        """Single-item adapter over :meth:`expand_batch`."""
        return self.expand_batch([psi])[0]

    def expand_batch(
        self, psis: list[int], *, prefetch: list[int] | None = None
    ) -> list[tuple[list[SubsetEdge], int]]:
        """Expand a frontier batch (the driver's batched oracle protocol).

        A sharded oracle (:attr:`prefetches`) submits ``prefetch`` to
        the workers before it joins ``psis``; in-process it is ignored.
        """
        if self._pool is not None:
            return self._expand_batch_sharded(psis, prefetch)
        with obs_span("expand_batch", size=len(psis)):
            return expand_batch_pinned(self.mgr, psis, self._expand_one)

    def _expand_one(self, psi: int) -> tuple[list[SubsetEdge], int]:
        mgr = self.mgr
        # ψ and the successor image must survive collections triggered
        # inside the image folds (everything after the last fold runs
        # GC-free, so plain locals are safe from there on).
        q = None
        with mgr.protect(psi):
            p = self.successor_image(psi)
            if self.trim:
                with mgr.protect(p):
                    q = self.non_conformance(psi)
        return finish_expansion(self, p, q, split_by_vars)

    # -- the sharded batched expansion ---------------------------------- #

    def _expand_batch_sharded(
        self, psis: list[int], prefetch: list[int] | None
    ) -> list[tuple[list[SubsetEdge], int]]:
        """Join ``psis`` on the shard pool, with ``prefetch`` submitted first."""
        batch = self._ahead
        if batch is None:
            batch = self._submit_batch(psis)
        elif batch.psis != psis:
            raise EquationError(
                "expand_batch must be called with the batch submitted ahead"
            )
        self._ahead = self._submit_batch(prefetch) if prefetch else None
        return self._join_batch(batch)

    def _submit_batch(self, psis: list[int]) -> "_Submitted":
        """Send one batch's whole wire order to the shards.

        In order: the ``retain`` of each new subset state, the dealt P
        slices (:meth:`~repro.shard.plan.ShardedImage.submit`), every
        deduplicated Q image and the ``release``.  Until
        :meth:`_join_batch` the batch holds only memo values (pinned by
        the memo), its own Q miss keys (pinned here) and the driver's
        pinned, unexpanded ψ, so the driver may collect garbage while
        it is in flight.
        """
        mgr = self.mgr
        pool = self._pool
        nshards = pool.num_shards
        n_out = len(self.nonconf)
        batch = _Submitted(psis)

        # 1. Residency: each new ψ is serialized exactly once and
        #    retained in every worker's resident registry.
        with obs_span("psi_retain", batch=len(psis)) as retain_span:
            for psi in psis:
                if psi in self._psi_handles:
                    continue
                handle = pool.new_handle()
                blob = dump_nodes(mgr, [psi])
                self._psi_serializations += 1
                for k in range(nshards):
                    pool.submit(k, ("retain", handle, blob))
                self._psi_handles[psi] = handle
                batch.retained += 1
            retain_span.set(serialized=batch.retained)
        self._resident_peak = max(self._resident_peak, len(self._psi_handles))
        handles = [self._psi_handles[psi] for psi in psis]

        # 2. P images: the batch's cofactor slices, one command per shard.
        batch.p_deal = self._p_sharded.submit(list(zip(handles, psis)))

        # 3. Q images, deduplicated through the completion memo: a batch
        #    submits one remote image per *new* cofactor class.
        batch.q_vals = [[FALSE] * n_out for _ in psis]
        if self.trim and n_out:
            for j in range(n_out):
                memo = self._q_memo[j]
                pending = self._q_pending[j]
                misses: list[tuple[int, list[int]]] = []
                miss_handles: list[int] = []
                by_key: dict[int, list[int]] = {}
                for i, psi in enumerate(psis):
                    key = self._q_key(j, psi)
                    hit = memo.get(key)
                    if hit is not None:
                        self.memo_hits += 1
                        batch.q_vals[i][j] = hit
                        continue
                    group = by_key.get(key)
                    if group is not None:
                        # A sibling in this batch already scheduled this
                        # cofactor class.
                        self.memo_hits += 1
                        group.append(i)
                        continue
                    if key in pending:
                        # An earlier batch still in flight images it;
                        # its join, which comes first, memoizes it.
                        self.memo_hits += 1
                        batch.q_later.append((i, j, key))
                        continue
                    self.memo_misses += 1
                    pending.add(mgr.ref(key))
                    group = [i]
                    by_key[key] = group
                    misses.append((key, group))
                    miss_handles.append(handles[i])
                if misses:
                    shard, plan_id = self._q_remote[j]
                    pool.submit(shard, ("expand_batch", plan_id, miss_handles))
                    batch.q_submitted.append((j, misses))

        # 4. Release: every subset state is expanded exactly once, so
        #    its resident handle dies with this batch.  (The driver's
        #    seen-table guarantees unique batches; dedup anyway so a
        #    direct caller repeating a ψ cannot double-release.)
        unique_handles = list(dict.fromkeys(handles))
        for k in range(nshards):
            pool.submit(k, ("release", unique_handles))
        for psi in dict.fromkeys(psis):
            del self._psi_handles[psi]
        return batch

    def _join_batch(
        self, batch: "_Submitted"
    ) -> list[tuple[list[SubsetEdge], int]]:
        """Collect a submitted batch's replies and assemble its results.

        Replies are collected in submission order.  No coordinator-side
        garbage collection runs in here (none of the joins collect),
        so the per-ψ intermediates are safe as plain locals.
        """
        mgr = self.mgr
        pool = self._pool
        nshards = pool.num_shards
        psis, q_vals = batch.psis, batch.q_vals
        with obs_span("p_images", batch=len(psis)):
            for _ in range(batch.retained):
                for k in range(nshards):
                    pool.collect(k)
            p_results = self._p_sharded.join(batch.p_deal, len(psis))
        with obs_span("q_images", outputs=len(batch.q_submitted)):
            for j, misses in batch.q_submitted:
                shard, _plan_id = self._q_remote[j]
                snaps = pool.collect(shard)
                memo, pending = self._q_memo[j], self._q_pending[j]
                for (key, idxs), snap in zip(misses, snaps):
                    (q_j,) = load_nodes(mgr, snap)
                    # The key's in-flight pin becomes the memo's.
                    pending.remove(key)
                    memo[key] = mgr.ref(q_j)
                    for i in idxs:
                        q_vals[i][j] = q_j
        for i, j, key in batch.q_later:
            q_vals[i][j] = self._q_memo[j][key]
        for k in range(nshards):
            pool.collect(k)

        # -- assemble per-ψ results (GC-free) --------------------------- #
        n_out = len(self.nonconf)
        results: list[tuple[list[SubsetEdge], int]] = []
        for i in range(len(psis)):
            q = None
            if self.trim:
                q = FALSE
                for j in range(n_out):
                    q = mgr.apply_or(q, q_vals[i][j])
            results.append(finish_expansion(self, p_results[i], q, split_by_vars))
        return results


class _Submitted:
    """A sharded batch between its submit and its join."""

    __slots__ = ("psis", "retained", "p_deal", "q_vals", "q_submitted", "q_later")

    def __init__(self, psis: list[int]) -> None:
        self.psis = psis
        self.retained = 0  # new ψ retained (one reply per shard each)
        self.p_deal: list[list[int]] = []
        self.q_vals: list[list[int]] = []
        # (output, [(memo key, batch indices)]) per submitted Q command.
        self.q_submitted: list[tuple[int, list[tuple[int, list[int]]]]] = []
        # (batch index, output, memo key) imaged by an earlier batch.
        self.q_later: list[tuple[int, int, int]] = []
