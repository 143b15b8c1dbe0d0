"""The modified subset construction (Section 3.2).

This driver realises the paper's key algorithmic point: given the
partitioned representations, *all* steps of Algorithm 1 — completion,
complementation, product, hiding — "are essentially embedded into a
modified determinization procedure".  The driver enumerates subset states
of the product ``F × complement(S)`` explicitly (each subset is a
characteristic-function BDD ψ over the product state variables) and asks
a :class:`TransitionOracle` for the outgoing structure of each subset:

* conforming ``(u,v)`` classes with their successor subsets (the
  cofactor classes of ``P'_ψ``),
* the completion condition routed to the accepting ``DCA`` state
  ("which are not contained in Q_ψ" and have no successor),
* non-conforming classes are either trimmed on the fly (``DCN``
  shortcut, footnote 9) or routed to explicit non-accepting subsets when
  the oracle runs with trimming disabled (the E6 ablation).

The partitioned and monolithic flows differ *only* in how their oracle
computes ``P_ψ`` and ``Q_ψ`` — which is exactly the paper's experimental
comparison.

Frontier batching
-----------------

The driver is split into a **frontier scheduler** and a **batched oracle
protocol**.  The scheduler (:class:`FrontierScheduler`) owns the pending
subset states and slices them into batches under a pluggable ordering
strategy (``dfs`` — the classic worklist, ``bfs`` — level order,
``size`` — smallest-ψ-first); deduplication against the seen-ψ table
happens before a state ever enters the frontier, so a batch never
contains the same ψ twice.  Oracles that implement
``expand_batch(psis) -> [(edges, dca), ...]`` receive whole batches —
the partitioned oracle uses this to pipeline all of a batch's image
computations across its shard pool and to share completion-condition
work between sibling subsets; oracles exposing only the single-item
``expand`` are driven one ψ at a time regardless of ``batch_size``
(batching an oracle that cannot pin intermediate results across sibling
expansions would be unsound under opportunistic GC).
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Protocol

from repro.bdd.io import dump_nodes, load_nodes
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.errors import EquationError, SolveCancelled
from repro.automata.automaton import Automaton
from repro.eqn.config import STRATEGIES
from repro.eqn.problem import EquationProblem
from repro.eqn.stats import CONSTRUCTION_FIELDS, KERNEL_FIELDS, SubsetStats
from repro.obs.trace import span as obs_span
from repro.util.limits import ResourceLimit

#: Version tag of the subset-construction checkpoint snapshot format.
CHECKPOINT_FORMAT = "repro-subset-ckpt/1"


@dataclass
class SubsetEdge:
    """One outgoing (u,v)-class of a subset state."""

    cond: int  # BDD over the (u, v) letter variables
    successor: int  # ψ' BDD over the product cs variables
    accepting: bool = True  # False only in no-trim mode (DC1-containing)


class TransitionOracle(Protocol):
    """What the subset driver needs from a solver flow."""

    def initial(self) -> int:
        """Initial subset ψ0 (a cube over the product state variables)."""

    def is_accepting(self, psi: int) -> bool:
        """Whether a subset state is accepting in the final solution."""

    def expand(self, psi: int) -> tuple[list[SubsetEdge], int]:
        """Outgoing edges of ψ plus the DCA completion condition."""

    def expand_batch(
        self, psis: list[int], *, prefetch: list[int] | None = None
    ) -> list[tuple[list[SubsetEdge], int]]:
        """Expand a whole frontier batch; one ``expand`` result per ψ.

        Optional (checked with ``getattr``).  Implementations must keep
        every already-produced edge label and successor alive across the
        remaining expansions of the batch (the driver pins them only
        after the batch returns); both solver oracles do this.

        ``prefetch`` is passed only to an oracle that :attr:`prefetches`.
        It is the batch of the next call, whose ``psis`` must equal it;
        the oracle may start on it before it returns these results.
        """

    @property
    def prefetches(self) -> bool:
        """Whether the driver passes ``prefetch=`` under ``bfs``.

        Optional (checked with ``getattr``); only the sharded
        partitioned oracle says yes.
        """

    def live_roots(self) -> list[int]:
        """BDDs the oracle needs alive across garbage collections.

        Optional (checked with ``getattr``); oracles without it simply
        disable opportunistic garbage collection in the driver.
        """

    def record_stats(self, stats: SubsetStats) -> None:
        """Set the oracle's run counters on the solve's record.

        Optional (checked with ``getattr``); the partitioned oracle
        reports completion-memo hits and misses and, when sharded,
        ψ-transfer and pool command counters.
        """


class FrontierScheduler:
    """Pending subset states, ordered by a pluggable strategy.

    The scheduler only *orders* the frontier; deduplication is the
    caller's job (the driver's seen-ψ table guards ``push``), which
    keeps every ψ in the frontier unique — a batch can never contain
    duplicates.

    Strategies
    ----------
    ``dfs``
        Last-in-first-out — with ``batch_size=1`` this is exactly the
        classic worklist order of the unbatched driver.
    ``bfs``
        First-in-first-out level order; batches then group sibling
        subsets discovered by the same expansions, which is what makes
        the completion-condition memo hit across a batch.
    ``size``
        Smallest ψ (by BDD node count, measured when the state enters
        the frontier) first: cheap subsets expand early, which keeps
        the manager small while the seen-table fills with the easy
        states.
    """

    def __init__(self, mgr: BddManager, strategy: str = "dfs") -> None:
        if strategy not in STRATEGIES:
            raise EquationError(
                f"unknown frontier strategy {strategy!r}; choose from {STRATEGIES}"
            )
        self.mgr = mgr
        self.strategy = strategy
        self._pending: deque[int] = deque()
        # size strategy: a heap of (push-time size, seq, ψ).  Sizing at
        # push keeps take() at O(log n) per ψ instead of re-walking
        # every pending DAG per batch; ties break by insertion order.
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0

    def __len__(self) -> int:
        if self.strategy == "size":
            return len(self._heap)
        return len(self._pending)

    def push(self, psi: int) -> None:
        """Add a (new, deduplicated) subset state to the frontier."""
        if self.strategy == "size":
            heappush(self._heap, (self.mgr.size(psi), self._seq, psi))
            self._seq += 1
            return
        self._pending.append(psi)

    def take(self, batch_size: int) -> list[int]:
        """Remove and return the next batch (at most ``batch_size`` ψ)."""
        if self.strategy == "size":
            k = min(max(1, batch_size), len(self._heap))
            return [heappop(self._heap)[2] for _ in range(k)]
        k = min(max(1, batch_size), len(self._pending))
        if self.strategy == "bfs":
            return [self._pending.popleft() for _ in range(k)]
        return [self._pending.pop() for _ in range(k)]

    def pending(self) -> list[int]:
        """The pending ψ in push order (checkpointing, no removal).

        Re-pushing the returned list into a fresh scheduler of the same
        strategy reproduces the frontier exactly: ``dfs``/``bfs`` keep
        insertion order in the deque, and ``size`` re-derives its keys
        at push time (node counts are stable across a dump/load
        round-trip, so the heap order survives too).
        """
        if self.strategy == "size":
            return [psi for _, _, psi in sorted(self._heap, key=lambda t: t[1])]
        return list(self._pending)


def expand_batch_pinned(
    mgr: BddManager,
    psis: list[int],
    expand_one,
) -> list[tuple[list[SubsetEdge], int]]:
    """Map ``expand_one`` over a batch, pinning sibling results.

    The shared in-process half of the oracles' ``expand_batch``
    contract: a later expansion's image folds may collect garbage, and
    the driver only pins what it stores *after* the whole batch
    returns, so every already-produced edge label, successor and DCA
    condition is ref'd while the rest of the batch runs (and deref'd
    before returning — nothing between the return and the driver's own
    pinning can trigger a collection).
    """
    out: list[tuple[list[SubsetEdge], int]] = []
    held: list[int] = []
    try:
        for psi in psis:
            edges, dca = expand_one(psi)
            out.append((edges, dca))
            if len(psis) > 1:
                for edge in edges:
                    held.append(mgr.ref(edge.cond))
                    held.append(mgr.ref(edge.successor))
                held.append(mgr.ref(dca))
    finally:
        for f in held:
            mgr.deref(f)
    return out


def finish_expansion(
    oracle, p: int, q: int | None, split: Callable[..., dict[int, int]]
) -> tuple[list[SubsetEdge], int]:
    """Edges and DCA condition of ψ from ``P_ψ`` (the oracles' GC-free tail).

    With trimming, ``q`` is ``Q_ψ``: the conforming classes of
    ``P_ψ ∧ ¬Q_ψ`` become the edges, and the letters with neither a
    successor nor a non-conformance (``¬∃ns.P_ψ ∧ ¬Q_ψ``) go to DCA.
    Without trimming (``q`` is ``None``) every class is expanded and
    ``oracle.is_accepting`` decides each successor by its DC1 flag.
    Either way, each non-FALSE (u,v) cofactor leaf renamed ``ns → cs``
    is a successor, and DCA comes from the split's FALSE class: the
    letters where the split relation has no ``ns`` at all.  Untrimmed
    that is ``¬∃ns.P_ψ``; trimmed it is ``¬∃ns.P_ψ ∨ Q_ψ`` (``Q_ψ`` is
    over (u,v) only), so DCA is that class minus ``Q_ψ``.  The oracle
    supplies ``mgr``, ``uv_vars`` and ``rename`` (an interned
    :meth:`~repro.bdd.manager.BddManager.rename_map`); ``split`` is
    :func:`~repro.bdd.cube.split_by_vars` as the oracle's own module
    names it, which is where ``perfbench/layers.py`` times the enumerate
    layer.
    """
    mgr = oracle.mgr
    classes = split(mgr, p if q is None else mgr.apply_diff(p, q), oracle.uv_vars)
    no_successor = classes.pop(FALSE, FALSE)
    edges = []
    for leaf, cond in classes.items():
        successor = mgr.rename(leaf, oracle.rename)
        accepting = q is not None or oracle.is_accepting(successor)
        edges.append(SubsetEdge(cond, successor, accepting))
    if q is None:
        return edges, no_successor
    return edges, mgr.apply_diff(no_successor, q)


def _construction_snapshot(
    mgr: BddManager,
    aut: Automaton,
    ids: dict[int, int],
    strategy: str,
    pending: list[int],
    stats: SubsetStats,
    dca_id: int | None,
) -> dict:
    """Serialise the in-flight construction into one resumable dict.

    Everything the driver owns goes into the snapshot — discovered
    subsets (with their ψ), automaton edges, the ``pending`` frontier
    in push order (a batch submitted ahead first), and the driver-side
    counters.  All BDDs travel as a single
    :func:`~repro.bdd.io.dump_nodes` blob so shared structure is stored
    once; references into the blob are root indices.  The
    oracle's completion memo is deliberately *not* captured: it is a
    pure cache and repopulates lazily after a resume.
    """
    psi_by_sid = {sid: psi for psi, sid in ids.items()}
    roots: list[int] = []
    root_of_psi: dict[int, int] = {}
    states: list[list] = []
    for sid in range(aut.num_states):
        psi = psi_by_sid.get(sid)
        if psi is None:
            states.append([aut.state_names[sid], sid in aut.accepting, None])
        else:
            root_of_psi[psi] = len(roots)
            states.append(
                [aut.state_names[sid], sid in aut.accepting, len(roots)]
            )
            roots.append(psi)
    edges: list[list[int]] = []
    for src, bucket in enumerate(aut.edges):
        for dst, label in bucket.items():
            edges.append([src, dst, len(roots)])
            roots.append(label)
    return {
        "format": CHECKPOINT_FORMAT,
        "strategy": strategy,
        "variables": list(aut.variables),
        "states": states,
        "initial": aut.initial,
        "dca_id": dca_id,
        "edges": edges,
        "frontier": [root_of_psi[psi] for psi in pending],
        "stats": stats.construction(),
        "nodes": dump_nodes(mgr, roots),
    }


def _restore_construction(
    mgr: BddManager,
    aut: Automaton,
    ids: dict[int, int],
    frontier: FrontierScheduler,
    stats: SubsetStats,
    snapshot: dict,
    *,
    gc_enabled: bool,
) -> int | None:
    """Rebuild driver state from a :func:`_construction_snapshot` dict.

    Mutates the (freshly constructed, empty) ``aut``/``ids``/``frontier``
    /``stats`` in place and returns the restored ``dca_id``.  GC pins
    mirror what the live construction would hold at the same point:
    every ψ and every stored edge label.
    """
    if snapshot.get("format") != CHECKPOINT_FORMAT:
        raise EquationError(
            f"unsupported checkpoint format {snapshot.get('format')!r} "
            f"(expected {CHECKPOINT_FORMAT!r})"
        )
    if list(snapshot["variables"]) != list(aut.variables):
        raise EquationError(
            "checkpoint alphabet does not match this problem: "
            f"{snapshot['variables']} != {list(aut.variables)}"
        )
    if snapshot["strategy"] != frontier.strategy:
        raise EquationError(
            f"checkpoint was taken with frontier strategy "
            f"{snapshot['strategy']!r}; resume with the same strategy"
        )
    roots = load_nodes(mgr, snapshot["nodes"])
    for name, accepting, ref in snapshot["states"]:
        sid = aut.add_state(name, accepting=accepting)
        if ref is not None:
            psi = roots[ref]
            ids[psi] = sid
            if gc_enabled:
                mgr.ref(psi)
    aut.initial = snapshot["initial"]
    for src, dst, ref in snapshot["edges"]:
        label = roots[ref]
        aut.add_edge(src, dst, label)
        if gc_enabled and label != FALSE:
            mgr.ref(aut.edges[src][dst])
    for ref in snapshot["frontier"]:
        frontier.push(roots[ref])
    for name in CONSTRUCTION_FIELDS:
        setattr(stats, name, snapshot["stats"][name])
    return snapshot["dca_id"]


def subset_construct(
    oracle: TransitionOracle,
    problem: EquationProblem,
    *,
    limit: ResourceLimit | None = None,
    strategy: str = "dfs",
    batch_size: int = 1,
    progress: Callable[[dict], None] | None = None,
    cancel: Callable[[], bool] | None = None,
    checkpoint: Callable[[dict], None] | None = None,
    checkpoint_every: int = 0,
    checkpoint_seconds: float = 0.0,
    resume: dict | None = None,
    residency: "object | None" = None,
) -> tuple[Automaton, SubsetStats]:
    """Run the modified subset construction and build the solution.

    Returns the most general prefix-closed solution automaton ``X`` over
    the ``(u, v)`` alphabet (with trimming, every subset state is
    accepting and ``DCA`` is the accepting completion state) plus run
    statistics.  With a no-trim oracle, non-accepting subset states are
    produced and must be removed by ``prefix_close`` afterwards.

    ``strategy`` picks the frontier ordering (see
    :class:`FrontierScheduler`) and ``batch_size`` how many subset
    states are handed to the oracle per ``expand_batch`` call.  The
    defaults (``"dfs"``, ``1``) reproduce the classic one-ψ-at-a-time
    worklist bit for bit.  Whatever the settings, the *set* of subsets,
    edges and the extracted CSF are identical — only discovery order
    (and therefore state numbering) can differ between batch sizes.

    The wall-clock budget is checked once per batch (a batch is the
    oracle's atomic unit of work), so with ``batch_size > 1`` a
    ``max_seconds`` abort can overshoot by up to one batch of
    expansions — the price of pipelining; budget-critical CNC runs
    should keep the default batch size.  Under ``bfs`` with an oracle
    that ``prefetches`` (the sharded partitioned oracle), the next
    batch is handed over as soon as the current one is taken:
    ``expand_batch(batch, prefetch=next_batch)`` lets the workers
    image it while this batch is applied.  Under a FIFO frontier the
    split into batches changes neither the order of expansion nor the
    result, so the KISS bytes stay those of the unpipelined run; but a
    batch is then always in flight at the check, and a ``max_seconds``
    abort can overshoot by up to two batches.  ``dfs`` and ``size``
    pick the next batch from the current one's successors, so they
    keep one batch in flight.

    Serving hooks (all optional, all observed at batch boundaries —
    the points where the manager holds no unpinned intermediates; a
    batch submitted ahead pins its own):

    ``progress``
        Called after every batch with a flat event dict (counters from
        :class:`SubsetStats`, frontier length including a batch in
        flight, live/peak node counts and, when the oracle exposes
        them, memo and GC stats).
    ``cancel``
        Polled before every batch; returning true raises
        :class:`~repro.errors.SolveCancelled`, which unwinds through
        the caller's ``finally`` blocks so oracle and pool teardown
        always run.
    ``checkpoint`` / ``checkpoint_every`` / ``checkpoint_seconds``
        Every ``checkpoint_every`` batches *or* every
        ``checkpoint_seconds`` of wall clock — whichever fires first,
        each on its own cadence — while the frontier is non-empty,
        ``checkpoint`` receives a resumable snapshot dict
        (:data:`CHECKPOINT_FORMAT`) capturing subsets, edges, frontier
        (a batch in flight at its front) and counters with all BDDs in
        one packed :func:`~repro.bdd.io.dump_nodes` blob.  Either cadence may be
        zero (disabled); the wall clock restarts after every snapshot,
        however it was triggered.
    ``resume``
        A snapshot from a previous run: the construction restarts from
        its frontier instead of ψ0.  The snapshot must come from the
        same problem and frontier strategy; the restored initial ψ is
        checked against ``oracle.initial()``.

    ``residency`` is an optional
    :class:`~repro.eqn.residency.ResidencyManager`: at every batch
    boundary, cold *expanded* subset states beyond its node budget are
    spilled to disk and their pins dropped; successor candidates then
    deduplicate against the spilled states by content key, so the
    construction (and its KISS output) is byte-identical to the
    unbounded run — only peak memory changes.  Requires a GC-aware
    oracle (one exposing ``live_roots``); checkpoints transparently
    reload every spilled state first, so snapshots stay complete.
    """
    mgr = problem.manager
    budget = limit if limit is not None else ResourceLimit.unlimited()
    if batch_size < 1:
        raise EquationError(f"batch_size must be >= 1, got {batch_size}")
    aut = Automaton(mgr, tuple(problem.uv_names()))
    stats = SubsetStats()

    psi0 = oracle.initial()
    if psi0 == FALSE:
        raise EquationError("initial subset state is empty")
    ids: dict[int, int] = {}
    frontier = FrontierScheduler(mgr, strategy)

    # Everything that must survive a kernel garbage collection is pinned
    # as it is created: the oracle's relation parts/plans, every subset ψ
    # (the keys of ``ids``) and every edge-label BDD stored in the growing
    # automaton.  With those roots held, the driver can let the manager
    # reclaim the per-expansion intermediates (P_ψ, Q_ψ, cofactor churn)
    # whenever its growth trigger arms — long runs stay bounded.
    roots_fn = getattr(oracle, "live_roots", None)
    gc_enabled = roots_fn is not None
    if gc_enabled:
        for root in roots_fn():
            mgr.ref(root)
    if residency is not None and not gc_enabled:
        raise EquationError(
            "a resident budget needs a GC-aware oracle (one exposing "
            "live_roots): without pins, eviction cannot free anything"
        )

    def subset_id(psi: int, accepting: bool) -> int:
        sid = ids.get(psi)
        if sid is not None:
            if residency is not None:
                residency.touch(psi)
            return sid
        if residency is not None:
            # The candidate may equal a state that was spilled out of
            # ``ids``; dedup by content key keeps the construction
            # identical to the unbounded run.
            sid = residency.lookup(psi)
            if sid is not None:
                return sid
        # Named by discovery count (not ``len(ids)``, which shrinks under
        # residency eviction — the numbering must match the unbounded run).
        sid = aut.add_state(f"q{stats.subsets}", accepting=accepting)
        ids[psi] = sid
        frontier.push(psi)
        stats.subsets += 1
        if gc_enabled:
            mgr.ref(psi)
        if residency is not None:
            residency.admit(psi, sid)
        return sid

    dca_id: int | None = None
    if resume is None:
        subset_id(psi0, oracle.is_accepting(psi0))
    else:
        dca_id = _restore_construction(
            mgr, aut, ids, frontier, stats, resume, gc_enabled=gc_enabled
        )
        if ids.get(psi0) != aut.initial:
            raise EquationError(
                "checkpoint does not match this problem: restored initial "
                "subset differs from the oracle's ψ0"
            )
        if residency is not None:
            pending = set(frontier.pending())
            for psi, sid in ids.items():
                residency.admit(psi, sid)
                if psi not in pending:
                    residency.mark_expanded(psi)
    expand_batch = getattr(oracle, "expand_batch", None)
    # Oracles without the batch protocol cannot pin intermediates across
    # sibling expansions, so they are driven one ψ at a time.
    effective_batch = batch_size if expand_batch is not None else 1
    prefetch = strategy == "bfs" and getattr(oracle, "prefetches", False)
    ahead: list[int] = []  # the batch submitted ahead, taken but unexpanded
    last_checkpoint = time.monotonic()
    while frontier or ahead:
        if cancel is not None and cancel():
            raise SolveCancelled("solve cancelled at batch boundary")
        budget.check_time()
        with obs_span("frontier_batch", batch=stats.batches + 1) as batch_span:
            batch = ahead or frontier.take(effective_batch)
            if prefetch:
                ahead = frontier.take(effective_batch)
                results = expand_batch(batch, prefetch=ahead)
            elif expand_batch is not None:
                results = expand_batch(batch)
            else:
                results = [oracle.expand(psi) for psi in batch]
            stats.batches += 1
            for psi, (edges, dca_cond) in zip(batch, results):
                src = ids[psi]
                for edge in edges:
                    dst = subset_id(edge.successor, edge.accepting)
                    label = aut.add_class_edge(src, dst, edge.cond)
                    if gc_enabled and label != FALSE:
                        # Pin the *stored* label, which add_class_edge
                        # returns (an OR, had an edge to dst existed).
                        mgr.ref(label)
                    stats.edges += 1
                if dca_cond != FALSE:
                    if dca_id is None:
                        dca_id = aut.add_state("DCA", accepting=True)
                        aut.add_edge(dca_id, dca_id, TRUE)
                    aut.add_edge(src, dca_id, dca_cond)
                    if gc_enabled:
                        mgr.ref(aut.edges[src][dca_id])
                    stats.dca_edges += 1
            stats.peak_nodes = max(stats.peak_nodes, len(mgr))
            swept = False
            if residency is not None:
                for psi in batch:
                    residency.mark_expanded(psi)
                for psi in residency.enforce():
                    del ids[psi]
                    mgr.deref(psi)
                # A budget's worth of evicted ψ forces a sweep (see
                # ResidencyManager.sweep_if_due); below that the GC
                # trigger decides as usual.
                swept = residency.sweep_if_due()
            if gc_enabled and not swept:
                mgr.maybe_collect_garbage()
            batch_span.set(
                size=len(batch),
                subsets=stats.subsets,
                frontier=len(frontier) + len(ahead),
            )
        if progress is not None:
            progress(
                _progress_event(mgr, oracle, stats, len(frontier) + len(ahead))
            )
        ckpt_due = checkpoint is not None and (frontier or ahead) and (
            (checkpoint_every > 0 and stats.batches % checkpoint_every == 0)
            or (
                checkpoint_seconds > 0
                and time.monotonic() - last_checkpoint >= checkpoint_seconds
            )
        )
        if ckpt_due:
            with obs_span("checkpoint_write", batch=stats.batches):
                if residency is not None:
                    # A snapshot must carry every subset state: reload
                    # the spilled ones (they come back evictable, so the
                    # next batch boundary re-bounds the working set).
                    for psi, sid in residency.restore_all():
                        ids[psi] = sid
                        mgr.ref(psi)
                        residency.admit(psi, sid)
                        residency.mark_expanded(psi)
                checkpoint(
                    _construction_snapshot(
                        mgr,
                        aut,
                        ids,
                        strategy,
                        [*ahead, *frontier.pending()],
                        stats,
                        dca_id,
                    )
                )
            last_checkpoint = time.monotonic()
    record_stats = getattr(oracle, "record_stats", None)
    if record_stats is not None:
        record_stats(stats)
    if residency is not None:
        residency.record_stats(stats)
    mgr_stats = mgr.stats
    for name in KERNEL_FIELDS:
        setattr(stats, name, mgr_stats.get(name, 0))
    return aut, stats


def _progress_event(
    mgr: BddManager,
    oracle: TransitionOracle,
    stats: SubsetStats,
    pending: int,
) -> dict:
    """One per-batch progress event (the serve stream's payload)."""
    event = {
        **stats.construction(),
        "frontier": pending,
        "live_nodes": len(mgr),
    }
    for key in ("memo_hits", "memo_misses"):
        value = getattr(oracle, key, None)
        if value is not None:
            event[key] = value
    mgr_stats = mgr.stats
    for key in KERNEL_FIELDS:
        if key in mgr_stats:
            event[key] = mgr_stats[key]
    return event
