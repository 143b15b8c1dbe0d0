"""The shard worker: one process, one manager, one command loop.

A worker is spawned by :class:`repro.shard.pool.ShardPool` with a
connection (one end of a ``multiprocessing.Pipe``) and a config dict.
It builds its own shard manager — on whichever BDD backend the config
names (:func:`repro.bdd.backends.create_manager`; a native backend
multiplies its speedup by the worker count), with its own computed
table, GC policy and reorder policy, entirely independent of the
coordinator's — and serves commands until told to shut down.

Every command is a tuple ``(op, *args)``; every reply is ``("ok",
payload, meta)`` or ``("err", traceback_text, meta)``, where ``meta``
is the worker's per-command timing stamp — ``{"op", "pid", "t0",
"t1"}`` in the shared :func:`time.perf_counter` timebase — that
:meth:`ShardPool.collect <repro.shard.pool.ShardPool.collect>` relays
onto the coordinator's trace as a pid-tagged per-worker track (the
pool tolerates two-element replies, so the wire stays compatible both
ways).  BDDs cross the pipe as
packed-array snapshots (:func:`repro.bdd.io.dump_nodes`); inside the
worker they live in a *handle registry* (small ints chosen by the
coordinator), each pinned with ``mgr.ref`` so worker-side garbage
collections can never reclaim what the coordinator still names.

Commands
--------

``("vars", names)``
    Declare the variable order (must run first).
``("load", handle, snapshot)``
    Load a snapshot (first root) into the registry under ``handle``.
``("dump", handle)``
    Reply with the snapshot of a registered function (plain registry
    first, then the resident registry).
``("free", handles)``
    Deref and drop registry entries.
``("retain", handle, snapshot)``
    Make a function **shard-resident**: load the snapshot into the
    resident registry under ``handle`` with reference count 1 — or, if
    the handle is already resident, just bump its count (``snapshot``
    may then be ``None``).  Resident entries are pinned with ``mgr.ref``
    so they survive worker-side garbage collection and in-place
    reordering; the reply is the new count.  This is how the subset
    driver's ψ snapshots cross the wire exactly once per subset.
``("release", handles)``
    Drop one reference from each resident handle; an entry whose count
    reaches zero is deref'd and forgotten.  Replies with the number of
    entries actually freed.
``("spill", handles)``
    Force-spill the named resident entries (all of them when ``handles``
    is ``None``) to the worker's content-addressed spill store
    (:class:`repro.eqn.residency.SpillStore` over the
    :func:`repro.bdd.io.dump_function_packed` blob format), keeping
    their reference counts.  A spilled entry reloads transparently on
    its next ``expand_batch``/``dump``/``retain`` touch.  With a
    ``resident_budget`` node count in the worker config, the same spill
    runs *automatically*: whenever the pinned resident-ψ node estimate
    exceeds the budget (checked after every retain and after every item
    of an ``expand_batch``), least-recently-touched entries are spilled,
    and the worker collects garbage once the entries spilled since its
    last such sweep add up to the budget, so its memory stays bounded no
    matter how many subset states the coordinator parks on it.  Spill
    and reload counts are reported by ``("stats",)``.
``("expand_batch", plan_id, items)``
    Run a plan against a batch of resident constraints and reply with
    the list of result snapshots.  Each item is either a resident
    handle (the constraint itself) or a ``(handle, spec)`` pair, where
    ``spec`` maps variable *names* to 0/1 — the worker then images the
    cofactor slice ``resident ∧ cube(spec)`` (the sharded image join
    without re-shipping the constraint).
``("plan", plan_id, part_handles, quantify_names, support_names)``
    Precompute a reusable image plan over the named parts
    (:func:`repro.symb.image.plan_image`), quantifying
    ``quantify_names``; ``support_names`` bounds every future
    constraint's support.
``("reset", overrides)``
    Tear down the shard manager and rebuild it from the spawn config
    (with ``overrides`` merged on top): all handles, resident entries
    and plans are dropped and the variable table is empty again —
    ``("vars", ...)`` must run before the next load.  This is how the
    job server reuses one warm pool of processes across solves without
    paying fork/spawn per job.
``("stats",)``
    Reply with a small dict of manager statistics.
``("gc",)``
    Force a collection; reply with the reclaimed count.
``("sift",)``
    Force one in-place sifting pass (handles, resident entries and
    plans all keep their edges); reply with swap/size counters.
``("shutdown",)``
    Acknowledge and exit the loop.
"""

from __future__ import annotations

import os
import time
import traceback

from repro.bdd.backends import create_manager
from repro.bdd.io import dump_function_packed, load_function_packed
from repro.bdd.policy import GcPolicy, ReorderPolicy
from repro.errors import ReproError
from repro.obs.log import get_logger
from repro.symb.image import image_with_plan, plan_image

_log = get_logger("repro.shard.worker")


class _WorkerState:
    """Manager + registries behind one worker's command loop."""

    def __init__(self, config: dict) -> None:
        self.config = dict(config)
        self._spill = None
        self._build(self.config)

    def _build(self, config: dict) -> None:
        # A reset replaces the manager wholesale; backends holding
        # process-global state (the native adapters) must tear the old
        # instance down before a new one can claim the library.
        old_close = getattr(getattr(self, "mgr", None), "close", None)
        if old_close is not None:
            old_close()
        self.mgr = create_manager(
            config.get("backend", "python"),
            max_nodes=config.get("max_nodes"),
            gc_policy=GcPolicy(mode=config.get("gc", "static")),
            reorder_policy=ReorderPolicy(mode=config.get("reorder", "off")),
        )
        self.handles: dict[int, int] = {}
        self.plans: dict[int, tuple] = {}
        # Resident registry: handle -> [edge, refcount].  Entries are
        # pinned against worker GC/reordering until released.  Dict
        # insertion order doubles as the LRU for the spill policy:
        # touched entries are re-inserted at the MRU end.
        self.resident: dict[int, list] = {}
        # Bounded-memory residency (repro.eqn.residency discipline on
        # the worker side): when the pinned resident-ψ node estimate
        # exceeds ``resident_budget``, cold entries are spilled to a
        # content-addressed store and reloaded transparently on the next
        # touch.  ``spilled``: handle -> [content key, refcount].
        budget = config.get("resident_budget")
        self.resident_budget = int(budget) if budget else None
        self.spill_dir = config.get("spill_dir")
        self.spilled: dict[int, list] = {}
        self._sizes: dict[int, int] = {}
        self._resident_nodes = 0
        # Admit-time sizes of the entries spilled since the last
        # budget-driven sweep (the coordinator's cadence rule).
        self._unswept_nodes = 0
        self.psi_spills = 0
        self.psi_reloads = 0
        self.close_spill()
        self._spill = None
        self._spill_owned = False

    def close_spill(self) -> None:
        """Remove the spill directory if this worker owns it."""
        if self._spill is not None and self._spill_owned:
            self._spill.close()

    # -- the spill policy ---------------------------------------------- #

    def _spill_store(self):
        """The worker's spill store, created on first use.

        With a coordinator-provided ``spill_dir`` the store is shared
        (content addressing makes concurrent workers idempotent); without
        one each worker owns a private temporary directory.
        """
        if self._spill is None:
            from repro.eqn.residency import SpillStore

            self._spill = SpillStore(self.spill_dir)
            self._spill_owned = self.spill_dir is None
        return self._spill

    def _admit_resident(self, handle: int, edge: int, count: int) -> None:
        self.resident[handle] = [edge, count]
        if self.resident_budget is not None:
            size = self.mgr.size(edge)
            self._sizes[handle] = size
            self._resident_nodes += size

    def _drop_resident(self, handle: int) -> None:
        del self.resident[handle]
        self._resident_nodes -= self._sizes.pop(handle, 0)

    def _touch_resident(self, handle: int) -> int:
        """The pinned edge of a resident handle, reloading if spilled."""
        entry = self.resident.get(handle)
        if entry is not None:
            if self.resident_budget is not None:
                self.resident[handle] = self.resident.pop(handle)  # MRU
            return entry[0]
        key, count = self.spilled.pop(handle)
        edge = load_function_packed(self.mgr, self._spill_store().get(key))
        self.mgr.ref(edge)
        self._admit_resident(handle, edge, count)
        self.psi_reloads += 1
        return edge

    def _spill_resident(self, handle: int) -> None:
        """Move one resident entry to the spill store (keeps its count)."""
        edge, count = self.resident[handle]
        blob = dump_function_packed(self.mgr, edge)
        key, _written = self._spill_store().put(blob)
        self.psi_spills += 1
        self._drop_resident(handle)
        self.spilled[handle] = [key, count]
        self.mgr.deref(edge)

    def _enforce_budget(self) -> None:
        """Spill LRU resident entries until the estimate fits the budget."""
        if self.resident_budget is None:
            return
        while self._resident_nodes > self.resident_budget and self.resident:
            handle = next(iter(self.resident))
            self._unswept_nodes += self._sizes[handle]
            self._spill_resident(handle)
        # Spilled nodes only go away in a sweep, and the adaptive GC
        # policy may never arm at budget-sized scales: sweep once a
        # budget's worth has piled up, not after every spill.
        if self._unswept_nodes >= self.resident_budget:
            self._unswept_nodes = 0
            self.mgr.collect_garbage()

    # Each handler returns the reply payload. ------------------------------ #

    def op_vars(self, names: list[str]) -> int:
        for name in names:
            self.mgr.add_var(name)
        return self.mgr.num_vars

    def _store(self, handle: int, edge: int) -> None:
        old = self.handles.get(handle)
        if old is not None:
            self.mgr.deref(old)
        self.handles[handle] = self.mgr.ref(edge)

    def op_load(self, handle: int, snapshot: dict) -> None:
        (edge,) = self.mgr.load_nodes(snapshot)
        self._store(handle, edge)

    def op_dump(self, handle: int) -> dict:
        edge = self.handles.get(handle)
        if edge is None:
            edge = self._touch_resident(handle)
        return self.mgr.dump_nodes([edge])

    def op_free(self, handles: list[int]) -> None:
        for handle in handles:
            edge = self.handles.pop(handle, None)
            if edge is not None:
                self.mgr.deref(edge)

    def op_retain(self, handle: int, snapshot: dict | None = None) -> int:
        entry = self.resident.get(handle)
        if entry is not None:
            entry[1] += 1
            return entry[1]
        spilled = self.spilled.get(handle)
        if spilled is not None:
            # Already on disk: bump the count without materializing.
            spilled[1] += 1
            return spilled[1]
        if snapshot is None:
            raise ReproError(
                f"retain: handle {handle} is not resident and no snapshot given"
            )
        (edge,) = self.mgr.load_nodes(snapshot)
        self.mgr.ref(edge)
        self._admit_resident(handle, edge, 1)
        self._enforce_budget()
        return 1

    def op_release(self, handles: list[int]) -> int:
        freed = 0
        for handle in handles:
            entry = self.resident.get(handle)
            if entry is None:
                spilled = self.spilled.get(handle)
                if spilled is None:
                    continue
                spilled[1] -= 1
                if spilled[1] <= 0:
                    # The blob stays in the (content-addressed) store;
                    # only the registry entry dies.
                    del self.spilled[handle]
                    freed += 1
                continue
            entry[1] -= 1
            if entry[1] <= 0:
                self.mgr.deref(entry[0])
                self._drop_resident(handle)
                freed += 1
        return freed

    def op_expand_batch(self, plan_id: int, items: list) -> list[dict]:
        mgr = self.mgr
        plan = self.plans[plan_id]
        out: list[dict] = []
        for item in items:
            if isinstance(item, (tuple, list)):
                handle, spec = item
                constraint = self._touch_resident(handle)
                if spec:
                    cube = mgr.cube(
                        {mgr.var_index(name): int(bit) for name, bit in spec.items()}
                    )
                    constraint = mgr.apply_and(constraint, cube)
            else:
                constraint = self._touch_resident(item)
            with mgr.protect(constraint):
                result = image_with_plan(mgr, plan, constraint, gc=True)
            # Snapshot immediately: the result edge itself is a per-call
            # intermediate that the next collection may reclaim.
            out.append(mgr.dump_nodes([result]))
            # Bound the registry *during* the batch too: a reload above
            # may have pushed the estimate back over budget.
            self._enforce_budget()
        mgr.maybe_collect_garbage()
        return out

    def op_spill(self, handles: list[int] | None = None) -> int:
        """Force-spill resident entries (all of them when unnamed).

        The test-facing counterpart of the transparent budget path: the
        round-trip suites spill, GC, sift and reload deterministically
        without having to engineer a budget overflow.
        """
        targets = list(self.resident) if handles is None else handles
        spilled = 0
        for handle in targets:
            if handle in self.resident:
                self._spill_resident(handle)
                spilled += 1
        return spilled

    def op_plan(
        self,
        plan_id: int,
        part_handles: list[int],
        quantify_names: list[str],
        support_names: list[str],
    ) -> None:
        mgr = self.mgr
        parts = [self.handles[h] for h in part_handles]
        quantify = [mgr.var_index(n) for n in quantify_names]
        support = {mgr.var_index(n) for n in support_names}
        # plan_image pins the plan's (clustered) parts itself.  Plan ids
        # are never reused, so the pins live as long as the manager,
        # which ``reset`` replaces wholesale.
        self.plans[plan_id] = plan_image(mgr, parts, quantify, support)

    def op_reset(self, overrides: dict | None = None) -> int:
        """Rebuild the manager from the spawn config (+ overrides).

        Dropping the whole manager (instead of freeing registries one by
        one) guarantees no state leaks between jobs: node table,
        computed table, variable order and policies all start fresh.
        Returns the number of variables afterwards (always 0 — the next
        job's ``vars`` command declares its own order).
        """
        config = dict(self.config)
        config.update(overrides or {})
        self._build(config)
        return self.mgr.num_vars

    def op_stats(self) -> dict:
        stats = self.mgr.stats
        return {
            "live_nodes": stats["live_nodes"],
            "peak_live_nodes": stats["peak_live_nodes"],
            "gc_runs": stats["gc_runs"],
            "reorder_runs": stats["reorder_runs"],
            "max_nodes": self.mgr.max_nodes,
            "handles": len(self.handles),
            "resident": len(self.resident),
            "spilled": len(self.spilled),
            "resident_nodes": self._resident_nodes,
            "resident_budget": self.resident_budget,
            "psi_spills": self.psi_spills,
            "psi_reloads": self.psi_reloads,
            "plans": len(self.plans),
        }

    def op_gc(self) -> int:
        return self.mgr.collect_garbage()

    def op_sift(self) -> dict:
        result = self.mgr.sift_now()
        return {
            "swaps": result.swaps,
            "size_before": result.size_before,
            "size_after": result.size_after,
            "vars_sifted": result.vars_sifted,
        }


def _command_meta(op: str, t0: float) -> dict:
    """The timing stamp attached to every reply (see module docstring)."""
    return {
        "op": op,
        "pid": os.getpid(),
        "t0": t0,
        "t1": time.perf_counter(),
    }


def worker_main(conn, config: dict) -> None:
    """Run one worker's command loop until ``shutdown`` or pipe closure.

    Exceptions raised by a command are caught, logged through
    :mod:`repro.obs.log` (previously they were silent worker-side) and
    reported as ``("err", traceback, meta)`` replies, so a bad command
    never kills the worker; only losing the pipe (coordinator death) or
    ``shutdown`` ends the loop.  Every reply — success or error —
    carries the per-command timing stamp for the coordinator's trace.
    """
    state = _WorkerState(config)
    ops = {
        "vars": state.op_vars,
        "load": state.op_load,
        "dump": state.op_dump,
        "free": state.op_free,
        "retain": state.op_retain,
        "release": state.op_release,
        "expand_batch": state.op_expand_batch,
        "spill": state.op_spill,
        "plan": state.op_plan,
        "reset": state.op_reset,
        "stats": state.op_stats,
        "gc": state.op_gc,
        "sift": state.op_sift,
    }
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            if op == "shutdown":
                conn.send(("ok", None))
                break
            handler = ops.get(op)
            t0 = time.perf_counter()
            try:
                if handler is None:
                    raise ReproError(f"unknown shard command {op!r}")
                payload = handler(*msg[1:])
                conn.send(("ok", payload, _command_meta(op, t0)))
            except BaseException:
                _log.exception("shard command failed", op=op, pid=os.getpid())
                try:
                    conn.send(
                        ("err", traceback.format_exc(), _command_meta(op, t0))
                    )
                except (OSError, BrokenPipeError):  # pragma: no cover
                    break
    finally:
        # A worker spawned without a ``spill_dir`` owns a private
        # temporary store; it must not outlive the worker.
        state.close_spill()
        conn.close()
