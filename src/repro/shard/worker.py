"""The shard worker: one process, one manager, one command loop.

A worker is spawned by :class:`repro.shard.pool.ShardPool` with a
connection (one end of a ``multiprocessing.Pipe``) and a config dict.
It builds its own shard manager — on whichever BDD backend the config
names (:func:`repro.bdd.backends.create_manager`; a native backend
multiplies its speedup by the worker count), with its own computed
table and the kernel's default GC trigger, entirely independent of the
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
    so they survive worker-side garbage collection; the reply is the
    new count.  This is how the subset driver's ψ snapshots cross the
    wire exactly once per subset.  The driver retains a batch's ψ and
    releases them when the batch ends, so a worker holds at most one
    batch; bounding the ψ table is the coordinator's job
    (:class:`repro.eqn.residency.ResidencyManager`).
``("release", handles)``
    Drop one reference from each resident handle; an entry whose count
    reaches zero is deref'd and forgotten.  Replies with the number of
    entries actually freed.
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
``("shutdown",)``
    Acknowledge and exit the loop.
"""

from __future__ import annotations

import gc
import os
import time
import traceback

from repro.bdd.backends import create_manager
from repro.errors import ReproError
from repro.obs.log import get_logger
from repro.symb.image import image_with_plan, plan_image

_log = get_logger("repro.shard.worker")


class _WorkerState:
    """Manager + registries behind one worker's command loop."""

    def __init__(self, config: dict) -> None:
        self.config = dict(config)
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
        )
        self.handles: dict[int, int] = {}
        self.plans: dict[int, tuple] = {}
        # Resident registry: handle -> [edge, refcount].  Entries are
        # pinned against worker GC until released.
        self.resident: dict[int, list] = {}

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
            edge = self.resident[handle][0]
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
        if snapshot is None:
            raise ReproError(
                f"retain: handle {handle} is not resident and no snapshot given"
            )
        (edge,) = self.mgr.load_nodes(snapshot)
        self.resident[handle] = [self.mgr.ref(edge), 1]
        return 1

    def op_release(self, handles: list[int]) -> int:
        freed = 0
        for handle in handles:
            entry = self.resident.get(handle)
            if entry is None:
                continue
            entry[1] -= 1
            if entry[1] <= 0:
                self.mgr.deref(entry[0])
                del self.resident[handle]
                freed += 1
        return freed

    def op_expand_batch(self, plan_id: int, items: list) -> list[dict]:
        mgr = self.mgr
        plan = self.plans[plan_id]
        out: list[dict] = []
        for item in items:
            if isinstance(item, (tuple, list)):
                handle, spec = item
                constraint = self.resident[handle][0]
                if spec:
                    cube = mgr.cube(
                        {mgr.var_index(name): int(bit) for name, bit in spec.items()}
                    )
                    constraint = mgr.apply_and(constraint, cube)
            else:
                constraint = self.resident[item][0]
            with mgr.protect(constraint):
                result = image_with_plan(mgr, plan, constraint, gc=True)
            # Snapshot immediately: the result edge itself is a per-call
            # intermediate that the next collection may reclaim.
            out.append(mgr.dump_nodes([result]))
        mgr.maybe_collect_garbage()
        return out

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
        # The old manager is a reference cycle: free it now, not at
        # some later gen-2 pass.
        gc.collect()
        return self.mgr.num_vars

    def op_stats(self) -> dict:
        stats = self.mgr.stats
        return {
            "live_nodes": stats["live_nodes"],
            "peak_live_nodes": stats["peak_live_nodes"],
            "gc_runs": stats["gc_runs"],
            "max_nodes": self.mgr.max_nodes,
            "handles": len(self.handles),
            "resident": len(self.resident),
            "plans": len(self.plans),
        }

    def op_gc(self) -> int:
        return self.mgr.collect_garbage()


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
        "plan": state.op_plan,
        "reset": state.op_reset,
        "stats": state.op_stats,
        "gc": state.op_gc,
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
        conn.close()
