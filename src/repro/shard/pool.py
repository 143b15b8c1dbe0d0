"""The coordinator-side worker pool of the sharded runtime.

:class:`ShardPool` spawns ``num_shards`` persistent worker processes
(:func:`repro.shard.worker.worker_main`), each owning an independent
shard :class:`~repro.bdd.manager.BddManager`, and talks to them over
pipes.  The pool is deliberately low-level — submit a command, collect a
reply — so callers can pipeline: sending a command to every shard and
*then* collecting the replies is what lets the workers compute
concurrently.  A send never waits on a worker that is itself waiting
to hand back an earlier reply: when the pipe is full, the replies
ready on it are read ahead into that shard's inbox, which
:meth:`ShardPool.collect` serves first.

The pool is a context manager; :meth:`close` (or ``__exit__``) shuts the
workers down and reaps the processes.  Workers are daemonic, so an
abandoned pool can never outlive the coordinator.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import select
import struct
from collections import Counter, deque
from collections.abc import Sequence
from multiprocessing.connection import wait as _conn_wait
from multiprocessing.reduction import ForkingPickler

from repro.errors import ReproError
from repro.obs.trace import current_tracer
from repro.shard.worker import worker_main


class ShardError(ReproError):
    """A shard worker failed or died mid-command."""


def pool_opts(mgr) -> dict:
    """:class:`ShardPool` settings for workers serving ``mgr``'s problem.

    Workers inherit the coordinator's node budget and backend: the CNC
    mechanism (``max_nodes``) must bound the shard managers too, or an
    exploding conjunction would grow unchecked in a worker the resource
    limit cannot see.
    """
    return {
        "max_nodes": mgr.max_nodes,
        "backend": getattr(mgr, "backend_name", "python"),
    }


class ShardPool:
    """A set of persistent shard workers, addressed by index.

    Parameters
    ----------
    num_shards:
        Number of worker processes (≥ 1).
    var_names:
        Variable order declared in every shard manager, top to bottom —
        normally the coordinator's ``mgr.var_order()``.  Snapshots travel
        by variable *name*, so the wire format never depends on a
        manager's internal variable indices.
    max_nodes:
        Per-shard node budget (every worker manager runs the kernel's
        default GC trigger).
    backend:
        BDD backend every shard manager is constructed on
        (:func:`repro.bdd.backends.create_manager`): a native backend
        multiplies its speedup by the worker count, and since workers
        fall back to pure Python independently (with the same one-shot
        warning), a heterogeneous install still computes identical
        results.
    start_method:
        ``multiprocessing`` start method; the default ``"fork"`` (cheap,
        no re-import) falls back to the platform default where fork is
        unavailable.
    """

    def __init__(
        self,
        num_shards: int,
        var_names: Sequence[str],
        *,
        max_nodes: int | None = None,
        backend: str = "python",
        start_method: str = "fork",
    ) -> None:
        if num_shards < 1:
            raise ShardError(f"ShardPool needs at least one shard, got {num_shards}")
        try:
            ctx = mp.get_context(start_method)
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        config = {
            "max_nodes": max_nodes,
            "backend": backend,
        }
        self._conns = []
        self._procs = []
        # Replies submitted for and not yet collected, per shard; the
        # inbox holds those already read off the pipe, oldest first.
        self._pending = [0] * num_shards
        self._inbox: list[deque] = [deque() for _ in range(num_shards)]
        self._next_handle = 0
        self._closed = False
        #: Commands submitted so far, keyed by op name.  The transfer
        #: accounting of the batched subset engine asserts on these
        #: (e.g. one ``retain`` per shard per subset state and not one
        #: snapshot per expansion).
        self.op_counts: Counter = Counter()
        try:
            for _ in range(num_shards):
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=worker_main, args=(child, config), daemon=True
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
            self.broadcast(("vars", list(var_names)))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        return len(self._procs)

    def new_handle(self) -> int:
        """Allocate a fresh registry handle (unique across all shards)."""
        self._next_handle += 1
        return self._next_handle

    def submit(self, shard: int, msg: tuple) -> None:
        """Send a command to ``shard`` without waiting for the reply.

        The worker serves one command at a time and must finish sending
        a reply before it reads on.  So while the pipe to the worker is
        full, the replies the worker has ready are read into the shard's
        inbox: a large command queued behind a large uncollected reply
        cannot leave both processes waiting on each other.
        """
        if self._closed:
            raise ShardError("ShardPool is closed")
        try:
            self._send(shard, ForkingPickler.dumps(msg))
        except (OSError, BrokenPipeError) as exc:
            raise ShardError(f"shard {shard} is gone: {exc}") from exc
        self._pending[shard] += 1
        self.op_counts[msg[0]] += 1

    def _send(self, shard: int, payload: memoryview) -> None:
        """Write one message in ``Connection.send_bytes`` framing."""
        conn = self._conns[shard]
        if not hasattr(select, "poll"):  # pragma: no cover - non-POSIX
            conn.send_bytes(payload)
            return
        n = len(payload)
        if n > 0x7FFFFFFF:
            header = struct.pack("!iQ", -1, n)
        else:
            header = struct.pack("!i", n)
        fd = conn.fileno()
        poller = select.poll()
        poller.register(fd, select.POLLIN | select.POLLOUT)
        os.set_blocking(fd, False)
        try:
            view = memoryview(header + payload)
            while view:
                try:
                    view = view[os.write(fd, view):]
                except BlockingIOError:
                    for _fd, events in poller.poll():
                        if events & ~select.POLLOUT:
                            # A reply (or the worker's EOF) is waiting.
                            os.set_blocking(fd, True)
                            self._inbox[shard].append(self._recv(shard))
                            os.set_blocking(fd, False)
        finally:
            os.set_blocking(fd, True)

    def _recv(self, shard: int):
        try:
            return self._conns[shard].recv()
        except (EOFError, OSError) as exc:
            self._pending[shard] = 0
            self._inbox[shard].clear()
            raise ShardError(f"shard {shard} died mid-command: {exc}") from exc

    def _drain(self, shard: int) -> None:
        """Discard every reply still owed by ``shard``."""
        self._pending[shard] -= len(self._inbox[shard])
        self._inbox[shard].clear()
        while self._pending[shard] > 0:
            self._conns[shard].recv()
            self._pending[shard] -= 1

    def collect(self, shard: int):
        """Receive one pending reply from ``shard`` (FIFO order).

        A reply read ahead by :meth:`submit` is served from the inbox.

        When a tracer is installed (:func:`repro.obs.trace.install_tracer`)
        the worker's per-command timing stamp — the third reply element —
        is merged into the coordinator trace as a span on that worker's
        pid-tagged track; stamp-less two-element replies stay accepted.
        """
        if self._pending[shard] <= 0:
            raise ShardError(f"shard {shard} has no pending reply")
        inbox = self._inbox[shard]
        reply = inbox.popleft() if inbox else self._recv(shard)
        self._pending[shard] -= 1
        status, payload = reply[0], reply[1]
        if len(reply) > 2 and reply[2] is not None:
            tracer = current_tracer()
            if tracer is not None:
                meta = dict(reply[2])
                meta["shard"] = shard
                tracer.add_worker_event(meta)
        if status != "ok":
            raise ShardError(f"shard {shard} failed:\n{payload}")
        return payload

    def call(self, shard: int, msg: tuple):
        """Send one command and wait for its reply."""
        self.submit(shard, msg)
        return self.collect(shard)

    def broadcast(self, msg: tuple) -> list:
        """Send ``msg`` to every shard, then gather all replies.

        Submitting everything before collecting anything is the pool's
        concurrency primitive: all workers run the command in parallel.
        """
        for shard in range(self.num_shards):
            self.submit(shard, msg)
        return [self.collect(shard) for shard in range(self.num_shards)]

    def wait_any(self, shards: Sequence[int]) -> list[int]:
        """Block until at least one of ``shards`` has a reply ready.

        Returns the subset of ``shards`` whose pipes are readable, in
        shard order.  Only shards with pending replies are watched; if
        none of the given shards has pending traffic, raises
        :class:`ShardError` (the caller's bookkeeping is off).  No solve
        waits here: a batch collects its replies in submission order.
        It is kept because ``perfbench/layers.py`` wraps it by name as a
        shard-wait boundary.
        """
        watched = {
            self._conns[s]: s for s in shards if self._pending[s] > 0
        }
        if not watched:
            raise ShardError("wait_any: no watched shard has a pending reply")
        queued = [s for s in watched.values() if self._inbox[s]]
        if queued:
            return sorted(queued)
        ready = _conn_wait(list(watched))
        return sorted(watched[conn] for conn in ready)

    def stats(self) -> list[dict]:
        """Per-shard manager statistics (live nodes, GC runs, ...)."""
        return self.broadcast(("stats",))

    def reset(self, var_names: Sequence[str], **config) -> None:
        """Reset every worker for a new job without restarting processes.

        Each worker rebuilds its manager from its spawn config with
        ``config`` (``max_nodes`` / ``backend``) merged on top,
        dropping all handles, resident entries and plans, then declares
        ``var_names`` as the fresh variable order.  Pending replies are
        drained first so a reset after a failed or cancelled job cannot
        interleave with stale traffic.  The op counters keep
        accumulating across jobs (callers snapshot-and-diff them).
        """
        if self._closed:
            raise ShardError("ShardPool is closed")
        for shard in range(self.num_shards):
            try:
                self._drain(shard)
            except (EOFError, OSError) as exc:
                raise ShardError(f"shard {shard} died before reset: {exc}") from exc
        self.broadcast(("reset", dict(config)))
        self.broadcast(("vars", list(var_names)))

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut every worker down and reap the processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard, conn in enumerate(self._conns):
            try:
                # Drain pending replies so the shutdown ack is unambiguous.
                self._drain(shard)
                conn.send(("shutdown",))
                conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
            finally:
                conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<ShardPool shards={self.num_shards} {state}>"
