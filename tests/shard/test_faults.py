"""Dead-worker fault injection on the sharded dispatch path.

A shard worker is SIGKILLed during a sharded johnson12 solve
(``shards=2``, ``bfs/8``) at the two places the coordinator talks to
it: between batches (the next ``retain`` is sent into a dead pipe) and
while the coordinator is blocked in
:meth:`~repro.shard.pool.ShardPool.collect` on a batch's image replies
(it reads whatever the worker replied before it died, then fails on
the first missing reply).  Either way the solve must fail fast with
:class:`~repro.shard.pool.ShardError` and leave no worker behind; the
job server must fail the job and re-fork its warm pool for the next.
A stopped-then-killed worker pins the reply-never-arrives path alone.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.bench import circuits
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.solver import solve_equation
from repro.network.blif import write_blif
from repro.serve import ServeApp
from repro.shard import ShardError, ShardPool, ShardedImage

X_LATCHES = [f"j{k}" for k in range(1, 12, 2)]
SOLVE = {"shards": 2, "frontier": "bfs", "batch": 8}


class Killer:
    """SIGKILLs one live shard worker, once, and records when."""

    def __init__(self) -> None:
        self.killed_at: float | None = None

    def __call__(self, *_args) -> None:
        if self.killed_at is not None:
            return
        victim = mp.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        assert not victim.is_alive()
        self.killed_at = time.perf_counter()


def _solve(**hooks):
    problem = build_latch_split_problem(circuits.johnson(12), X_LATCHES)
    return solve_equation(problem, method="partitioned", **SOLVE, **hooks)


def _assert_fails_fast(killer: Killer, **hooks) -> None:
    with pytest.raises(ShardError, match=r"shard \d+ (is gone|died)"):
        _solve(**hooks)
    assert killer.killed_at is not None
    assert time.perf_counter() - killer.killed_at < 10
    # The owned pool is closed and every worker reaped.
    assert mp.active_children() == []


def test_worker_killed_between_batches() -> None:
    killer = Killer()
    _assert_fails_fast(killer, progress=killer)


def test_worker_killed_while_collecting_images(monkeypatch) -> None:
    killer = Killer()
    collect, join = ShardPool.collect, ShardedImage.join
    joining = []

    def killing_collect(pool, shard):
        if joining:  # a batch's P image replies are being collected
            killer()
        return collect(pool, shard)

    def tracked_join(image, deal, count):
        joining.append(True)
        try:
            return join(image, deal, count)
        finally:
            joining.pop()

    monkeypatch.setattr(ShardPool, "collect", killing_collect)
    monkeypatch.setattr(ShardedImage, "join", tracked_join)
    _assert_fails_fast(killer)


def test_pending_reply_from_killed_worker_raises() -> None:
    with ShardPool(1, ["a"]) as pool:
        (worker,) = mp.active_children()
        # Stopped, the worker cannot answer the command sent next.
        os.kill(worker.pid, signal.SIGSTOP)
        pool.submit(0, ("stats",))
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=5)
        assert pool.wait_any([0]) == [0]
        with pytest.raises(ShardError, match="died mid-command"):
            pool.collect(0)
    assert mp.active_children() == []


def _wait_terminal(job, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while job.status not in ("done", "failed", "cancelled"):
        assert time.monotonic() < deadline, f"job stuck in {job.status}"
        time.sleep(0.02)
    return job


def test_server_fails_the_job_and_reforks_the_pool(tmp_path) -> None:
    killer = Killer()
    body = {
        "blif": write_blif(circuits.johnson(12)),
        "x_latches": X_LATCHES,
        **SOLVE,
    }
    app = ServeApp(str(tmp_path / "cache"), batch_hook=killer)
    try:
        failed = _wait_terminal(app.submit(body))
        assert failed.status == "failed"
        assert "ShardError" in failed.error
        broken = app.executor.pool
        done = _wait_terminal(app.submit(body))
        assert done.status == "done"
        assert app.executor.pool is not broken
    finally:
        app.close()
    assert mp.active_children() == []
