"""Checkpoint / resume: kill a solve mid-flight, finish it later.

Two layers:

* solver-level — drive :func:`repro.eqn.solver.solve_latch_split` with
  the checkpoint hooks directly, cancel after a couple of batches, and
  prove a resumed run completes to the *identical* CSF (KISS text is
  byte-compared, so state numbering must be reproduced, not just the
  language);
* server-level — the full "kill -9 the server" story: cancel a
  checkpointing job, close the app, start a fresh :class:`ServeApp`
  over the same cache directory and resubmit.  The new job must emit a
  ``resume`` event, report ``resumed=True``, and produce the same KISS
  as an uninterrupted solve.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.automata.kiss import write_kiss
from repro.bench import S27_BLIF
from repro.errors import SolveCancelled
from repro.eqn.solver import solve_latch_split
from repro.eqn.subset import CHECKPOINT_FORMAT
from repro.network.blif import parse_blif
from repro.serve import ServeApp
from tests.serve.test_store import flip_body_byte

X = ["G6", "G7"]


def wait_terminal(job, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while job.status not in ("done", "failed", "cancelled"):
        if time.monotonic() > deadline:
            raise AssertionError(f"job stuck in {job.status!r}")
        time.sleep(0.01)
    return job


@pytest.fixture(scope="module")
def reference_kiss() -> str:
    result = solve_latch_split(parse_blif(S27_BLIF), X, batch=1)
    return write_kiss(result.csf)


class TestSolverLevel:
    def cancelled_run(self, *, stop_after: int, **kwargs):
        """Run until ``stop_after`` batches, collecting checkpoints."""
        snapshots = []
        seen = {"batches": 0}

        def on_progress(event):
            seen["batches"] = event["batches"]

        def cancel():
            return seen["batches"] >= stop_after

        with pytest.raises(SolveCancelled):
            solve_latch_split(
                parse_blif(S27_BLIF),
                X,
                batch=1,
                progress=on_progress,
                cancel=cancel,
                checkpoint=snapshots.append,
                checkpoint_every=1,
                **kwargs,
            )
        return snapshots

    def test_resume_completes_to_identical_csf(self, reference_kiss) -> None:
        snapshots = self.cancelled_run(stop_after=2)
        assert snapshots, "solve must checkpoint before being cancelled"
        snapshot = snapshots[-1]
        assert snapshot["format"] == CHECKPOINT_FORMAT
        assert snapshot["frontier"], "mid-solve snapshot has pending work"
        resumed = solve_latch_split(
            parse_blif(S27_BLIF), X, batch=1, resume=snapshot
        )
        assert write_kiss(resumed.csf) == reference_kiss

    def test_resume_skips_already_done_batches(self, reference_kiss) -> None:
        snapshot = self.cancelled_run(stop_after=3)[-1]
        done_before = snapshot["stats"]["batches"]
        resumed = solve_latch_split(
            parse_blif(S27_BLIF), X, batch=1, resume=snapshot
        )
        # Counters continue from the snapshot instead of starting over,
        # and the resumed leg alone is shorter than a cold solve.
        cold = solve_latch_split(parse_blif(S27_BLIF), X, batch=1)
        assert resumed.stats.batches == cold.stats.batches
        assert resumed.stats.subsets == cold.stats.subsets
        assert done_before > 0

    def test_checkpoint_seconds_fires_without_batch_cadence(
        self, reference_kiss
    ) -> None:
        """A wall-clock cadence alone must produce snapshots."""
        snapshots = []
        result = solve_latch_split(
            parse_blif(S27_BLIF),
            X,
            batch=1,
            checkpoint=snapshots.append,
            checkpoint_seconds=1e-6,  # every batch boundary is "due"
        )
        assert snapshots, "wall-clock cadence never fired"
        assert all(s["format"] == CHECKPOINT_FORMAT for s in snapshots)
        assert write_kiss(result.csf) == reference_kiss

    def test_whichever_cadence_fires_first(self) -> None:
        """A huge batch cadence must not mask a due wall-clock one."""
        snapshots = []
        solve_latch_split(
            parse_blif(S27_BLIF),
            X,
            batch=1,
            checkpoint=snapshots.append,
            checkpoint_every=10**6,
            checkpoint_seconds=1e-6,
        )
        assert snapshots

    def test_checkpoint_restores_spilled_states(self, reference_kiss) -> None:
        """Snapshots under a resident budget carry the *full* table.

        Eviction must be invisible to resume: the driver reloads every
        spilled ψ before snapshotting, so a solve resumed from a
        budgeted run's checkpoint completes byte-identically.
        """
        snapshots = self.cancelled_run(stop_after=3, resident_budget=1)
        snapshot = snapshots[-1]
        resumed = solve_latch_split(
            parse_blif(S27_BLIF), X, batch=1, resume=snapshot, resident_budget=1
        )
        assert write_kiss(resumed.csf) == reference_kiss
        assert resumed.stats.extra["resident_budget"] == 1

    def test_resume_under_a_different_strategy_is_rejected(self) -> None:
        snapshot = self.cancelled_run(stop_after=2)[-1]
        from repro.errors import EquationError

        with pytest.raises(EquationError, match="strategy"):
            solve_latch_split(
                parse_blif(S27_BLIF), X, batch=1, frontier="bfs", resume=snapshot
            )


class TestServerLevel:
    def test_kill_restart_resume_identical_csf(
        self, tmp_path, reference_kiss
    ) -> None:
        body = {
            "blif": S27_BLIF,
            "x_latches": X,
            "batch": 1,
            "checkpoint_every": 1,
        }
        # Leg one: cancel after the second checkpoint has been written.
        def hook(job, event):
            if event["batches"] >= 2:
                job.cancel_event.set()

        app = ServeApp(str(tmp_path / "cache"), batch_hook=hook)
        try:
            job = wait_terminal(app.submit(body))
            assert job.status == "cancelled"
            assert app.store.get_checkpoint(job.key) is not None
            assert app.store.get(job.key) is None  # no result was cached
            key = job.key
        finally:
            app.close()  # the "kill": executor gone, pool closed

        # Leg two: a fresh server over the same cache directory.
        app2 = ServeApp(str(tmp_path / "cache"))
        try:
            job2 = wait_terminal(app2.submit(body))
            assert job2.status == "done"
            assert job2.resumed is True
            kinds = [e["type"] for e in job2.events]
            assert "resume" in kinds
            assert kinds.index("resume") < kinds.index("progress")
            assert write_kiss_from_store(app2, key) == reference_kiss
            # Success consumed the checkpoint.
            assert app2.store.get_checkpoint(key) is None
        finally:
            app2.close()

    def test_no_resume_option_ignores_the_checkpoint(self, tmp_path) -> None:
        body = {
            "blif": S27_BLIF,
            "x_latches": X,
            "batch": 1,
            "checkpoint_every": 1,
        }

        def hook(job, event):
            if event["batches"] >= 2:
                job.cancel_event.set()

        app = ServeApp(str(tmp_path / "cache"), batch_hook=hook)
        try:
            job = wait_terminal(app.submit(body))
            assert app.store.get_checkpoint(job.key) is not None
        finally:
            app.close()

        app2 = ServeApp(str(tmp_path / "cache"))
        try:
            job2 = wait_terminal(app2.submit({**body, "resume": False}))
            assert job2.status == "done"
            assert job2.resumed is False
            assert "resume" not in [e["type"] for e in job2.events]
        finally:
            app2.close()


class TestDamagedStore:
    """A damaged result or checkpoint is re-solved, never a failed job."""

    BODY = {"blif": S27_BLIF, "x_latches": X, "batch": 1, "checkpoint_every": 1}

    def test_truncated_result_is_resolved(self, tmp_path, reference_kiss) -> None:
        app = ServeApp(str(tmp_path / "cache"))
        try:
            job = wait_terminal(app.submit(self.BODY))
            assert job.status == "done" and not job.cached
            path = app.store.path_for(job.key)
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            job2 = wait_terminal(app.submit(self.BODY))
            assert job2.status == "done"
            assert job2.cached is False  # the damaged entry was a miss
            assert write_kiss_from_store(app, job.key) == reference_kiss
        finally:
            app.close()

    def test_flipped_result_byte_is_resolved(self, tmp_path, reference_kiss) -> None:
        app = ServeApp(str(tmp_path / "cache"))
        try:
            job = wait_terminal(app.submit(self.BODY))
            flip_body_byte(app.store.path_for(job.key))
            job2 = wait_terminal(app.submit(self.BODY))
            assert job2.status == "done"
            assert job2.cached is False  # the digest caught the flip
            assert write_kiss_from_store(app, job.key) == reference_kiss
        finally:
            app.close()

    def test_old_layout_result_is_dropped_logged_and_resolved(
        self, tmp_path, caplog, reference_kiss
    ) -> None:
        """An entry in the old one-pickle layout is deleted, logged once
        and re-solved."""
        app = ServeApp(str(tmp_path / "cache"))
        try:
            job = wait_terminal(app.submit(self.BODY))
            path = app.store.path_for(job.key)
            payload = app.store.get(job.key)
            path.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            with caplog.at_level("WARNING", logger="repro.serve.store"):
                job2 = wait_terminal(app.submit(self.BODY))
            assert job2.status == "done"
            assert job2.cached is False
            assert [
                r.getMessage() for r in caplog.records if r.name == "repro.serve.store"
            ] == ["dropping damaged store entry"]
            assert write_kiss_from_store(app, job.key) == reference_kiss
        finally:
            app.close()

    def test_checkpoint_with_bad_digest_solves_from_scratch(
        self, tmp_path, reference_kiss
    ) -> None:
        def hook(job, event):
            if event["batches"] >= 2:
                job.cancel_event.set()

        app = ServeApp(str(tmp_path / "cache"), batch_hook=hook)
        try:
            job = wait_terminal(app.submit(self.BODY))
            assert job.status == "cancelled"
            path = app.store.checkpoint_path(job.key)
        finally:
            app.close()
        flip_body_byte(path)

        app2 = ServeApp(str(tmp_path / "cache"))
        try:
            job2 = wait_terminal(app2.submit(self.BODY))
            assert job2.status == "done"
            assert job2.resumed is False
            assert "resume" not in [e["type"] for e in job2.events]
            assert write_kiss_from_store(app2, job.key) == reference_kiss
        finally:
            app2.close()

    def test_garbage_checkpoint_solves_from_scratch(
        self, tmp_path, reference_kiss
    ) -> None:
        def hook(job, event):
            if event["batches"] >= 2:
                job.cancel_event.set()

        app = ServeApp(str(tmp_path / "cache"), batch_hook=hook)
        try:
            job = wait_terminal(app.submit(self.BODY))
            assert job.status == "cancelled"
            path = app.store.checkpoint_path(job.key)
            assert path.is_file()
        finally:
            app.close()
        path.write_bytes(b"\x80\x05garbage")

        app2 = ServeApp(str(tmp_path / "cache"))
        try:
            job2 = wait_terminal(app2.submit(self.BODY))
            assert job2.status == "done"
            assert job2.resumed is False
            assert "resume" not in [e["type"] for e in job2.events]
            assert write_kiss_from_store(app2, job.key) == reference_kiss
        finally:
            app2.close()


def write_kiss_from_store(app: ServeApp, key: str) -> str:
    from repro.serve.payload import result_kiss

    payload = app.store.get(key)
    assert payload is not None
    return result_kiss(payload)
