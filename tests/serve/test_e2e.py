"""End-to-end serve tests over a real HTTP server.

The server runs in-process (``ThreadingHTTPServer`` on an ephemeral
port) with the real executor thread and, for the sharded tests, a real
fork-based :class:`~repro.shard.pool.ShardPool` — so the acceptance
claim is tested literally: a repeated solve answers from the
content-addressed cache with **zero** shard image operations, asserted
on ``ShardPool.op_counts``.
"""

from __future__ import annotations

import re
import threading
import time

import pytest

from repro.bench import S27_BLIF
from repro.errors import ServeError
from repro.serve import ServeApp, ServeClient
from repro.serve.server import make_server, serve
from tests.serve.test_checkpoint import wait_terminal

X = ["G6", "G7"]
SHARDED = {"blif": S27_BLIF, "x_latches": X, "shards": 2, "batch": 4}


class ServerFixture:
    def __init__(self, tmp_path, **app_kwargs):
        self.app = ServeApp(str(tmp_path / "cache"), **app_kwargs)
        self.server = make_server("127.0.0.1", 0, app=self.app)
        host, port = self.server.server_address[:2]
        self.client = ServeClient(f"http://{host}:{port}", timeout=30)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.app.close()
        self.thread.join(timeout=10)


def post_error(served, body: dict) -> str:
    """POST ``body`` to ``/jobs``, expect HTTP 400, return its error."""
    import json
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        f"{served.client.base_url}/jobs",
        data=json.dumps(body).encode(),
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    return json.loads(excinfo.value.read())["error"]


@pytest.fixture()
def served(tmp_path):
    fixture = ServerFixture(tmp_path)
    yield fixture
    fixture.close()


class TestSubmitToResult:
    def test_submit_progress_events_result(self, served) -> None:
        job = served.client.submit(SHARDED)
        assert job["status"] in ("queued", "running", "done")
        assert job["cached"] is False
        done = served.client.wait(job["id"], timeout=60)
        assert done["status"] == "done"
        events = served.client.events(job["id"])["events"]
        kinds = [e["type"] for e in events]
        assert "progress" in kinds
        progress = [e for e in events if e["type"] == "progress"]
        # The stream carries the run's live counters, monotonically.
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        assert progress[-1]["frontier"] == 0
        assert progress[-1]["subsets"] >= progress[0]["subsets"]
        assert "live_nodes" in progress[0] and "memo_hits" in progress[0]
        result = served.client.result(job["id"])
        assert result["csf_states"] == 7  # s27's known CSF size
        assert result["cached"] is False
        assert result["kiss"].startswith(".i")

    def test_events_cursor_pagination(self, served) -> None:
        job = served.client.submit(SHARDED)
        served.client.wait(job["id"], timeout=60)
        first = served.client.events(job["id"], since=0)
        assert first["next"] == len(first["events"])
        rest = served.client.events(job["id"], since=first["next"])
        assert rest["events"] == []
        tail = served.client.events(job["id"], since=first["next"] - 2)
        assert len(tail["events"]) == 2

    def test_bad_split_fails_cleanly(self, served) -> None:
        job = served.client.submit({"blif": S27_BLIF, "x_latches": ["nope"]})
        done = served.client.wait(job["id"], timeout=60)
        assert done["status"] == "failed"
        assert "nope" in done["error"]
        # The server survives a failed job.
        assert served.client.health()["ok"] is True

    def test_malformed_submit_is_a_client_error(self, served) -> None:
        with pytest.raises(ServeError, match="missing 'x_latches'"):
            served.client.submit({"blif": S27_BLIF})
        # A misspelled flag, or one a newer server no longer takes.
        for flags in (
            {"bach": 8},
            {"reorder": "auto"},
            {"gc": "adaptive"},
            {"product_order": "stacked"},
        ):
            with pytest.raises(ServeError, match="unknown solver flags"):
                served.client.submit({"blif": S27_BLIF, "x_latches": X, **flags})


class TestSubmitValidation:
    """A malformed solver config is rejected in the submit path: HTTP 400
    and no job registered, never a queued job that fails later."""

    @pytest.mark.parametrize(
        "flags",
        [
            {"shards": "2"},
            {"frontier": "xyz"},
            {"batch": 0},
            {"method": "bogus"},
            {"method": "monolithic", "shards": 2},
            {"shards": True},
            {"shards": 1.0},
            {"reorder": "auto"},
            {"gc": "adaptive"},
            {"product_order": "stacked"},
        ],
        ids=repr,
    )
    def test_bad_config_is_a_400_with_no_job(self, served, flags) -> None:
        assert post_error(served, {"blif": S27_BLIF, "x_latches": X, **flags})
        assert served.client.jobs() == []

    @pytest.mark.parametrize(
        "blif", [S27_BLIF.replace(".inputs", ".bogus\n.inputs"), 5, ["x"]]
    )
    def test_malformed_blif_is_a_400_every_time(self, served, blif) -> None:
        """A failed parse is never memoised: the repeat is a 400 too."""
        for _ in range(2):
            assert "malformed BLIF" in post_error(served, {"blif": blif, "x_latches": X})
        assert served.client.jobs() == []

    def test_compose_is_served_and_hashed(self, served) -> None:
        """``compose`` is a hashed service field: it gets its own key,
        and the composed job finishes."""
        from repro.bench.suite import TABLE1_COMPOSE_CASES
        from repro.network.blif import write_blif
        from repro.serve.keys import solve_cache_key

        (case,) = TABLE1_COMPOSE_CASES
        body = {
            "blif": write_blif(case.network()),
            "x_latches": list(case.x_latches),
            "u_signals": list(case.u_signals),
            "compose": True,
        }
        job = served.client.submit(body)
        done = served.client.wait(job["id"], timeout=120)
        assert done["status"] == "done", done.get("error")
        result = served.client.result(job["id"])
        assert result["options"]["compose"] is True
        assert result["stats"]["extra"]["compose_skipped_latches"] > 0
        direct = solve_cache_key(
            body["blif"], body["x_latches"], u_signals=body["u_signals"]
        )
        assert direct != job["cache_key"]


class TestCacheHit:
    def test_repeat_solve_hits_cache_with_zero_shard_ops(self, served) -> None:
        first = served.client.submit(SHARDED)
        served.client.wait(first["id"], timeout=60)
        pool = served.app.executor.pool
        assert pool is not None  # the sharded solve forked the pool
        ops_before = dict(pool.op_counts)
        assert ops_before.get("expand_batch", 0) > 0  # cold solve used it
        second = served.client.submit(SHARDED)
        # Born done: the cache answered in the submit path.
        assert second["status"] == "done"
        assert second["cached"] is True
        assert dict(pool.op_counts) == ops_before  # ZERO new shard ops
        r1 = served.client.result(first["id"])
        r2 = served.client.result(second["id"])
        assert r2["kiss"] == r1["kiss"]  # identical CSF, byte for byte
        assert r2["cached"] is True

    def test_repeat_submit_parses_and_unpickles_nothing(
        self, served, monkeypatch
    ) -> None:
        """The hit answers from the memoised canonical BLIF and the entry
        header: no BLIF parse and no body unpickle."""
        import pickle

        import repro.network.blif as blif_module
        from repro.serve.store import STORE_FORMAT

        parsed, loaded = [], []
        real_parse, real_load = blif_module.parse_blif, pickle.load

        def spy_parse(text):
            parsed.append(text)
            return real_parse(text)

        def spy_load(handle, **kwargs):
            loaded.append(real_load(handle, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(blif_module, "parse_blif", spy_parse)
        # A comment no other test submits: the memo has not seen it.
        body = {"blif": S27_BLIF + "\n# cheap-hit test\n", "x_latches": X}
        first = served.client.submit(body)
        assert served.client.wait(first["id"], timeout=60)["status"] == "done"
        assert body["blif"] in parsed  # canonicalised in the submit path

        monkeypatch.setattr(pickle, "load", spy_load)
        parsed.clear()
        second = served.client.submit(body)
        assert second["status"] == "done" and second["cached"] is True
        assert second["result"]["csf_states"] == 7
        assert parsed == []
        assert loaded, "the hit reads the entry header"
        assert all(obj.get("format") == STORE_FORMAT for obj in loaded)

    def test_different_flags_do_not_hit(self, served) -> None:
        first = served.client.submit(SHARDED)
        served.client.wait(first["id"], timeout=60)
        other = served.client.submit({**SHARDED, "frontier": "bfs"})
        assert other["cached"] is False
        done = served.client.wait(other["id"], timeout=60)
        assert done["status"] == "done"
        # Same language even though the key differs.
        assert (
            served.client.result(other["id"])["csf_states"]
            == served.client.result(first["id"])["csf_states"]
        )

    def test_cache_survives_server_restart(self, tmp_path) -> None:
        one = ServerFixture(tmp_path)
        try:
            job = one.client.submit(SHARDED)
            one.client.wait(job["id"], timeout=60)
            kiss = one.client.result(job["id"])["kiss"]
        finally:
            one.close()
        two = ServerFixture(tmp_path)
        try:
            job2 = two.client.submit(SHARDED)
            assert job2["cached"] is True
            assert two.client.result(job2["id"])["kiss"] == kiss
            assert two.app.executor.pool is None  # never touched a worker
        finally:
            two.close()


class TestExecutorMemory:
    def test_finished_jobs_leave_at_most_one_manager(self, tmp_path) -> None:
        """A finished job's manager is a reference cycle; the executor
        collects it, so with automatic GC off two jobs in a row leave at
        most one live ``BddManager``."""
        import gc

        from repro.bdd.manager import BddManager

        def live_managers() -> int:
            return sum(isinstance(o, BddManager) for o in gc.get_objects())

        gc.collect()
        before = live_managers()
        gc.disable()
        try:
            app = ServeApp(str(tmp_path / "cache"))
            try:
                for batch in (1, 2):
                    body = {"blif": S27_BLIF, "x_latches": X, "batch": batch}
                    assert wait_terminal(app.submit(body)).status == "done"
            finally:
                app.close()  # joins the executor: its last collect has run
            assert live_managers() <= before + 1
        finally:
            gc.enable()


class TestCancellation:
    def test_cancel_mid_solve_leaves_pool_reusable(self, tmp_path) -> None:
        paused = threading.Event()
        release = threading.Event()
        state = {"armed": True}

        def hook(job, event):
            if state["armed"]:
                paused.set()
                release.wait(timeout=30)

        fixture = ServerFixture(tmp_path, batch_hook=hook)
        try:
            client, app = fixture.client, fixture.app
            job = client.submit({**SHARDED, "batch": 1})
            assert paused.wait(timeout=30)  # solver is mid-run, blocked
            client.cancel(job["id"])
            state["armed"] = False
            release.set()
            done = client.wait(job["id"], timeout=60)
            assert done["status"] == "cancelled"
            assert job["cache_key"] not in app.store  # no result cached
            # The warm pool survived the unwound solve and serves the
            # next job through a reset, not a re-fork.
            pool = app.executor.pool
            assert pool is not None
            procs_before = [p.pid for p in pool._procs]
            job2 = client.submit(SHARDED)
            done2 = client.wait(job2["id"], timeout=60)
            assert done2["status"] == "done"
            assert [p.pid for p in app.executor.pool._procs] == procs_before
        finally:
            release.set()
            fixture.close()

    def test_cancel_queued_job_never_runs(self, tmp_path) -> None:
        paused = threading.Event()
        release = threading.Event()

        def hook(job, event):
            paused.set()
            release.wait(timeout=30)

        fixture = ServerFixture(tmp_path, batch_hook=hook)
        try:
            blocker = fixture.client.submit({**SHARDED, "batch": 1})
            assert paused.wait(timeout=30)
            queued = fixture.client.submit(
                {"blif": S27_BLIF, "x_latches": ["G5"]}
            )
            fixture.client.cancel(queued["id"])
            release.set()
            fixture.client.wait(blocker["id"], timeout=60)
            done = fixture.client.wait(queued["id"], timeout=60)
            assert done["status"] == "cancelled"
            assert done["started_at"] is None  # it never reached the solver
        finally:
            release.set()
            fixture.close()


class TestObservability:
    def test_healthz_is_enriched(self, served) -> None:
        health = served.client.health()
        assert health["ok"] is True
        assert "jobs" in health  # CI polls these two keys
        assert health["version"]
        assert health["uptime_seconds"] >= 0
        assert health["queue_depth"] == 0
        assert health["cache_entries"] == 0
        served.client.wait(served.client.submit(SHARDED)["id"], timeout=60)
        assert served.client.health()["cache_entries"] == 1

    def test_metrics_exposition_counts_solves_hits_and_steals(
        self, served
    ) -> None:
        from repro.obs.metrics import parse_exposition

        # A fresh scrape already exposes the acceptance families, at 0.
        families = parse_exposition(served.client.metrics())
        for family in (
            "repro_solves_total",
            "repro_cache_hits_total",
            "repro_steals_total",
            "repro_psi_spills_total",
            "repro_psi_reloads_total",
            "repro_resident_evictions_total",
        ):
            assert family in families, family

        served.client.wait(served.client.submit(SHARDED)["id"], timeout=60)
        assert served.client.submit(SHARDED)["cached"] is True  # born done
        families = parse_exposition(served.client.metrics())

        def total(name: str) -> float:
            return sum(v for _, _, v in families[name]["samples"])

        solves = {
            labels.get("status"): value
            for _, labels, value in families["repro_solves_total"]["samples"]
        }
        assert solves.get("done") == 1.0
        assert total("repro_cache_hits_total") == 1.0
        assert total("repro_cache_misses_total") == 1.0
        assert total("repro_steals_total") >= 0.0
        # The sharded solve's relayed command counts land per-op.
        shard_ops = {
            labels["op"]: value
            for _, labels, value in families["repro_shard_commands_total"][
                "samples"
            ]
        }
        assert shard_ops.get("expand_batch", 0) > 0
        # Histogram observed exactly the one uncached solve.
        hist = families["repro_solve_seconds"]["samples"]
        (count,) = [v for n, _, v in hist if n.endswith("_count")]
        assert count == 1.0
        assert families["repro_uptime_seconds"]["type"] == "gauge"

    def test_job_status_carries_metrics_snapshot(self, served) -> None:
        job = served.client.submit(SHARDED)
        done = served.client.wait(job["id"], timeout=60)
        metrics = done["metrics"]
        assert metrics["solve_seconds"] > 0
        assert metrics["subsets"] > 0
        assert metrics["batches"] > 0
        # Pending jobs carry none; the listing includes the snapshot too.
        listed = {j["id"]: j for j in served.client.jobs()}
        assert listed[job["id"]]["metrics"] == metrics

    def test_events_carry_wall_and_monotonic_stamps(self, served) -> None:
        job = served.client.submit(SHARDED)
        served.client.wait(job["id"], timeout=60)
        events = served.client.events(job["id"])["events"]
        assert events
        for event in events:
            assert event["ts"] > 1e9  # wall clock (epoch seconds)
            assert 0 < event["mono"] < 1e9  # perf_counter seconds
        # Monotonic stamps are ordered even if wall time steps.
        monos = [e["mono"] for e in events]
        assert monos == sorted(monos)


class TestBackendOption:
    def test_backend_submission_hits_the_backendless_cache(self, served) -> None:
        """``backend`` is a runtime option: it reaches the executor but
        never the cache key, so a python-backend resubmission of a
        previously solved problem is born done."""
        body = {"blif": S27_BLIF, "x_latches": X}
        first = served.client.submit(body)
        served.client.wait(first["id"], timeout=60)
        second = served.client.submit({**body, "backend": "python"})
        assert second["cached"] is True
        assert second["cache_key"] == first["cache_key"]
        r1 = served.client.result(first["id"])
        r2 = served.client.result(second["id"])
        assert r2["kiss"] == r1["kiss"]

    def test_unknown_backend_is_a_client_error(self, served) -> None:
        with pytest.raises(ServeError, match="unknown BDD backend"):
            served.client.submit(
                {"blif": S27_BLIF, "x_latches": X, "backend": "cudd"}
            )


class TestResidencyOptions:
    def test_budgeted_solve_feeds_the_spill_metrics(self, served) -> None:
        """A submission under a resident budget spills for real, and the
        counters surface in ``/metrics`` and in the job summary."""
        from repro.obs.metrics import parse_exposition

        body = {"blif": S27_BLIF, "x_latches": X, "resident_budget": 1}
        job = served.client.submit(body)
        served.client.wait(job["id"], timeout=60)
        summary = served.client.job(job["id"])
        assert summary["status"] == "done"
        families = parse_exposition(served.client.metrics())

        def total(name: str) -> float:
            return sum(v for _, _, v in families[name]["samples"])

        assert total("repro_psi_spills_total") > 0
        assert total("repro_resident_evictions_total") > 0

    def test_gc_runs_reach_job_status_and_metrics(self, served) -> None:
        """The kernel's sweep count of a budgeted solve is what job status
        and ``repro_gc_runs_total`` report (they once stayed at 0)."""
        from repro.bench import circuits
        from repro.eqn import build_latch_split_problem, solve_equation
        from repro.network.blif import write_blif
        from repro.obs.metrics import parse_exposition

        flags = {"frontier": "bfs", "batch": 8, "resident_budget": 40}
        x = ["j1", "j3", "j5", "j7"]
        problem = build_latch_split_problem(circuits.johnson(8), x)
        solve_equation(problem, **flags)
        gc_runs = problem.manager.stats["gc_runs"]
        assert gc_runs > 0  # the budget forces sweeps

        body = {"blif": write_blif(circuits.johnson(8)), "x_latches": x, **flags}
        job = served.client.wait(served.client.submit(body)["id"], timeout=120)
        assert job["status"] == "done"
        assert job["metrics"]["gc_runs"] == gc_runs
        families = parse_exposition(served.client.metrics())
        (sample,) = families["repro_gc_runs_total"]["samples"]
        assert sample[2] == gc_runs

    def test_residency_options_do_not_change_the_key(self, served) -> None:
        """``resident_budget``/``checkpoint_seconds`` bound the runtime,
        not the result — a budgeted resubmission is born done."""
        first = served.client.submit(SHARDED)
        served.client.wait(first["id"], timeout=60)
        second = served.client.submit(
            {**SHARDED, "resident_budget": 40, "checkpoint_seconds": 30.0}
        )
        assert second["cached"] is True
        assert second["cache_key"] == first["cache_key"]


class TestShutdown:
    def test_shutdown_replies_then_serve_returns(self, tmp_path, capsys) -> None:
        """The ``POST /shutdown`` reply reaches the client, and only
        then does ``serve()`` return 0."""
        outcome: dict = {}

        def run() -> None:
            outcome["rc"] = serve("127.0.0.1", 0, cache_dir=str(tmp_path / "c"))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        printed = ""
        deadline = time.monotonic() + 30
        while (match := re.search(r"listening on (\S+)", printed)) is None:
            assert time.monotonic() < deadline, "serve() never came up"
            time.sleep(0.02)
            printed += capsys.readouterr().out
        reply = ServeClient(match.group(1), timeout=30).shutdown()
        assert reply == {"ok": True, "shutting_down": True}
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome["rc"] == 0
