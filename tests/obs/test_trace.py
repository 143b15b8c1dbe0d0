"""Tests for the span tracer and the Chrome trace-event export."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import trace as trace_mod
from repro.obs.trace import (
    Tracer,
    current_tracer,
    install_tracer,
    instant,
    span,
    uninstall_tracer,
    validate_trace,
    worker_pids,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    uninstall_tracer()
    yield
    uninstall_tracer()


def spans_by_name(data: dict) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for event in data["traceEvents"]:
        if event.get("ph") == "X":
            out.setdefault(event["name"], []).append(event)
    return out


class TestDisabled:
    def test_span_is_shared_null_object_when_off(self) -> None:
        assert current_tracer() is None
        a = span("anything", key=1)
        b = span("else")
        assert a is b  # the singleton: no allocation per call
        with a as s:
            s.set(result=2)  # ignored, no error
        instant("marker", x=1)  # no-op

    def test_install_uninstall_round_trip(self) -> None:
        tracer = install_tracer()
        assert current_tracer() is tracer
        uninstall_tracer()
        assert current_tracer() is None
        # Events recorded before uninstall survive on the object.
        assert isinstance(tracer, Tracer)


class TestSpans:
    def test_spans_nest_and_validate(self) -> None:
        tracer = install_tracer()
        with span("outer", batch=1) as outer:
            with span("inner"):
                pass
            with span("inner"):
                pass
            outer.set(size=2)
        data = tracer.to_dict()
        assert validate_trace(data) == []
        named = spans_by_name(data)
        assert len(named["inner"]) == 2
        (outer_ev,) = named["outer"]
        assert outer_ev["args"] == {"batch": 1, "size": 2}
        # Children fall inside the parent interval.
        for inner in named["inner"]:
            assert inner["ts"] >= outer_ev["ts"]
            assert inner["ts"] + inner["dur"] <= (
                outer_ev["ts"] + outer_ev["dur"] + 0.01
            )

    def test_exception_is_recorded_and_propagates(self) -> None:
        tracer = install_tracer()
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        (ev,) = spans_by_name(tracer.to_dict())["doomed"]
        assert ev["args"]["error"] == "ValueError"

    def test_instant_event(self) -> None:
        tracer = install_tracer()
        instant("marker", label="here")
        data = tracer.to_dict()
        assert validate_trace(data) == []
        (ev,) = [e for e in data["traceEvents"] if e.get("ph") == "i"]
        assert ev["s"] == "p"
        assert ev["args"]["label"] == "here"

    def test_threads_get_separate_tracks(self) -> None:
        tracer = install_tracer()

        def worker() -> None:
            with span("threaded"):
                pass

        t = threading.Thread(target=worker)
        with span("main_side"):
            t.start()
            t.join()
        data = tracer.to_dict()
        assert validate_trace(data) == []
        named = spans_by_name(data)
        assert named["threaded"][0]["tid"] != named["main_side"][0]["tid"]


class TestWorkerRelay:
    def test_worker_meta_lands_on_pid_track(self) -> None:
        tracer = install_tracer()
        t0 = tracer.t0
        tracer.add_worker_event(
            {"op": "expand_batch", "pid": 4242, "t0": t0 + 0.01, "t1": t0 + 0.02}
        )
        data = tracer.to_dict()
        assert validate_trace(data, require_workers=True) == []
        assert worker_pids(data) == {4242}
        (ev,) = spans_by_name(data)["shard:expand_batch"]
        assert ev["pid"] == 4242 and ev["tid"] == 0
        assert ev["args"]["op"] == "expand_batch"

    def test_require_workers_fails_without_tracks(self) -> None:
        tracer = install_tracer()
        with span("solve"):
            pass
        problems = validate_trace(tracer.to_dict(), require_workers=True)
        assert any("shard-worker" in p for p in problems)


class TestValidation:
    def test_rejects_malformed_events(self) -> None:
        bad = {
            "traceEvents": [
                {"ph": "X", "name": "", "ts": 1, "dur": 1, "pid": 1, "tid": 1},
                {"ph": "X", "name": "neg", "ts": -5, "dur": 1, "pid": 1, "tid": 1},
                {"ph": "X", "name": "f", "ts": 0, "dur": 1, "pid": "x", "tid": 1},
                {"ph": "Z", "name": "f", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
                "not-an-object",
            ]
        }
        problems = validate_trace(bad)
        assert len(problems) == 5

    def test_rejects_partial_overlap(self) -> None:
        bad = {
            "traceEvents": [
                {"ph": "X", "name": "a", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 1},
                {"ph": "X", "name": "b", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 1},
            ]
        }
        problems = validate_trace(bad)
        assert any("partially overlaps" in p for p in problems)

    def test_accepts_overlap_on_different_tracks(self) -> None:
        ok = {
            "traceEvents": [
                {"ph": "X", "name": "a", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 1},
                {"ph": "X", "name": "b", "ts": 5.0, "dur": 10.0, "pid": 2, "tid": 0},
            ]
        }
        assert validate_trace(ok) == []

    def test_top_level_shape(self) -> None:
        assert validate_trace([]) != []
        assert validate_trace({"traceEvents": "nope"}) != []


class TestExportAndCli:
    def test_export_is_chrome_loadable_json(self, tmp_path) -> None:
        tracer = install_tracer()
        with span("solve", method="partitioned"):
            with span("frontier_batch", batch=1):
                pass
        out = tmp_path / "trace.json"
        tracer.export(str(out))
        data = json.loads(out.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert data["metadata"]["coordinator_pid"] == tracer.pid
        assert validate_trace(data) == []

    def test_cli_validator_ok_and_fail(self, tmp_path, capsys) -> None:
        tracer = install_tracer()
        with span("solve"):
            pass
        good = tmp_path / "good.json"
        tracer.export(str(good))
        assert trace_mod._main([str(good)]) == 0
        assert "ok:" in capsys.readouterr().out
        # --require-workers fails: no worker tracks in this trace.
        assert trace_mod._main([str(good), "--require-workers"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_events_window_for_phase_breakdowns(self) -> None:
        tracer = install_tracer()
        with span("before"):
            pass
        mark = len(tracer)
        with span("after"):
            pass
        names = [e["name"] for e in tracer.events(mark)]
        assert names == ["after"]
