"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.bench import S27_BLIF
from repro.cli import main


@pytest.fixture()
def blif_file(tmp_path):
    path = tmp_path / "s27.blif"
    path.write_text(S27_BLIF)
    return str(path)


class TestInfo:
    def test_info_prints_stats(self, blif_file, capsys) -> None:
        assert main(["info", "--blif", blif_file]) == 0
        out = capsys.readouterr().out
        assert "s27" in out
        assert "4/1/3" in out
        assert "G5 G6 G7" in out


class TestSolve:
    def test_solve_with_verification(self, blif_file, capsys) -> None:
        code = main(["solve", "--blif", blif_file, "--x-latches", "G6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "csf_states=7" in out
        assert "verification" in out and "True" in out

    def test_solve_monolithic_no_verify(self, blif_file, capsys) -> None:
        code = main(
            [
                "solve",
                "--blif",
                blif_file,
                "--x-latches",
                "G6",
                "--method",
                "monolithic",
                "--no-verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "method=monolithic" in out
        assert "verification" not in out

    def test_solve_writes_kiss_and_dot(self, blif_file, tmp_path, capsys) -> None:
        kiss = tmp_path / "csf.kiss"
        dot = tmp_path / "csf.dot"
        code = main(
            [
                "solve",
                "--blif",
                blif_file,
                "--x-latches",
                "G6",
                "--no-verify",
                "--kiss-out",
                str(kiss),
                "--dot-out",
                str(dot),
            ]
        )
        assert code == 0
        assert kiss.read_text().startswith(".i ")
        assert "digraph" in dot.read_text()
        # And the KISS round-trips.
        from repro.automata import parse_kiss

        aut = parse_kiss(kiss.read_text())
        assert aut.num_states == 7

    def test_solve_multiple_latches(self, blif_file, capsys) -> None:
        code = main(
            ["solve", "--blif", blif_file, "--x-latches", "G5,G7", "--no-verify"]
        )
        assert code == 0

    def test_solve_sharded_rejects_monolithic(self, blif_file, capsys) -> None:
        code = main(
            [
                "solve",
                "--blif",
                blif_file,
                "--x-latches",
                "G6",
                "--method",
                "monolithic",
                "--shards",
                "2",
            ]
        )
        assert code == 2
        assert "--shards requires" in capsys.readouterr().err

    def test_solve_sharded_matches_inprocess(self, blif_file, capsys) -> None:
        code = main(
            [
                "solve",
                "--blif",
                blif_file,
                "--x-latches",
                "G6",
                "--shards",
                "2",
                "--no-verify",
            ]
        )
        assert code == 0
        assert "csf_states=7" in capsys.readouterr().out

    def test_solve_batched_frontier(self, blif_file, capsys) -> None:
        code = main(
            [
                "solve",
                "--blif",
                blif_file,
                "--x-latches",
                "G6",
                "--frontier",
                "bfs",
                "--batch",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "csf_states=7" in out
        assert "batches=" in out
        assert "True" in out  # verification still passes

    def test_solve_rejects_the_removed_product_order_flag(
        self, blif_file, capsys
    ) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "solve",
                    "--blif",
                    blif_file,
                    "--x-latches",
                    "G6",
                    "--product-order",
                    "stacked",
                ]
            )
        assert excinfo.value.code == 2
        assert "--product-order" in capsys.readouterr().err

    def test_solve_sharded_batched(self, blif_file, capsys) -> None:
        code = main(
            [
                "solve",
                "--blif",
                blif_file,
                "--x-latches",
                "G6",
                "--shards",
                "2",
                "--batch",
                "4",
                "--frontier",
                "size",
                "--no-verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "csf_states=7" in out
        # The ψ-transfer accounting is printed for sharded runs.
        assert "psi_serializations" in out

    def test_solve_sharded_trace_export(
        self, blif_file, tmp_path, capsys
    ) -> None:
        """Acceptance: one ``solve --shards 2 --trace out.json`` writes a
        Chrome-trace-loadable file with coordinator and worker spans."""
        import json

        from repro.obs.trace import current_tracer, validate_trace, worker_pids

        out = tmp_path / "out.json"
        code = main(
            [
                "solve",
                "--blif",
                blif_file,
                "--x-latches",
                "G6,G7",
                "--shards",
                "2",
                "--batch",
                "4",
                "--trace",
                str(out),
                "--no-verify",
            ]
        )
        assert code == 0
        assert current_tracer() is None  # CLI uninstalls after export
        assert f"trace written to {out}" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert validate_trace(data, require_workers=True) == []
        assert len(worker_pids(data)) == 2
        names = {
            e["name"] for e in data["traceEvents"] if e.get("ph") == "X"
        }
        assert {"solve", "frontier_batch", "shard:expand_batch"} <= names

    def test_reach_trace_export(self, blif_file, tmp_path, capsys) -> None:
        import json

        from repro.obs.trace import validate_trace

        out = tmp_path / "reach.json"
        code = main(
            ["reach", "--blif", blif_file, "--trace", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert validate_trace(data) == []
        names = {
            e["name"] for e in data["traceEvents"] if e.get("ph") == "X"
        }
        assert "reach_iteration" in names

    def test_log_level_flag_routes_structured_logs(
        self, blif_file, capsys
    ) -> None:
        import json as json_mod
        import logging

        code = main(
            [
                "solve",
                "--blif",
                blif_file,
                "--x-latches",
                "G6",
                "--no-verify",
                "--log-level",
                "debug",
                "--log-json",
            ]
        )
        assert code == 0
        root = logging.getLogger("repro")
        assert root.level == logging.DEBUG  # configure() took effect
        err = capsys.readouterr().err
        for line in err.splitlines():
            if line.startswith("{"):
                json_mod.loads(line)  # any emitted log lines are JSON

    def test_version_flag(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestReach:
    def test_reach_counts_states(self, blif_file, capsys) -> None:
        assert main(["reach", "--blif", blif_file]) == 0
        out = capsys.readouterr().out
        assert "reachable states: 6 of 8" in out

    def test_reach_without_scheduling(self, blif_file, capsys) -> None:
        assert main(["reach", "--blif", blif_file, "--no-schedule"]) == 0
        out = capsys.readouterr().out
        assert "reachable states: 6 of 8" in out

    def test_reach_sharded_matches_inprocess(self, blif_file, capsys) -> None:
        assert main(["reach", "--blif", blif_file, "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "reachable states: 6 of 8" in out


class TestStg:
    def test_stg_summary(self, blif_file, capsys) -> None:
        assert main(["stg", "--blif", blif_file]) == 0
        out = capsys.readouterr().out
        assert "states: 6" in out
        assert "deterministic: True" in out

    def test_stg_complete_and_export(self, blif_file, tmp_path, capsys) -> None:
        kiss = tmp_path / "stg.kiss"
        dot = tmp_path / "stg.dot"
        code = main(
            [
                "stg",
                "--blif",
                blif_file,
                "--complete",
                "--kiss-out",
                str(kiss),
                "--dot-out",
                str(dot),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "states: 7" in out  # 6 + DC
        assert "complete: True" in out
        from repro.automata import parse_kiss

        assert parse_kiss(kiss.read_text()).num_states == 7
        assert "digraph" in dot.read_text()


class TestImplementOut:
    def test_solve_writes_implementation(self, blif_file, tmp_path, capsys) -> None:
        out_blif = tmp_path / "impl.blif"
        code = main(
            [
                "solve",
                "--blif",
                blif_file,
                "--x-latches",
                "G6",
                "--no-verify",
                "--implement-out",
                str(out_blif),
            ]
        )
        assert code == 0
        from repro.network import read_blif

        impl = read_blif(str(out_blif))
        impl.validate()
        assert impl.name == "s27_impl"
        assert impl.num_latches >= 1


class TestTable1:
    def test_single_row(self, tmp_path, capsys) -> None:
        """``repro bench --only table1/...`` prints the paper-style table."""
        args = ["bench", "--only", "table1/s27", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if "States(X)" in line)
        assert lines[header].split()[-3:] == ["Part,s", "Mono,s", "Ratio"]
        assert lines[header + 2].split()[:4] == ["s27", "4/1/3", "2/1", "7"]


class TestBench:
    def test_bench_subcommand_runs_kernel_smoke(self, tmp_path, capsys) -> None:
        """``repro bench`` forwards its flags to the benchmark driver."""
        code = main(
            [
                "bench",
                "--smoke",
                "--only",
                "kernel",
                "--repeats",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel/and_or_chain" in out
        assert (tmp_path / "BENCH_kernel.json").exists()

    def test_bench_subcommand_writes_diff_against_baseline(
        self, tmp_path, capsys
    ) -> None:
        import json
        import pathlib

        baseline = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "baselines"
            / "BENCH_kernel_smoke.json"
        )
        code = main(
            [
                "bench",
                "--smoke",
                "--only",
                "kernel",
                "--repeats",
                "1",
                "--out-dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--tolerance",
                "50",  # generous: this asserts plumbing, not performance
            ]
        )
        assert code == 0
        diff = (tmp_path / "BENCH_diff.md").read_text()
        assert diff.startswith("## Kernel benchmark diff")
        payload = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        assert {r["name"] for r in payload["results"]} >= {"and_or_chain", "deep_chain"}

    def test_table1_rows_carry_phase_breakdowns(self, tmp_path, capsys) -> None:
        """Default (untraced) table1 rows still record per-phase time —
        the ungated suite auto-installs a tracer for its own rows."""
        import json

        code = main(
            [
                "bench",
                "--smoke",
                "--only",
                "table1/s27",
                "--repeats",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_table1.json").read_text())
        assert payload["schema"] == "repro-bench-table1/11"
        (row,) = payload["results"]
        for method in ("partitioned", "monolithic"):
            phases = row["methods"][method]["phases"]
            assert phases["solve"] > 0
            assert "frontier_batch" in phases
            # Phase wall time never exceeds the row's measured wall time
            # by more than nesting double-counts allow; sanity-check the
            # headline phase against it.
            assert phases["solve"] <= row["methods"][method]["wall_s"] * 1.5

    def test_kernel_rows_untraced_by_default(self, tmp_path, capsys) -> None:
        """The regression-gated kernel suite runs with tracing off
        unless --trace opts in, so the gate never sees tracer overhead."""
        import json

        code = main(
            [
                "bench",
                "--smoke",
                "--only",
                "kernel",
                "--repeats",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        assert payload["schema"] == "repro-bench-kernel/5"
        assert all("phases" not in r for r in payload["results"])

    def test_bench_trace_flag_exports_run_trace(self, tmp_path, capsys) -> None:
        import json

        from repro.obs.trace import validate_trace

        out = tmp_path / "bench-trace.json"
        code = main(
            [
                "bench",
                "--smoke",
                "--only",
                "kernel",
                "--repeats",
                "1",
                "--out-dir",
                str(tmp_path),
                "--trace",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert validate_trace(data) == []
        # Opting in traces the kernel suite too: rows gain phases.
        payload = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        assert any("phases" in r for r in payload["results"])
