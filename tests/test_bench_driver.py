"""Bench-driver surface tests: --list, the row planner, run metadata."""

from __future__ import annotations

import importlib
import json
import warnings

import pytest

from repro.bench import driver


class TestListWorkloads:
    def test_lists_kernel_and_table1(self) -> None:
        listing = driver.list_workloads()
        for name, _fn, _full, _smoke in driver.KERNEL_WORKLOADS:
            assert name in listing
        assert "table1/s27" in listing
        assert "table1/johnson12" in listing

    def test_lists_variants_without_running(self) -> None:
        listing = driver.list_workloads()
        assert "johnson12@shards2" in listing
        assert "reach@shards2" in listing
        assert "johnson12@batch8" in listing
        assert "rand20@batch8" in listing
        assert "solve@batch8" in listing
        assert "twin16x4@batch8" in listing
        assert "[bench-only row]" in listing

    def test_cli_flag_runs_nothing(self, tmp_path, capsys) -> None:
        rc = driver.main(["--list", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel workloads" in out
        assert "indep_images@shards1" in out
        assert list(tmp_path.iterdir()) == []  # nothing written, nothing run

    def test_repro_bench_list_via_console_entry(self, capsys) -> None:
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        assert "table1 cases" in capsys.readouterr().out


class TestWorkloadFilter:
    def test_no_patterns_accepts_everything(self) -> None:
        accept = driver.make_workload_filter(None, None)
        assert accept("kernel", "rename")
        assert accept("table1", "rand20")

    def test_only_suite_name_keeps_whole_suite(self) -> None:
        accept = driver.make_workload_filter("kernel", None)
        assert accept("kernel", "rename")
        assert not accept("table1", "s27")

    def test_only_full_path_glob(self) -> None:
        accept = driver.make_workload_filter("table1/rand*", None)
        assert accept("table1", "rand14")
        assert accept("table1", "rand20")
        assert not accept("table1", "s27")
        assert not accept("kernel", "rename")

    def test_bare_name_glob_matches_across_suites(self) -> None:
        accept = driver.make_workload_filter("*@shards*", None)
        assert accept("kernel", "reach@shards2")
        assert accept("table1", "johnson12@shards2")
        assert not accept("kernel", "rename")

    def test_skip_wins_over_only(self) -> None:
        accept = driver.make_workload_filter("kernel", "kernel/rename")
        assert accept("kernel", "xor_parity")
        assert not accept("kernel", "rename")

    def test_comma_separated_patterns(self) -> None:
        accept = driver.make_workload_filter("rename,xor_parity", None)
        assert accept("kernel", "rename")
        assert accept("kernel", "xor_parity")
        assert not accept("kernel", "and_or_chain")

    def test_skip_only(self) -> None:
        accept = driver.make_workload_filter(None, "table1")
        assert accept("kernel", "rename")
        assert not accept("table1", "s27")


class TestFilteredRuns:
    def test_only_runs_single_kernel_workload(self, tmp_path, capsys) -> None:
        rc = driver.main(
            [
                "--smoke",
                "--only",
                "kernel/rename",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        assert [r["name"] for r in payload["results"]] == ["rename"]
        assert payload["meta"]["filtered"] is True
        # The table1 suite was skipped entirely: no file written.
        assert not (tmp_path / "BENCH_table1.json").exists()

    def test_skip_can_drop_table1(self, tmp_path) -> None:
        rc = driver.main(
            [
                "--smoke",
                "--only",
                "kernel/rename,kernel/xor_parity",
                "--skip",
                "*parity*",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        assert [r["name"] for r in payload["results"]] == ["rename"]

    def test_nothing_matching_is_an_error(self, tmp_path, capsys) -> None:
        rc = driver.main(
            ["--smoke", "--only", "no-such-workload", "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "nothing run" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_smoke_suppressed_variant_rows_are_not_selectable(
        self, tmp_path, capsys
    ) -> None:
        """A smoke run never emits @batch8/@shards2 rows, so
        selecting only one of them must error instead of writing an
        empty artifact with exit 0."""
        rc = driver.main(
            ["--smoke", "--only", "rand20@batch8", "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []
        # The same selection in full mode *is* a planned row.
        assert "rand20@batch8" in driver.table1_row_names(False)
        assert "rand20@batch8" not in driver.table1_row_names(True)

    def test_sharded_run_suppresses_only_shards_variants(self) -> None:
        """A run that already sets a variant's field plans none of that
        variant's rows, and every other row stays planned."""
        default = driver.table1_row_names(False)
        sharded = driver.table1_row_names(False, shards=2)
        assert set(default) - set(sharded) == {"johnson12@shards2"}
        assert set(sharded) <= set(default)

    def test_row_names_match_listing(self) -> None:
        """Every planned full-run row appears in the --list output."""
        listing = driver.list_workloads()
        for name in driver.table1_row_names(False):
            base = name.split("@")[0]
            assert base in listing

    def test_list_respects_filters(self, capsys) -> None:
        assert driver.main(["--list", "--only", "table1/rand*"]) == 0
        out = capsys.readouterr().out
        assert "rand14" in out
        assert "s27" not in out
        assert "and_or_chain" not in out


class TestOneProductLayout:
    def test_listing_has_no_removed_rows(self) -> None:
        """The interleaved product layout and the two GC-triggered
        reorder twins are gone; the rows they paired with remain."""
        listing = driver.list_workloads()
        assert "@interleave" not in listing
        assert "reach_blocked_order_reorder" not in listing
        assert "misordered_product_reorder" not in listing
        assert "kernel/reach_blocked_order " in listing
        assert "kernel/misordered_product " in listing
        assert "twin12_8@batch8" in listing
        assert "twin16x4@batch8" in listing


class TestResidencyAndComposeVariants:
    def test_listing_shows_budget_and_compose_rows(self) -> None:
        listing = driver.list_workloads()
        assert "twin16x4@budget" in listing
        assert "twin20_4@compose" in listing
        assert "[compose row]" in listing

    def test_rows_planned_only_in_full_runs(self) -> None:
        full = driver.table1_row_names(False)
        assert "twin16x4@budget" in full
        assert "twin20_4@compose" in full
        smoke = driver.table1_row_names(True)
        assert "twin16x4@budget" not in smoke
        assert "twin20_4@compose" not in smoke

    def test_compose_case_restricts_u_signals(self) -> None:
        """The compose case must carry a restricted U alphabet — the
        default split couples every component to X and the planner
        would (correctly) decline, leaving a misleading direct row."""
        from repro.bench.suite import TABLE1_COMPOSE_CASES

        for case in TABLE1_COMPOSE_CASES:
            assert case.u_signals, case.name


class TestEnvLimitedStatus:
    def _rows(self):
        return [
            {"name": "indep_images@shards2", "size": 12, "wall_s": 0.4,
             "peak_live_nodes": 100},
            {"name": "rename", "size": 12, "wall_s": 0.1,
             "peak_live_nodes": 100},
        ]

    def test_shard_rows_env_limited_across_core_counts(
        self, monkeypatch
    ) -> None:
        monkeypatch.setattr(driver.os, "cpu_count", lambda: 1)
        baseline = {"meta": {"cpu_count": 64}, "results": self._rows()}
        rows = driver.compare_to_baseline(self._rows(), baseline)
        by_name = {r["name"]: r for r in rows}
        shard = by_name["indep_images@shards2"]
        assert shard["status"] == "env-limited"
        assert shard["ratio"] is None and shard["norm_ratio"] is None
        # Non-shard rows on the same machine still compare normally.
        assert by_name["rename"]["status"] == "compared"

    def test_same_multicore_counts_compare_normally(self, monkeypatch) -> None:
        monkeypatch.setattr(driver.os, "cpu_count", lambda: 64)
        baseline = {"meta": {"cpu_count": 64}, "results": self._rows()}
        rows = driver.compare_to_baseline(self._rows(), baseline)
        assert all(r["status"] == "compared" for r in rows)

    def test_markdown_renders_env_limited(self, monkeypatch, tmp_path) -> None:
        monkeypatch.setattr(driver.os, "cpu_count", lambda: 1)
        path = tmp_path / "base.json"
        path.write_text(
            json.dumps({"meta": {"cpu_count": 64}, "results": self._rows()})
        )
        md = driver.format_markdown_diff(self._rows(), path, 1.5)
        line = next(
            ln for ln in md.splitlines() if "| indep_images@shards2 |" in ln
        )
        assert "environment-limited (cpus 64 → 1)" in line


class TestMeta:
    def test_records_environment(self) -> None:
        meta = driver.meta(False)
        assert isinstance(meta["cpu_count"], int) and meta["cpu_count"] >= 1
        assert meta["python"].count(".") == 2
        assert meta["platform"]
        assert meta["smoke"] is False

    def test_extra_knobs_merge(self) -> None:
        meta = driver.meta(True, backend="buddy", filtered=True)
        assert meta["backend"] == "buddy"
        assert meta["filtered"] is True


class TestDiffEnvironmentLine:
    def test_markdown_diff_surfaces_cpu_counts(self, tmp_path) -> None:
        results = [
            {"name": "w", "size": 5, "wall_s": 0.01, "peak_live_nodes": 1}
        ]
        baseline = {
            "meta": {"cpu_count": 64, "python": "3.99.0", "git_rev": "abc"},
            "results": [
                {"name": "w", "size": 5, "wall_s": 0.01, "peak_live_nodes": 1}
            ],
        }
        path = tmp_path / "base.json"
        path.write_text(json.dumps(baseline))
        md = driver.format_markdown_diff(results, path, 1.5)
        assert "cpus=64" in md  # the baseline environment
        assert "Environment: cpus=" in md  # the current one
        assert "python=3.99.0" in md

    def test_diff_tolerates_missing_baseline_meta(self, tmp_path) -> None:
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"results": []}))
        md = driver.format_markdown_diff([], path, 1.5)
        assert "cpus=?" in md
        assert "environment mismatch" not in md

    def test_diff_warns_on_environment_mismatch(self, tmp_path) -> None:
        """cpu_count / python drift earns an explicit warning line, so
        shard-variant deltas are never misread across machines."""
        baseline = {
            "meta": {"cpu_count": 64, "python": "3.99.0"},
            "results": [],
        }
        path = tmp_path / "base.json"
        path.write_text(json.dumps(baseline))
        md = driver.format_markdown_diff([], path, 1.5)
        assert "⚠️" in md
        assert "environment mismatch" in md
        assert "cpu_count differs (baseline 64" in md
        assert "python differs (baseline 3.99.0" in md
        assert "@shardsN" in md

    def test_diff_no_warning_when_environment_matches(self, tmp_path) -> None:
        import os
        import platform

        baseline = {
            "meta": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
            },
            "results": [],
        }
        path = tmp_path / "base.json"
        path.write_text(json.dumps(baseline))
        md = driver.format_markdown_diff([], path, 1.5)
        assert "environment mismatch" not in md


class TestShimDeprecation:
    def test_package_driver_does_not_warn(self) -> None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            importlib.reload(driver)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]


@pytest.mark.parametrize("name", ["reach@shards1", "reach@shards2",
                                  "indep_images@shards1", "indep_images@shards2"])
def test_shard_workloads_registered_in_pairs(name) -> None:
    names = [n for n, *_ in driver.KERNEL_WORKLOADS]
    assert name in names
    base, variant = name.split("@")
    # Every @shardsN row has its @shards1 twin at the same size.
    sizes = {
        n: (full, smoke) for n, _f, full, smoke in driver.KERNEL_WORKLOADS
    }
    assert sizes[f"{base}@shards1"] == sizes[name]


def test_git_rev_marks_a_modified_work_tree_dirty(tmp_path) -> None:
    import subprocess

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "--short", "HEAD")
    assert driver.git_rev(tmp_path) == head
    (tmp_path / "untracked.txt").write_text("new\n")
    assert driver.git_rev(tmp_path) == head
    (tmp_path / "tracked.txt").write_text("two\n")
    assert driver.git_rev(tmp_path) == f"{head}-dirty"


def test_git_rev_outside_a_repository_is_none(tmp_path) -> None:
    assert driver.git_rev(tmp_path / "missing") is None
