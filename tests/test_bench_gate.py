"""The benchmark regression gate: median-normalised slowdown checks."""

from __future__ import annotations

import json
import pathlib

from repro.bench import driver

REPO = pathlib.Path(__file__).resolve().parent.parent

BASELINE = REPO / "benchmarks" / "baselines" / "BENCH_kernel_smoke.json"


def _baseline_results():
    return json.loads(BASELINE.read_text())["results"]


def _write_baseline(tmp_path, results):
    p = tmp_path / "base.json"
    p.write_text(json.dumps({"results": results}))
    return p


def test_smoke_baseline_is_committed_and_wellformed() -> None:
    results = _baseline_results()
    names = {r["name"] for r in results}
    assert {"misordered_product", "reach_blocked_order"} <= names
    retired = {"misordered_product_reorder", "reach_blocked_order_reorder", "solve@interleave"}
    assert not names & retired
    assert all({"name", "size", "wall_s", "peak_live_nodes"} <= r.keys() for r in results)
    assert not any({"reorder_runs", "reorder_swaps"} & r.keys() for r in results)


def test_identical_run_passes(tmp_path) -> None:
    results = _baseline_results()
    base = _write_baseline(tmp_path, results)
    assert driver.check_regression(results, base, 1.5) == []


def test_uniformly_slower_machine_passes(tmp_path) -> None:
    """A 3x-slower CI runner scales every workload alike: no failures."""
    results = _baseline_results()
    base = _write_baseline(tmp_path, results)
    slow = [dict(r, wall_s=r["wall_s"] * 3) for r in results]
    assert driver.check_regression(slow, base, 1.5) == []


def test_single_workload_regression_fails(tmp_path) -> None:
    results = _baseline_results()
    base = _write_baseline(tmp_path, results)
    mixed = [
        dict(r, wall_s=r["wall_s"] * (4 if r["name"] == "gc_reachability" else 1))
        for r in results
    ]
    failures = driver.check_regression(mixed, base, 2.5)
    assert len(failures) == 1
    assert failures[0].startswith("gc_reachability:")


def test_sub_millisecond_noise_ignored(tmp_path) -> None:
    results = _baseline_results()
    base = _write_baseline(tmp_path, results)
    noisy = [
        dict(r, wall_s=r["wall_s"] * (10 if r["wall_s"] < 0.001 else 1))
        for r in results
    ]
    assert driver.check_regression(noisy, base, 2.5) == []


def test_size_mismatch_skipped(tmp_path) -> None:
    """Workloads whose size changed are not comparable."""
    results = _baseline_results()
    base = _write_baseline(tmp_path, results)
    resized = [dict(r, size=r["size"] + 1, wall_s=r["wall_s"] * 100) for r in results]
    assert driver.check_regression(resized, base, 1.5) == []


def test_markdown_diff_lists_every_workload(tmp_path) -> None:
    """The diff table shows the whole perf picture, not just failures."""
    results = _baseline_results()
    base = _write_baseline(tmp_path, results)
    md = driver.format_markdown_diff(results, base, 2.5)
    for r in results:
        assert f"| {r['name']} |" in md
    assert "| workload |" in md
    assert "🔴" not in md  # identical run: no regressions flagged


def test_markdown_diff_flags_regressions_and_new_workloads(tmp_path) -> None:
    results = _baseline_results()
    base = _write_baseline(tmp_path, results)
    mixed = [
        dict(r, wall_s=r["wall_s"] * (4 if r["name"] == "gc_reachability" else 1))
        for r in results
    ]
    mixed.append(dict(results[0], name="brand_new_workload"))
    md = driver.format_markdown_diff(mixed, base, 2.5)
    gc_line = next(line for line in md.splitlines() if "| gc_reachability |" in line)
    assert "🔴" in gc_line
    new_line = next(line for line in md.splitlines() if "brand_new_workload" in line)
    assert "🆕" in new_line


def test_markdown_diff_marks_sub_ms_noise(tmp_path) -> None:
    results = _baseline_results()
    base = _write_baseline(tmp_path, results)
    sub_ms = [r["name"] for r in results if r["wall_s"] < 0.001]
    md = driver.format_markdown_diff(results, base, 2.5)
    for name in sub_ms:
        line = next(line for line in md.splitlines() if f"| {name} |" in line)
        assert "sub-ms" in line


def test_driver_writes_diff_artifact(tmp_path) -> None:
    """--baseline produces BENCH_diff.md next to the JSON artifacts."""
    results = _baseline_results()
    base = _write_baseline(tmp_path, results)
    rows = driver.compare_to_baseline(results, {"results": results})
    assert all(row["status"] in {"compared", "sub-ms"} for row in rows)
    md = driver.format_markdown_diff(results, base, 2.5)
    out = tmp_path / "BENCH_diff.md"
    out.write_text(md)
    assert out.read_text().startswith("## Kernel benchmark diff")
