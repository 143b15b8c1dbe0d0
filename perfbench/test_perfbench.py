"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

import layers
import run
import solver_loads
from measure import Tally, percentile
from repro.bench.suite import case_by_name
from repro.eqn import solver as repro_solver

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_and_other_sum_to_the_wall() -> None:
    ledger = layers.Ledger()
    for _ in range(3):
        with ledger.frame(layers.ROOT):
            busy(0.002)
            with ledger.frame("symb.image"):
                busy(0.003)
                with ledger.frame("bdd.gc"):
                    busy(0.001)
            with ledger.frame("symb.image"):
                busy(0.001)
    assert ledger.total() == pytest.approx(ledger.wall_s, abs=1e-9)
    assert ledger.self_s["bdd.gc"] == pytest.approx(0.003, rel=0.5)
    assert ledger.calls["symb.image"] == 6
    assert all(value >= 0 for value in ledger.self_s.values())


def test_traced_solve_partitions_its_wall_and_unpatches() -> None:
    original = repro_solver.subset_construct
    ledger = layers.Ledger()
    undo = layers.install(ledger)
    try:
        job = solver_loads.Job("johnson8", case_by_name("johnson8"))
        outcome = solver_loads.solve(job, job.case.network(), ledger)
    finally:
        undo()
    assert outcome.error is None
    assert repro_solver.subset_construct is original
    start, end = outcome.window
    assert ledger.total() == pytest.approx(ledger.wall_s, abs=1e-9)
    assert ledger.wall_s <= end - start
    for layer in ("eqn.build_problem", "eqn.driver", "symb.image", "eqn.enumerate"):
        assert ledger.self_s[layer] > 0, layer


@pytest.mark.parametrize(
    "n, q, reported",
    [(100, 90, True), (99, 90, False), (20, 50, True), (19, 50, False), (0, 50, False)],
)
def test_percentile_needs_ten_samples_beyond_it(n: int, q: float, reported: bool) -> None:
    value = percentile(range(n), q)
    assert (value is not None) == reported
    if reported:  # nearest rank over 0 .. n-1
        assert value == q / 100 * n - 1


def test_forced_cnc_counts_as_failed_and_the_run_goes_on() -> None:
    starved = dataclasses.replace(case_by_name("johnson8"), max_nodes=500)
    jobs = [
        solver_loads.Job("johnson8", starved),
        solver_loads.Job("s27", case_by_name("s27")),
    ]
    nets = {job.name: job.case.network() for job in jobs}
    tally = Tally()
    windows = solver_loads.run_pass(jobs, nets, EXPECTED, tally, gates=False)
    assert list(windows) == ["s27"]
    assert tally.failed == 1 and "CNC" in tally.errors[0]
    assert tally.attempted == 3  # two solves and the s27 output check


def test_wrong_output_counts_as_failed() -> None:
    job = solver_loads.Job("s27", case_by_name("s27"))
    wrong = {"s27": dict(EXPECTED["s27"], csf_states=EXPECTED["s27"]["csf_states"] + 1)}
    tally = Tally()
    solver_loads.run_pass([job], {"s27": job.case.network()}, wrong, tally, gates=False)
    assert tally.errors == ["s27: output"]


def test_benchmark_json_matches_the_layer_table() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    table = {name: (unit, better) for name, (unit, better, *_) in
             layers.LAYER_METRICS.items()}
    assert declared == table
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for _, _, moves, workloads in layers.LAYER_METRICS.values():
        assert moves in end_to_end
        assert set(workloads) <= set(run.WORKLOADS)
    timed = {f"{layer}_s" for layer in layers.TIMED_LAYERS} | {"other_s"}
    assert timed <= set(declared)
