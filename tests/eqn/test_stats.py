"""The per-solve counter declaration and every surface derived from it.

:class:`~repro.eqn.stats.SubsetStats` declares each counter once; the
``/metrics`` families, the job-status keys, the result payload and the
checkpoint block are all read off that declaration.  These tests pin
the round trip: a counter set on the record reaches each surface under
its declared name, and the wire shapes stay the ones stored results and
checkpoints already use.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.bench import S27_BLIF
from repro.eqn.stats import (
    CONSTRUCTION_FIELDS,
    JOB_FIELDS,
    METRIC_FIELDS,
    RUN_FIELDS,
    SubsetStats,
)
from repro.eqn.solver import solve_latch_split
from repro.network.blif import parse_blif
from repro.obs.metrics import MetricsRegistry
from repro.serve.executor import SolveExecutor, _job_metrics, register_serve_metrics
from repro.serve.jobs import JobRegistry
from repro.serve.payload import dump_result
from repro.serve.store import ResultStore


def _distinct(stats: SubsetStats) -> SubsetStats:
    """Give every declared counter its own non-zero value."""
    for i, f in enumerate(fields(SubsetStats), start=1):
        if f.name == "pool_op_counts":
            setattr(stats, f.name, {"retain": i, "expand_batch": 100 + i})
        else:
            setattr(stats, f.name, i)
    return stats


@pytest.fixture()
def s27_result():
    return solve_latch_split(parse_blif(S27_BLIF), ["G6", "G7"])


def test_every_metric_family_is_preregistered_at_zero() -> None:
    snapshot = register_serve_metrics(MetricsRegistry()).snapshot()
    for _name, family, _label, _help in METRIC_FIELDS:
        assert snapshot[family] == 0.0, family


def test_metric_families_move_by_the_payload_values(tmp_path, s27_result) -> None:
    stats = _distinct(s27_result.stats)
    payload = dump_result(s27_result)
    executor = SolveExecutor(JobRegistry(), ResultStore(str(tmp_path / "store")))
    executor._record_metrics(payload)
    snapshot = executor.metrics.snapshot()
    for name, family, label, _help in METRIC_FIELDS:
        value = getattr(stats, name)
        if label is None:
            assert snapshot[family] == value, family
        else:
            assert snapshot[family] == {f"{label}={k}": v for k, v in value.items()}
    status = _job_metrics(payload)
    for name, job in JOB_FIELDS:
        assert status[job] == getattr(stats, name), job


def test_payload_and_checkpoint_shapes_are_unchanged(s27_result) -> None:
    payload = dump_result(s27_result)
    assert list(payload["stats"]) == [
        "subsets", "edges", "dca_edges", "batches", "peak_nodes", "extra"
    ]
    assert set(payload["stats"]["extra"]) == set(RUN_FIELDS)
    assert tuple(s27_result.stats.construction()) == CONSTRUCTION_FIELDS
    with pytest.raises(TypeError):
        s27_result.stats.extra["psi_spills"] = 1  # read-only view


def test_a_stats_block_without_newer_counters_still_loads() -> None:
    """A payload written before a counter existed reads it as 0."""
    block = {
        "subsets": 3, "edges": 5, "dca_edges": 1, "batches": 2, "peak_nodes": 40,
        "extra": {"completion_memo_hits": 4, "completion_memo_misses": 2},
    }
    stats = SubsetStats.from_payload(block)
    assert stats.subsets == 3 and stats.completion_memo_hits == 4
    assert stats.gc_runs == 0 and stats.pool_op_counts == {}
    assert _job_metrics({"seconds": 1.0, "stats": block})["gc_runs"] == 0


def test_summary_shows_only_active_groups() -> None:
    stats = SubsetStats(subsets=2, batches=1)
    assert [group for group, _ in stats.summary()] == ["construction"]
    assert stats.bench_columns() == {"subsets": 2, "batches": 1}
    stats.resident_budget = 40
    assert [group for group, _ in stats.summary()] == ["construction", "residency"]
    assert "psi_spills" in stats.bench_columns()
