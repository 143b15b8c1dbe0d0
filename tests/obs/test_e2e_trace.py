"""End-to-end: a traced 2-shard solve produces a complete span trace.

The acceptance shape of the observability layer, tested literally: one
``solve_latch_split(shards=2)`` run under an installed tracer yields a
Chrome-trace-valid document with coordinator spans *and* pid-tagged
per-worker tracks, and every shard command the pool counted
(``ShardPool.op_counts``) appears as at least one relayed
``shard:<op>`` span.
"""

from __future__ import annotations

import collections

import pytest

from repro.bench import S27_BLIF
from repro.eqn.solver import solve_latch_split
from repro.network.blif import parse_blif
from repro.obs.trace import (
    install_tracer,
    uninstall_tracer,
    validate_trace,
    worker_pids,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    uninstall_tracer()
    yield
    uninstall_tracer()


def test_traced_sharded_solve_records_every_shard_command() -> None:
    tracer = install_tracer()
    net = parse_blif(S27_BLIF)
    result = solve_latch_split(net, ["G6", "G7"], shards=2, batch=4)
    uninstall_tracer()
    assert result.csf_states == 7  # the solve itself is unperturbed

    data = tracer.to_dict()
    assert validate_trace(data, require_workers=True) == []
    assert len(worker_pids(data)) == 2  # one track per forked worker

    names = collections.Counter(
        e["name"] for e in data["traceEvents"] if e.get("ph") == "X"
    )
    # Coordinator layers all present.
    for coordinator_span in (
        "build_problem",
        "solve",
        "oracle_setup",
        "frontier_batch",
        "extract_csf",
    ):
        assert names[coordinator_span] >= 1, coordinator_span

    # Every pool-counted command op appears as >= 1 relayed worker span —
    # and exactly as many spans as the pool counted commands.
    op_counts = result.stats.extra["pool_op_counts"]
    assert op_counts  # the sharded run actually used the pool
    for op, count in op_counts.items():
        assert names[f"shard:{op}"] == count, op


def test_untraced_solve_is_unchanged() -> None:
    net = parse_blif(S27_BLIF)
    result = solve_latch_split(net, ["G6", "G7"], shards=2, batch=4)
    assert result.csf_states == 7
    assert result.stats.pool_op_counts  # the sharded run used the pool
