"""The frontier-batched subset engine: scheduler, protocol, identity.

The acceptance bar of the batched refactor: whatever the frontier
strategy or batch size (and whether expansion runs in-process or on the
shard pool), the subset construction discovers the same subsets, the
same edges and the same CSF — only discovery *order* (state numbering)
may change between settings.
"""

from __future__ import annotations

import pytest

from repro.automata import equivalent
from repro.automata.kiss import write_kiss
from repro.bdd.manager import BddManager
from repro.bench.suite import TABLE1_CASES, case_by_name
from repro.errors import EquationError
from repro.eqn.monolithic import MonolithicOracle
from repro.eqn.partitioned import PartitionedOracle
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.solver import solve_equation
from repro.eqn.stats import SubsetStats
from repro.eqn.subset import STRATEGIES, FrontierScheduler

LIGHT_CASES = [c for c in TABLE1_CASES if not c.expect_mono_cnc][:4]


class TestFrontierScheduler:
    def test_dfs_is_lifo(self) -> None:
        sched = FrontierScheduler(BddManager(), "dfs")
        for psi in (10, 12, 14):
            sched.push(psi)
        assert sched.take(2) == [14, 12]
        assert sched.take(5) == [10]
        assert not sched

    def test_bfs_is_fifo(self) -> None:
        sched = FrontierScheduler(BddManager(), "bfs")
        for psi in (10, 12, 14):
            sched.push(psi)
        assert sched.take(2) == [10, 12]
        assert sched.take(1) == [14]

    def test_size_takes_smallest_first(self) -> None:
        mgr = BddManager()
        vs = mgr.add_vars(["a", "b", "c"])
        small = mgr.var_node(vs[0])
        big = mgr.apply_and(
            mgr.apply_or(mgr.var_node(vs[0]), mgr.var_node(vs[1])),
            mgr.apply_or(mgr.var_node(vs[1]), mgr.var_node(vs[2])),
        )
        sched = FrontierScheduler(mgr, "size")
        sched.push(big)
        sched.push(small)
        assert sched.take(1) == [small]
        assert sched.take(1) == [big]

    def test_unknown_strategy_rejected(self) -> None:
        with pytest.raises(EquationError, match="strategy"):
            FrontierScheduler(BddManager(), "alphabetical")

    def test_batch_never_exceeds_pending(self) -> None:
        sched = FrontierScheduler(BddManager(), "bfs")
        sched.push(10)
        assert sched.take(100) == [10]


class TestBatchProtocol:
    @pytest.fixture(scope="class")
    def problem(self):
        case = case_by_name("s27")
        return build_latch_split_problem(case.network(), list(case.x_latches))

    def test_expand_is_single_item_adapter(self, problem) -> None:
        for oracle_cls in (PartitionedOracle, MonolithicOracle):
            oracle = oracle_cls(problem)
            psi = oracle.initial()
            single = oracle.expand(psi)
            (batched,) = oracle.expand_batch([psi])
            assert [(e.cond, e.successor) for e in single[0]] == [
                (e.cond, e.successor) for e in batched[0]
            ]
            assert single[1] == batched[1]
            closer = getattr(oracle, "close", None)
            if closer:
                closer()

    def test_sharded_batch_tolerates_duplicate_psi(self, problem) -> None:
        """A direct caller repeating ψ in one batch must not break the
        resident-handle lifecycle (the driver itself never does this)."""
        oracle = PartitionedOracle(problem, shards=2)
        try:
            psi = oracle.initial()
            first, second = oracle.expand_batch([psi, psi])
            assert first[1] == second[1]
            assert [(e.cond, e.successor) for e in first[0]] == [
                (e.cond, e.successor) for e in second[0]
            ]
            # One serialization despite the duplicate, and a clean
            # registry afterwards (workers hold nothing resident).
            stats = SubsetStats()
            oracle.record_stats(stats)
            assert stats.psi_serializations == 1
            assert all(
                s["resident"] == 0 for s in oracle._pool.stats()
            )
        finally:
            oracle.close()

    def test_batch_size_must_be_positive(self, problem) -> None:
        from repro.eqn.subset import subset_construct

        with pytest.raises(EquationError, match="batch_size"):
            subset_construct(
                PartitionedOracle(problem), problem, batch_size=0
            )

    def test_invalid_strategy_through_solver(self, problem) -> None:
        with pytest.raises(EquationError, match="strategy"):
            solve_equation(problem, frontier="rainbow")


@pytest.mark.parametrize("case", LIGHT_CASES, ids=[c.name for c in LIGHT_CASES])
def test_batched_vs_single_expansion_identity(case) -> None:
    """The CI shard-smoke check: batch=8 finds exactly the one-ψ result."""
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    base = solve_equation(prob, method="partitioned")  # classic dfs@1
    batched = solve_equation(prob, method="partitioned", frontier="bfs", batch=8)
    assert batched.csf_states == base.csf_states
    assert batched.stats.subsets == base.stats.subsets
    assert batched.stats.edges == base.stats.edges
    assert batched.stats.dca_edges == base.stats.dca_edges
    assert equivalent(batched.csf, base.csf)
    # Batching can only shrink the number of oracle round trips.
    assert batched.stats.batches <= base.stats.batches


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_all_strategies_and_batches_agree(strategy, batch) -> None:
    case = case_by_name("count6")
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    base = solve_equation(prob, method="partitioned")
    run = solve_equation(
        prob, method="partitioned", frontier=strategy, batch=batch
    )
    assert run.csf_states == base.csf_states
    assert run.stats.subsets == base.stats.subsets
    assert run.stats.edges == base.stats.edges
    assert equivalent(run.csf, base.csf)


def test_monolithic_batched_agrees() -> None:
    case = case_by_name("johnson8")
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    base = solve_equation(prob, method="monolithic")
    batched = solve_equation(
        prob, method="monolithic", frontier="bfs", batch=4
    )
    assert batched.csf_states == base.csf_states
    assert batched.stats.subsets == base.stats.subsets
    assert equivalent(batched.csf, base.csf)


def test_batched_deterministic_at_fixed_settings() -> None:
    """Same settings ⇒ structurally identical automata, twice over."""
    case = case_by_name("johnson8")
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    a = solve_equation(prob, method="partitioned", frontier="bfs", batch=4)
    b = solve_equation(prob, method="partitioned", frontier="bfs", batch=4)
    assert a.solution.state_names == b.solution.state_names
    assert a.solution.edges == b.solution.edges


def test_completion_memo_reported_and_hitting() -> None:
    """johnson8 has latches irrelevant per output: the memo must hit."""
    case = case_by_name("johnson8")
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    result = solve_equation(prob, method="partitioned", frontier="bfs", batch=8)
    extra = result.stats.extra
    assert extra["completion_memo_misses"] > 0
    assert extra["completion_memo_hits"] > 0


def test_memo_off_ablation_path_unchanged() -> None:
    """schedule=False (the E5 strawman) bypasses plans and the memo."""
    case = case_by_name("s27")
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    base = solve_equation(prob, method="partitioned")
    raw = solve_equation(prob, method="partitioned", schedule=False)
    assert raw.csf_states == base.csf_states
    assert raw.stats.extra["completion_memo_misses"] == 0
    assert raw.stats.extra["completion_memo_hits"] == 0


def test_no_trim_ablation_batched() -> None:
    case = case_by_name("s27")
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    base = solve_equation(prob, method="partitioned", trim=False)
    batched = solve_equation(
        prob, method="partitioned", trim=False, frontier="bfs", batch=4
    )
    assert batched.csf_states == base.csf_states
    assert equivalent(batched.csf, base.csf)


def test_batches_counted() -> None:
    case = case_by_name("count6")
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    one = solve_equation(prob, method="partitioned", batch=1)
    eight = solve_equation(prob, method="partitioned", frontier="bfs", batch=8)
    assert one.stats.batches == one.stats.subsets
    assert eight.stats.batches < one.stats.batches


@pytest.mark.parametrize("case", TABLE1_CASES, ids=[c.name for c in TABLE1_CASES])
def test_bfs_kiss_does_not_depend_on_the_batch_split(case) -> None:
    """Under bfs, batch 1 and batch 8 write byte-identical KISS.

    The FIFO order of expansion, and so the state numbering, does not
    depend on where batches split; the sharded oracle's cross-batch
    pipeline (which takes short batches ahead) relies on this.
    """
    prob = build_latch_split_problem(
        case.network(), list(case.x_latches), max_nodes=case.max_nodes
    )
    one = solve_equation(prob, method="partitioned", frontier="bfs", batch=1)
    eight = solve_equation(prob, method="partitioned", frontier="bfs", batch=8)
    assert write_kiss(eight.csf) == write_kiss(one.csf)
