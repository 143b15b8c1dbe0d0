"""Result-identity of the sharded runtime (the CI shard-smoke suite).

``--shards N`` must change *nothing* but the process topology: the
sharded image computations are exact decompositions and BDDs are
canonical, so reached sets, iteration counts and CSFs coincide with the
in-process path.  These tests assert that over reachability workloads
and the full Table 1 solver suite.
"""

from __future__ import annotations

import pytest

from repro.automata import equivalent
from repro.automata.kiss import write_kiss
from repro.bdd.manager import BddManager
from repro.bench import circuits
from repro.bench.suite import TABLE1_CASES, case_by_name
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.solver import solve_equation
from repro.errors import EquationError
from repro.network.bddbuild import build_network_bdds
from repro.symb.reach import network_reachable_states


def _reach_pair(net, shards):
    """In-process and sharded reachability of ``net`` in one manager."""
    mgr = BddManager()
    input_vars = {name: mgr.add_var(name) for name in net.inputs}
    cs = {name: mgr.add_var(name) for name in net.latches}
    ns = {name: mgr.add_var(f"{name}'") for name in net.latches}
    bdds = build_network_bdds(net, mgr, input_vars, cs)
    base = network_reachable_states(bdds, ns_vars=ns, shards=1)
    sharded = network_reachable_states(bdds, ns_vars=ns, shards=shards)
    return base, sharded


def _kernel_reach_net(n):
    # The kernel benchmark's reach@shards* generator.
    return lambda: circuits.random_network(4, n, 4, seed=5, n_nodes=110)


REACH_NETS = [
    ("counter6", lambda: circuits.counter(6)),
    ("gray5", lambda: circuits.gray_counter(5)),
    ("rand12", lambda: circuits.random_network(3, 12, 3, seed=7, n_nodes=70)),
    *((f"kernel_reach{n}", _kernel_reach_net(n)) for n in (6, 10, 12)),
]


@pytest.mark.parametrize("name,make", REACH_NETS, ids=[n for n, _ in REACH_NETS])
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_reach_identical(name, make, shards) -> None:
    base, sharded = _reach_pair(make(), shards)
    assert sharded.states == base.states  # identical edge, not just count
    assert sharded.state_count == base.state_count
    assert sharded.iterations == base.iterations


def test_sharded_reach_same_manager_same_edge() -> None:
    """Within one manager, the sharded fixpoint lands on the same BDD."""
    net = circuits.counter(5)
    mgr = BddManager()
    input_vars = {name: mgr.add_var(name) for name in net.inputs}
    cs = {name: mgr.add_var(name) for name in net.latches}
    ns = {name: mgr.add_var(f"{name}'") for name in net.latches}
    bdds = build_network_bdds(net, mgr, input_vars, cs)
    base = network_reachable_states(bdds, ns_vars=ns, shards=1)
    sharded = network_reachable_states(bdds, ns_vars=ns, shards=2)
    assert sharded.states == base.states  # identical edge, not just count


@pytest.mark.parametrize("case", TABLE1_CASES, ids=[c.name for c in TABLE1_CASES])
def test_sharded_solve_full_table1_identical(case) -> None:
    """CSF identity over the *full* Table 1 suite, ``--shards 2`` vs 1.

    The two solves share one problem (and manager), so structural
    identity is meaningful: same subset states discovered in the same
    order, same edge-label BDD edges, same CSF.
    """
    prob = build_latch_split_problem(
        case.network(), list(case.x_latches), max_nodes=case.max_nodes
    )
    order = prob.manager.var_order()
    base = solve_equation(prob, method="partitioned")
    sharded = solve_equation(prob, method="partitioned", shards=2)
    # No solve moves a variable: KISS bytes list cubes in letter order.
    assert prob.manager.var_order() == order
    assert sharded.csf_states == base.csf_states
    assert sharded.stats.subsets == base.stats.subsets
    assert sharded.stats.edges == base.stats.edges
    # Deterministic expansion ⇒ structurally identical solutions.
    assert sharded.solution.state_names == base.solution.state_names
    assert sharded.solution.edges == base.solution.edges
    # ψ-handle accounting: each subset state crossed the wire exactly
    # once (one serialization, one retain per shard, one release each).
    extra = sharded.stats.extra
    assert extra["psi_serializations"] == sharded.stats.subsets
    ops = extra["pool_op_counts"]
    assert ops["retain"] == sharded.stats.subsets * 2
    assert ops["release"] >= sharded.stats.batches
    assert ops.get("dump", 0) == 0


@pytest.mark.parametrize("case", TABLE1_CASES, ids=[c.name for c in TABLE1_CASES])
def test_sharded_batched_full_table1_identical(case) -> None:
    """The batched sharded flow vs ``--shards 1`` over the full suite.

    At matched frontier settings the two runs are structurally
    identical; against the classic dfs@1 run the counts and the
    language still coincide (only state numbering may differ).
    """
    prob = build_latch_split_problem(
        case.network(), list(case.x_latches), max_nodes=case.max_nodes
    )
    classic = solve_equation(prob, method="partitioned")
    base = solve_equation(prob, method="partitioned", frontier="bfs", batch=4)
    sharded = solve_equation(
        prob, method="partitioned", shards=2, frontier="bfs", batch=4
    )
    assert sharded.stats.subsets == base.stats.subsets == classic.stats.subsets
    assert sharded.stats.edges == base.stats.edges == classic.stats.edges
    assert sharded.csf_states == base.csf_states == classic.csf_states
    assert sharded.solution.state_names == base.solution.state_names
    assert sharded.solution.edges == base.solution.edges
    # Transfer accounting again, now with real batches in flight.
    extra = sharded.stats.extra
    assert extra["psi_serializations"] == sharded.stats.subsets
    assert extra["pool_op_counts"]["retain"] == sharded.stats.subsets * 2
    # Batching packs the same subsets into fewer oracle round trips.
    assert sharded.stats.batches <= base.stats.subsets


@pytest.mark.parametrize(
    "case", TABLE1_CASES[:3], ids=[c.name for c in TABLE1_CASES[:3]]
)
def test_sharded_solve_language_equivalent(case) -> None:
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    base = solve_equation(prob, method="partitioned")
    sharded = solve_equation(prob, method="partitioned", shards=3)
    assert equivalent(sharded.csf, base.csf)


def _bfs8_kiss(name: str, **overrides) -> str:
    case = case_by_name(name)
    problem = build_latch_split_problem(case.network(), list(case.x_latches))
    config = {"frontier": "bfs", "batch": 8, **overrides}
    return write_kiss(solve_equation(problem, method="partitioned", **config).csf)


@pytest.mark.parametrize("name", ["count6", "johnson8"])
def test_sharded_size_frontier_matches_inprocess_kiss(name) -> None:
    """A sharded size-frontier run writes the in-process bfs/8 KISS bytes."""
    assert _bfs8_kiss(name, shards=2, frontier="size") == _bfs8_kiss(name)


def test_shards_require_partitioned_flow() -> None:
    case = TABLE1_CASES[0]
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    with pytest.raises(EquationError, match="partitioned"):
        solve_equation(prob, method="monolithic", shards=2)
    with pytest.raises(EquationError, match="partitioned"):
        solve_equation(prob, method="explicit", shards=2)


def test_shard_workers_inherit_node_budget() -> None:
    """Workers must enforce the problem's max_nodes (the CNC mechanism):
    an exploding conjunction inside a shard manager is bounded too."""
    case = TABLE1_CASES[0]
    prob = build_latch_split_problem(
        case.network(), list(case.x_latches), max_nodes=123_456
    )
    from repro.eqn.partitioned import PartitionedOracle

    oracle = PartitionedOracle(prob, shards=2)
    try:
        for stats in oracle._pool.stats():
            assert stats["max_nodes"] == 123_456
    finally:
        oracle.close()


def test_shard_worker_budget_raises_as_repro_error() -> None:
    """A worker blowing its budget surfaces as ShardError (a ReproError),
    so the Table 1 harness records CNC exactly as in-process."""
    from repro.bdd import BddManager, dump_nodes
    from repro.errors import ReproError
    from repro.shard import ShardError, ShardPool

    names = [f"x{i}" for i in range(8)] + [f"y{i}" for i in range(8)]
    mgr = BddManager()
    vs = mgr.add_vars(names)
    # Σ x_i·y_i under the blocked order: needs far more than 20 nodes.
    f = 0
    for x, y in zip(vs[:8], vs[8:]):
        f = mgr.apply_or(f, mgr.apply_and(mgr.var_node(x), mgr.var_node(y)))
    with ShardPool(1, names, max_nodes=20) as pool:
        with pytest.raises(ShardError, match="BddNodeLimit"):
            pool.call(0, ("load", 1, dump_nodes(mgr, [f])))
    assert issubclass(ShardError, ReproError)


def test_shards_one_is_the_inprocess_path() -> None:
    """``shards=1`` must not even construct a pool."""
    case = TABLE1_CASES[0]
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    from repro.eqn.partitioned import PartitionedOracle

    oracle = PartitionedOracle(prob, shards=1)
    assert oracle._pool is None
    assert oracle.p_plan is not None  # the usual in-process plans exist
    oracle.close()  # no-op


def test_serialization_count_survives_edge_reuse() -> None:
    """A resident budget spills ψ and sweeps them; the freed edges are
    reused by later, distinct subset states.  Each of those is still
    serialized once, so the total stays the subset count."""
    case = case_by_name("johnson8")
    prob = build_latch_split_problem(case.network(), list(case.x_latches))
    result = solve_equation(
        prob,
        method="partitioned",
        shards=2,
        frontier="bfs",
        batch=8,
        resident_budget=40,
    )
    stats = result.stats
    assert stats.psi_spills > 0 and stats.gc_runs > 0
    assert stats.psi_serializations == stats.subsets
