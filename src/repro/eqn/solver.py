"""Top-level solver facade.

``solve_latch_split(net, x_latches)`` is the one-call API: split the
network, build the problem, run the requested flow (partitioned /
monolithic / explicit), extract the CSF, and return everything with
timings.  This is what the examples, the CLI, the Table 1 harness and
most tests use.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.automata.automaton import Automaton
from repro.eqn.config import FIELD_NAMES, RESULT_OPTIONS, SolveConfig
from repro.eqn.csf import csf_state_count, extract_csf
from repro.eqn.explicit_solver import ExplicitTrace, solve_explicit
from repro.eqn.monolithic import MonolithicOracle
from repro.eqn.partitioned import PartitionedOracle
from repro.eqn.problem import EquationProblem, build_problem
from repro.eqn.subset import SubsetStats, subset_construct
from repro.network.netlist import Network
from repro.network.transform import LatchSplit, latch_split
from repro.obs.trace import span as obs_span
from repro.util.limits import ResourceLimit
from repro.util.timer import Stopwatch


@dataclass
class SolveResult:
    """Outcome of one language-equation solve."""

    problem: EquationProblem
    method: str
    solution: Automaton  # most general prefix-closed solution (incl. DCA)
    csf: Automaton  # largest prefix-closed input-progressive part
    seconds: float
    stats: SubsetStats | None = None
    explicit_trace: ExplicitTrace | None = None
    options: dict = field(default_factory=dict)

    @property
    def split(self) -> LatchSplit:
        return self.problem.split

    @property
    def csf_states(self) -> int:
        """The paper's ``States(X)`` column."""
        return csf_state_count(self.csf)

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.split.original.name}: method={self.method} "
            f"csf_states={self.csf_states} time={self.seconds:.3f}s"
        )


def solve_equation(
    problem: EquationProblem,
    config: SolveConfig | None = None,
    *,
    limit: ResourceLimit | None = None,
    pool=None,
    progress=None,
    cancel=None,
    checkpoint=None,
    checkpoint_every: int = 0,
    checkpoint_seconds: float = 0.0,
    resume: dict | None = None,
    spill_dir: str | None = None,
    **knobs,
) -> SolveResult:
    """Solve a built problem with the chosen flow.

    Parameters
    ----------
    config / knobs:
        The solver settings (:class:`~repro.eqn.config.SolveConfig`,
        which documents every field): ``config`` (default: all
        defaults) with any per-field keywords — ``method=``,
        ``shards=``, ``frontier=``, ``batch=``, ``compose=``, ... —
        merged on top.  The manager setting (``backend``) took effect
        when the problem was built.
    limit:
        Optional wall-clock budget; BDD-node budgets are configured when
        *building* the problem (``max_nodes``).
    pool:
        Optional pre-warmed :class:`~repro.shard.pool.ShardPool` to
        borrow instead of forking a fresh one (the job server reuses one
        pool across jobs).  Must already be reset to this problem's
        variable order and have ``shards`` workers; it is left running
        when the solve finishes.
    progress / cancel / checkpoint / checkpoint_every /
    checkpoint_seconds / resume:
        Serving hooks forwarded to
        :func:`~repro.eqn.subset.subset_construct` (per-batch progress
        events, cooperative cancellation, resumable frontier
        checkpoints on a batch-count and/or wall-clock cadence —
        whichever fires first).  Symbolic flows only.
    spill_dir:
        Where a ``resident_budget`` solve spills cold expanded subset
        states (:mod:`repro.eqn.residency`): a private temporary
        directory when not given.  Only the coordinator spills; shard
        workers hold at most one batch of ψ and never touch the store.
    """
    config = SolveConfig.from_mapping(knobs, config)
    if config.compose:
        from repro.eqn.compose import solve_compositional

        result = solve_compositional(
            problem,
            config,
            limit=limit,
            pool=pool,
            progress=progress,
            cancel=cancel,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            checkpoint_seconds=checkpoint_seconds,
            resume=resume,
            spill_dir=spill_dir,
        )
        if result is not None:
            return result
        # The decomposition does not apply — fall through to the
        # direct solve (recorded in the options so callers can tell).
    method = config.method
    watch = Stopwatch()
    if limit is not None:
        limit.restart()
    if method == "explicit":
        with obs_span("solve", method=method):
            csf, trace = solve_explicit(problem)
        return SolveResult(
            problem=problem,
            method=method,
            solution=csf,
            csf=csf,
            seconds=watch.elapsed(),
            explicit_trace=trace,
            options={"schedule": config.schedule, "trim": config.trim},
        )
    residency = None
    if config.resident_budget is not None:
        from repro.eqn.residency import ResidencyManager

        residency = ResidencyManager(
            problem.manager, config.resident_budget, spill_dir=spill_dir
        )
    try:
        with obs_span(
            "solve",
            method=method,
            shards=config.shards,
            batch=config.batch,
            frontier=config.frontier,
        ) as solve_span:
            if method == "partitioned":
                with obs_span("oracle_setup", shards=config.shards):
                    oracle = PartitionedOracle(problem, config, pool=pool)
            else:
                with obs_span("oracle_setup", shards=0):
                    oracle = MonolithicOracle(problem, trim=config.trim)
            try:
                solution, stats = subset_construct(
                    oracle,
                    problem,
                    limit=limit,
                    strategy=config.frontier,
                    batch_size=config.batch,
                    progress=progress,
                    cancel=cancel,
                    checkpoint=checkpoint,
                    checkpoint_every=checkpoint_every,
                    checkpoint_seconds=checkpoint_seconds,
                    resume=resume,
                    residency=residency,
                )
            finally:
                closer = getattr(oracle, "close", None)
                if closer is not None:
                    closer()
            with obs_span("extract_csf"):
                csf = extract_csf(solution, problem.u_names)
            solve_span.set(subsets=stats.subsets, batches=stats.batches)
    finally:
        if residency is not None:
            residency.close()
    options = {name: getattr(config, name) for name in RESULT_OPTIONS}
    options["compose"] = False
    return SolveResult(
        problem=problem,
        method=method,
        solution=solution,
        csf=csf,
        seconds=watch.elapsed(),
        stats=stats,
        options=options,
    )


def solve_latch_split(
    net: Network,
    x_latches: Sequence[str],
    config: SolveConfig | None = None,
    *,
    u_signals: Sequence[str] | None = None,
    limit: ResourceLimit | None = None,
    **kwargs,
) -> SolveResult:
    """Split ``net``, then solve for the CSF of the moved latches.

    This reproduces the paper's experimental setup end to end: the
    original network is the specification ``S``, the part keeping the
    latches *not* in ``x_latches`` is ``F``, and the computed ``X`` is
    the complete sequential flexibility of the moved part.

    ``config`` and per-field keywords select every solver setting (see
    :class:`~repro.eqn.config.SolveConfig`): the manager setting
    (``backend``) builds the problem, the rest drive
    :func:`solve_equation`.  Every other keyword (``pool``,
    ``progress``, ``cancel``, ``checkpoint*``, ``resume``,
    ``spill_dir``) is a per-call hook forwarded to
    :func:`solve_equation`.
    """
    knobs = {name: kwargs.pop(name) for name in FIELD_NAMES if name in kwargs}
    config = SolveConfig.from_mapping(knobs, config)
    split = latch_split(net, x_latches, u_signals=u_signals)
    max_nodes = limit.max_nodes if limit is not None else None
    with obs_span("build_problem", network=net.name, backend=config.backend):
        problem = build_problem(split, config, max_nodes=max_nodes)
    return solve_equation(problem, config, limit=limit, **kwargs)


def verify_solution(result: SolveResult, **kwargs):
    """Shortcut to :func:`repro.eqn.verify.verify_solution`."""
    from repro.eqn.verify import verify_solution as _verify

    return _verify(result, **kwargs)
