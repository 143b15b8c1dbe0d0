"""The in-process solver workloads: ``table1``, ``table1_mono``, ``twin_sharded``.

Each workload is a fixed list of solve jobs over the ``repro.bench.suite``
cases, shuffled by the seed.  A *pass* solves every job once; each
solve's wall time covers ``build_latch_split_problem`` +
``solve_equation`` (CSF extraction included), which is what a user pays
per solve.  Outputs are checked after the timer stops: every CSF must
match the expected state count and KISS digest, and on the first pass
the soundness and explicit-solver checks run in a forked child.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.automata import equivalent
from repro.automata.kiss import write_kiss
from repro.bench.suite import (
    TABLE1_BENCH_ONLY_CASES,
    TABLE1_CASES,
    TABLE1_COMPOSE_CASES,
    SplitCase,
    case_by_name,
)
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.solver import solve_equation, verify_solution
from repro.errors import ReproError
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.shard.pool import ShardPool
from repro.util.limits import ResourceLimit

import layers
from measure import Tally, child_pids, median, run_forked, self_peak_mb, vm_hwm_mb
from speed import SpeedSampler

#: Rows the monolithic flow completes within seconds.
MONO_ROWS = ("s27", "count6", "johnson8", "rand10", "lfsr8")

#: Rows cross-checked for language equivalence against Algorithm 1.
EXPLICIT_ROWS = ("s27", "count6", "johnson8", "rand10")

#: Resident psi node budget of the bounded twin solve.
TWIN_RESIDENT_BUDGET = 2048

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 5


@dataclass(frozen=True)
class Job:
    """One solve: a suite case plus the ``solve_equation`` keywords.

    ``name`` keys the expected-output file.  Jobs that must produce the
    same bytes share a name (the monolithic rows reuse the partitioned
    row's entry, which is how part/mono byte identity is checked).
    """

    name: str
    case: SplitCase
    flags: dict = field(default_factory=dict)


def table1_jobs() -> list[Job]:
    return [Job(case.name, case) for case in TABLE1_CASES]


def mono_jobs() -> list[Job]:
    return [
        Job(name, case_by_name(name), {"method": "monolithic"}) for name in MONO_ROWS
    ]


def twin_jobs() -> list[Job]:
    (twin16x4,) = [c for c in TABLE1_BENCH_ONLY_CASES if c.name == "twin16x4"]
    (twin20_4,) = TABLE1_COMPOSE_CASES
    return [
        Job(
            "twin16x4@bfs8+shards2+budget",
            twin16x4,
            {
                "frontier": "bfs",
                "batch": 8,
                "shards": 2,
                "resident_budget": TWIN_RESIDENT_BUDGET,
            },
        ),
        Job("twin20_4@compose", twin20_4, {"compose": True}),
    ]


JOBS = {
    "table1": table1_jobs,
    "table1_mono": mono_jobs,
    "twin_sharded": twin_jobs,
}


@dataclass
class Outcome:
    window: tuple[float, float]  # perf_counter start and end of the solve
    result: object | None = None
    error: str | None = None


def solve(job: Job, net, ledger: layers.Ledger | None = None) -> Outcome:
    """Time one solve; a CNC or crash becomes an error, never an exception."""
    case = job.case
    limit = ResourceLimit(max_seconds=case.max_seconds, max_nodes=case.max_nodes)
    root = ledger.frame(layers.ROOT) if ledger else nullcontext()
    build = ledger.frame("eqn.build_problem") if ledger else nullcontext()
    gc.collect()
    start = time.perf_counter()
    try:
        with root:
            with build:
                problem = build_latch_split_problem(
                    net,
                    list(case.x_latches),
                    u_signals=list(case.u_signals) if case.u_signals else None,
                    max_nodes=case.max_nodes,
                )
            result = solve_equation(problem, limit=limit, **job.flags)
    except ReproError as exc:
        return Outcome((start, time.perf_counter()), error=f"CNC {exc!r}")
    except Exception as exc:  # a crash is a failed operation, not a dead run
        return Outcome((start, time.perf_counter()), error=repr(exc))
    return Outcome((start, time.perf_counter()), result=result)


def digest(result) -> dict:
    kiss = write_kiss(result.csf).encode("utf-8")
    return {
        "csf_states": result.csf_states,
        "kiss_sha256": hashlib.sha256(kiss).hexdigest(),
    }


def sound(result) -> bool:
    """``verify_solution`` soundness: X_P ⊆ X and F∘X ⊆ S."""
    return verify_solution(result, check_composition=False).ok


def matches_explicit(result) -> bool:
    explicit = solve_equation(result.problem, method="explicit")
    return equivalent(result.csf, explicit.csf)


class WorkerPeaks:
    """Peak resident set of shard workers, read just before a pool closes."""

    def __init__(self, others: set[int]) -> None:
        self.mb = 0.0
        original = ShardPool.close

        def close(pool):
            workers = sum(vm_hwm_mb(pid) for pid in set(child_pids()) - others)
            self.mb = max(self.mb, workers)
            return original(pool)

        ShardPool.close = close
        self.undo = lambda: setattr(ShardPool, "close", original)


def run_pass(jobs, nets, expected, tally, *, gates, ledger=None, on_result=None):
    """Solve every job once; returns each successful solve's timed window."""
    windows = {}
    for job in jobs:
        outcome = solve(job, nets[job.name], ledger)
        if not tally.check(f"{job.name}: {outcome.error}", outcome.error is None):
            continue
        windows[job.name] = outcome.window
        result = outcome.result
        tally.check(f"{job.name}: output", digest(result) == expected.get(job.name))
        if gates:
            tally.check(f"{job.name}: soundness", run_forked(lambda: sound(result)))
            if job.case.name in EXPLICIT_ROWS and "method" not in job.flags:
                tally.check(
                    f"{job.name}: explicit",
                    run_forked(lambda: matches_explicit(result)),
                )
        if on_result is not None:
            on_result(result)
        del outcome, result
    return windows


class LayerCounts:
    """Kernel and engine counters summed over the traced pass."""

    def __init__(self) -> None:
        self.c: Counter = Counter()

    def add(self, result) -> None:
        c = self.c
        st = result.problem.manager.stats
        for key in ("recursive_calls", "cache_hits", "cache_misses", "unique_hits"):
            c[key] += st[key]
        c["gc_runs"] += st["gc_runs"]
        c["gc_reclaimed"] += st["gc_reclaimed"]
        c["reclaim_weighted"] += st["reclaim_ratio_avg"] * st["gc_runs"]
        c["peak_live"] = max(c["peak_live"], st["peak_live_nodes"])
        stats = result.stats
        if stats is None:
            return
        c["subsets"] += stats.subsets
        c["edges"] += stats.edges
        extra = stats.extra
        c["memo_hits"] += extra.get("completion_memo_hits", 0)
        c["memo_misses"] += extra.get("completion_memo_misses", 0)
        c["shard_ops"] += sum((extra.get("pool_op_counts") or {}).values())
        c["steals"] += extra.get("work_steals", 0)
        c["psi_serializations"] += extra.get("psi_serializations", 0)
        c["spills"] += extra.get("psi_spills", 0)
        c["reloads"] += extra.get("psi_reloads", 0)
        c["spill_bytes"] += extra.get("spill_bytes", 0)
        c["skipped_latches"] += extra.get("compose_skipped_latches", 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger, counts, worker_busy_s, overhead_share) -> dict[str, float]:
    c = counts.c
    m = {f"{layer}_s": ledger.self_s.get(layer, 0.0) for layer in layers.TIMED_LAYERS}
    m["other_s"] = ledger.self_s.get(layers.ROOT, 0.0)
    m.update(
        {
            "bdd.recursive_calls": c["recursive_calls"],
            "bdd.cache_hit_rate": _ratio(
                c["cache_hits"], c["cache_hits"] + c["cache_misses"]
            ),
            "bdd.unique_hits": c["unique_hits"],
            "bdd.gc_runs": c["gc_runs"],
            "bdd.gc_reclaimed": c["gc_reclaimed"],
            "bdd.reclaim_ratio": _ratio(c["reclaim_weighted"], c["gc_runs"]),
            "bdd.peak_live_nodes": c["peak_live"],
            "symb.image_calls": ledger.calls.get("symb.image", 0),
            "eqn.memo_hit_rate": _ratio(
                c["memo_hits"], c["memo_hits"] + c["memo_misses"]
            ),
            "eqn.subsets": c["subsets"],
            "eqn.edges": c["edges"],
            "shard.worker_busy_s": worker_busy_s,
            "shard.ops": c["shard_ops"],
            "shard.bytes_sent": ledger.bytes_sent,
            "shard.steals": c["steals"],
            "shard.psi_serializations": c["psi_serializations"],
            "residency.spills": c["spills"],
            "residency.reloads": c["reloads"],
            "residency.spill_bytes": c["spill_bytes"],
            "compose.skipped_latches": c["skipped_latches"],
            "trace.overhead_share": overhead_share,
        }
    )
    return m


def print_ratios(part: dict[str, float], mono: dict[str, float]) -> None:
    """The paper's mono/part column, per row and in total (informational)."""
    both = [name for name in mono if name in part]
    print(f"{'row':10s} {'part_s':>8s} {'mono_s':>8s} {'mono/part':>9s}")
    for name in both:
        print(f"{name:10s} {part[name]:8.3f} {mono[name]:8.3f} "
              f"{mono[name] / part[name]:9.2f}")
    if both:
        total_part = sum(part[n] for n in both)
        total_mono = sum(mono[n] for n in both)
        print(f"{'total':10s} {total_part:8.3f} {total_mono:8.3f} "
              f"{total_mono / total_part:9.2f}")


def run(workload: str, *, seconds: float, seed: int, trace: bool, expected: dict,
        tally: Tally, setup_probe) -> dict[str, float]:
    """Run one solver workload and return its metrics.

    ``setup_probe()`` times one fresh interpreter getting ready and
    returns its window.  Times are reported at reference speed (see
    :mod:`speed`); a workload without shard workers runs pinned to one
    CPU, the one its sampler watches.
    """
    jobs = JOBS[workload]()
    random.Random(seed).shuffle(jobs)
    nets = {job.name: job.case.network() for job in jobs}
    shards = any(job.flags.get("shards", 1) > 1 for job in jobs)
    cpus = None
    if not shards:
        cpus = {max(os.sched_getaffinity(0))}
        os.sched_setaffinity(0, cpus)
    with SpeedSampler(cpus) as sampler:
        peaks = WorkerPeaks(others=sampler.pids)
        try:
            if trace:
                plain, traced, readings = traced_pairs(jobs, nets, expected, tally,
                                                       shards=shards)
            else:
                setup = [setup_probe() for _ in range(SETUP_PROBES)]
                passes = []
                started = time.perf_counter()
                while True:
                    passes.append(
                        run_pass(jobs, nets, expected, tally, gates=not passes)
                    )
                    elapsed = time.perf_counter() - started
                    if elapsed + elapsed / len(passes) > seconds:
                        break
                peak_rss_mb = self_peak_mb() + peaks.mb
                if workload == "table1_mono":
                    part_jobs = [Job(job.name, job.case) for job in jobs]
                    part = run_pass(part_jobs, nets, expected, tally, gates=False)
        finally:
            peaks.undo()

    def at_ref(windows: dict) -> dict[str, float]:
        return {name: sampler.at_reference(*w) for name, w in windows.items()}

    if trace:
        untraced_s = sum(at_ref(plain).values())
        overhead = _ratio(sum(at_ref(traced).values()), untraced_s) - 1.0
        return layer_metrics(*readings, overhead)
    pass_s = [sum(at_ref(p).values()) for p in passes]
    for p, ref_s in zip(passes, pass_s):
        wall_s = sum(end - start for start, end in p.values())
        print(f"pass: wall {wall_s:.3f} s, at reference speed {ref_s:.3f} s",
              file=sys.stderr)
    if workload == "table1_mono":
        print_ratios(at_ref(part), at_ref(passes[0]))
    return {
        "setup_s": median([sampler.at_reference(*w) for w in setup]),
        "solve_s": median(pass_s),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_pairs(jobs, nets, expected, tally, *, shards: bool):
    """Solve each job untraced and under the ledger, alternating which
    goes first so that warm-up inside the process favours neither side.

    Returns the untraced windows, the traced windows, and the ledger
    readings :func:`layer_metrics` takes.
    """
    ledger = layers.Ledger()
    counts = LayerCounts()
    # Worker command spans only reach the coordinator through the
    # program's own tracer, so it is installed where workers run.
    tracer = Tracer() if shards else None
    plain, traced = {}, {}
    for i, job in enumerate(jobs):
        for under_ledger in (i % 2 == 1, i % 2 == 0):
            if not under_ledger:
                plain.update(run_pass([job], nets, expected, tally, gates=False))
                continue
            undo = layers.install(ledger)
            if tracer is not None:
                install_tracer(tracer)
            try:
                traced.update(run_pass([job], nets, expected, tally, gates=False,
                                       ledger=ledger, on_result=counts.add))
            finally:
                undo()
                uninstall_tracer()
    worker_busy_s = 0.0
    if tracer is not None:
        worker_busy_s = sum(
            event["dur"] / 1e6
            for event in tracer.events()
            if event.get("ph") == "X" and event["name"].startswith("shard:")
        )
    return plain, traced, (ledger, counts, worker_busy_s)
