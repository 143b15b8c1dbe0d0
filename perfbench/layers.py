"""Per-layer self times for the traced run, measured from outside the package.

The traced run wraps the public callables at each layer boundary
(:data:`BOUNDARIES`) and keeps one stack of open frames.  When a frame
closes, its duration minus the time its nested frames covered is that
layer's *self* time.  Every solve runs inside a root frame named
``other``, so the root's self time is whatever no wrapped callable
covered, and the self times of all layers plus ``other`` add up to the
summed solve wall exactly.

:data:`LAYER_METRICS` lists each per-layer metric with the end-to-end
metric and workload it is expected to move; ``BENCHMARK.json`` carries
the same names, units and directions.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (module, attribute path, layer).  Functions imported by name into a
#: caller's namespace are patched at the call site as well, because the
#: caller looks them up there.
BOUNDARIES = [
    ("repro.bdd.manager", "BddManager.collect_garbage", "bdd.gc"),
    ("repro.symb.image", "image_with_plan", "symb.image"),
    ("repro.symb.image", "image_partitioned", "symb.image"),
    ("repro.eqn.partitioned", "image_with_plan", "symb.image"),
    ("repro.eqn.partitioned", "image_partitioned", "symb.image"),
    ("repro.eqn.partitioned", "PartitionedOracle.__init__", "eqn.oracle_setup"),
    ("repro.eqn.monolithic", "MonolithicOracle.__init__", "eqn.oracle_setup"),
    ("repro.eqn.partitioned", "PartitionedOracle.successor_image", "eqn.p_image"),
    ("repro.eqn.partitioned", "PartitionedOracle.non_conformance", "eqn.q_image"),
    ("repro.eqn.partitioned", "PartitionedOracle.expand_batch", "eqn.expand"),
    ("repro.eqn.monolithic", "MonolithicOracle.expand_batch", "eqn.expand"),
    ("repro.eqn.partitioned", "split_by_vars", "eqn.enumerate"),
    ("repro.eqn.monolithic", "split_by_vars", "eqn.enumerate"),
    ("repro.eqn.solver", "subset_construct", "eqn.driver"),
    ("repro.eqn.solver", "extract_csf", "eqn.extract_csf"),
    ("repro.shard.pool", "ShardPool.collect", "shard.wait"),
    ("repro.shard.pool", "ShardPool.wait_any", "shard.wait"),
    ("repro.eqn.residency", "ResidencyManager.enforce", "residency.enforce"),
    ("repro.eqn.compose", "plan_components", "compose.plan"),
    ("repro.eqn.compose", "conforming_component", "compose.verify"),
]

#: Layers whose self time is reported as ``<layer>_s``.
TIMED_LAYERS = sorted({layer for _, _, layer in BOUNDARIES} | {"eqn.build_problem"})

#: The root frame around every solve; its self time is the remainder.
ROOT = "other"

T1, T1M, TW, SV = "table1", "table1_mono", "twin_sharded", "serve_mixed"

#: name -> (unit, better, end-to-end metric it should move, on which workloads).
LAYER_METRICS: dict[str, tuple[str, str, str, tuple[str, ...]]] = {
    "bdd.recursive_calls": ("count", "lower", "solve_s", (T1, T1M, TW)),
    "bdd.cache_hit_rate": ("ratio", "higher", "solve_s", (T1,)),
    "bdd.unique_hits": ("count", "higher", "solve_s", (T1,)),
    "bdd.gc_runs": ("count", "lower", "solve_s", (T1, TW)),
    "bdd.gc_reclaimed": ("count", "higher", "solve_s", (T1, TW)),
    "bdd.reclaim_ratio": ("ratio", "higher", "solve_s", (T1, TW)),
    "bdd.gc_s": ("s", "lower", "solve_s", (T1, TW)),
    "bdd.peak_live_nodes": ("count", "lower", "peak_rss_mb", (T1, T1M, TW)),
    "symb.image_calls": ("count", "lower", "solve_s", (T1, TW)),
    "symb.image_s": ("s", "lower", "solve_s", (T1, TW)),
    "eqn.build_problem_s": ("s", "lower", "solve_s", (T1, T1M, TW, SV)),
    "eqn.oracle_setup_s": ("s", "lower", "solve_s", (T1M, T1)),
    "eqn.p_image_s": ("s", "lower", "solve_s", (T1,)),
    "eqn.q_image_s": ("s", "lower", "solve_s", (T1,)),
    "eqn.enumerate_s": ("s", "lower", "solve_s", (T1, T1M)),
    "eqn.expand_s": ("s", "lower", "solve_s", (T1, T1M, TW)),
    "eqn.driver_s": ("s", "lower", "solve_s", (T1, T1M, TW)),
    "eqn.extract_csf_s": ("s", "lower", "solve_s", (T1, T1M, TW)),
    "eqn.memo_hit_rate": ("ratio", "higher", "solve_s", (TW,)),
    "eqn.subsets": ("count", "lower", "solve_s", (T1, T1M, TW, SV)),
    "eqn.edges": ("count", "lower", "solve_s", (T1, T1M, TW)),
    "shard.wait_s": ("s", "lower", "solve_s", (TW,)),
    "shard.worker_busy_s": ("s", "lower", "solve_s", (TW,)),
    "shard.ops": ("count", "lower", "solve_s", (TW,)),
    "shard.bytes_sent": ("bytes", "lower", "solve_s", (TW,)),
    "shard.steals": ("count", "lower", "solve_s", (TW,)),
    "shard.psi_serializations": ("count", "lower", "solve_s", (TW,)),
    "residency.spills": ("count", "lower", "solve_s", (TW,)),
    "residency.reloads": ("count", "lower", "solve_s", (TW,)),
    "residency.spill_bytes": ("bytes", "lower", "peak_rss_mb", (TW,)),
    "residency.enforce_s": ("s", "lower", "solve_s", (TW,)),
    "compose.plan_s": ("s", "lower", "solve_s", (TW,)),
    "compose.verify_s": ("s", "lower", "solve_s", (TW,)),
    "compose.skipped_latches": ("count", "higher", "solve_s", (TW,)),
    "other_s": ("s", "lower", "solve_s", (T1, T1M, TW)),
    "serve.cold_s": ("s", "lower", "solve_s", (SV,)),
    "serve.queue_wait_s": ("s", "lower", "solve_s", (SV,)),
    "serve.job_solve_s": ("s", "lower", "solve_s", (SV,)),
    "serve.persist_s": ("s", "lower", "solve_s", (SV,)),
    "serve.hit_p50_ms": ("ms", "lower", "solve_s", (SV,)),
    "serve.hit_p90_ms": ("ms", "lower", "solve_s", (SV,)),
    "serve.hit_idle_p50_ms": ("ms", "lower", "solve_s", (SV,)),
    "serve.hit_samples": ("count", "higher", "solve_s", (SV,)),
    "serve.hits_per_s": ("1/s", "higher", "solve_s", (SV,)),
    "serve.executor_busy_share": ("ratio", "lower", "solve_s", (SV,)),
    "trace.overhead_share": ("ratio", "lower", "solve_s", (T1, T1M, TW)),
}


class Ledger:
    """Exclusive-time accounting over a stack of nested frames."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.bytes_sent = 0
        #: Summed duration of the outermost frames (the solve windows).
        self.wall_s = 0.0
        self._stack: list[list] = []  # [layer, start, covered-by-children]

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> float:
        layer, start, covered = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - covered
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.wall_s += duration
        return duration

    @contextmanager
    def frame(self, layer: str):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def total(self) -> float:
        """Sum of every layer's self time (root included)."""
        return sum(self.self_s.values())


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(ledger: Ledger):
    """Wrap every boundary (and count shard bytes); returns an undo callable."""
    saved = []
    for module, path, layer in BOUNDARIES:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, ledger.wrap(layer, original))

    owner, attr = _resolve("repro.shard.pool", "ShardPool.submit")
    original_submit = owner.__dict__[attr]
    saved.append((owner, attr, original_submit))

    @functools.wraps(original_submit)
    def submit(pool, shard, msg):
        ledger.bytes_sent += len(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))
        return original_submit(pool, shard, msg)

    setattr(owner, attr, submit)

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
