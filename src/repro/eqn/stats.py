"""One declaration of every per-solve counter: :class:`SubsetStats`.

Each surface that reports what a solve did reads the fields below: the
CLI solve summary, the result payload and the checkpoint snapshot, the
serve job status, the ``/metrics`` counter families and the
BENCH_table1 row columns.  Each field declares

* its **group**, the summary line it is printed on.  The
  ``construction`` group is counted by the subset driver itself,
  travels in checkpoints and sits at the top level of a result payload;
  every other counter is filled in at the end of a solve and carried
  under the payload's ``extra``.  The ``kernel`` group is copied from
  the manager's own ``stats`` under the same names;
* its help text, which is also the help of its ``/metrics`` family;
* where it has them, its ``/metrics`` counter family (with the label of
  a per-key dict counter), its job-status key and its BENCH column.

A group is *active* when any of its counters is non-zero; only active
groups are printed and only their columns enter a BENCH row.  Like
:mod:`repro.eqn.config`, the module imports only the standard library.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

CONSTRUCTION = "construction"
KERNEL = "kernel"
MEMO = "completion memo"
SHARDS = "shards"
RESIDENCY = "residency"
COMPOSE = "compose"


def _counter(group, help, metric=None, *, label=None, job=None, bench=None):
    meta = dict(group=group, help=help, metric=metric, label=label, job=job, bench=bench)
    if label is not None:  # a per-key dict counter: one sample per key
        return field(default_factory=dict, metadata=meta)
    return field(default=0, metadata=meta)


@dataclass
class SubsetStats:
    """Instrumentation of one solve."""

    subsets: int = _counter(CONSTRUCTION, "Subset states found.", job="subsets", bench="subsets")
    edges: int = _counter(CONSTRUCTION, "Edges between subset states.")
    dca_edges: int = _counter(CONSTRUCTION, "Edges into the accepting completion state.")
    batches: int = _counter(CONSTRUCTION, "Frontier batches.", job="batches", bench="batches")
    peak_nodes: int = _counter(CONSTRUCTION, "Peak live nodes at batch ends.", job="peak_nodes")
    completion_memo_hits: int = _counter(
        MEMO, "Completion-memo hits in the subset construction.", "repro_memo_hits_total",
        job="memo_hits", bench="memo_hits",
    )
    completion_memo_misses: int = _counter(MEMO, "Completion images computed.")
    psi_serializations: int = _counter(
        SHARDS, "Constraint BDDs serialized to shard workers.",
        "repro_psi_serializations_total", job="psi_serializations",
    )
    psi_resident_peak: int = _counter(SHARDS, "Most subset states resident on a worker.")
    pool_op_counts: dict = _counter(
        SHARDS, "Shard worker commands, by operation.", "repro_shard_commands_total", label="op"
    )
    gc_runs: int = _counter(
        KERNEL, "Kernel garbage-collection sweeps.", "repro_gc_runs_total", job="gc_runs"
    )
    resident_budget: int = _counter(RESIDENCY, "Node budget of resident subset states.")
    psi_spills: int = _counter(
        RESIDENCY, "Resident subset states spilled to the content-addressed store.",
        "repro_psi_spills_total", job="psi_spills", bench="psi_spills",
    )
    psi_reloads: int = _counter(
        RESIDENCY, "Spilled subset states reloaded for a checkpoint snapshot.",
        "repro_psi_reloads_total", job="psi_reloads", bench="psi_reloads",
    )
    resident_evictions: int = _counter(
        RESIDENCY, "Resident-table evictions under a node budget.",
        "repro_resident_evictions_total", bench="resident_evictions",
    )
    resident_nodes_peak: int = _counter(
        RESIDENCY, "Peak resident subset-state nodes.", bench="resident_nodes_peak"
    )
    evicted_peak: int = _counter(RESIDENCY, "Most subset states evicted at once.")
    spill_bytes: int = _counter(RESIDENCY, "Bytes written to the spill store.")
    compose_components: int = _counter(
        COMPOSE, "Independent components.", bench="compose_components"
    )
    compose_verified_components: int = _counter(COMPOSE, "Letter-free components verified.")
    compose_solved_latches: int = _counter(
        COMPOSE, "Latches of the solved component.", bench="compose_solved_latches"
    )
    compose_skipped_latches: int = _counter(
        COMPOSE, "Latches never solved.", bench="compose_skipped_latches"
    )

    @classmethod
    def from_payload(cls, block: Mapping) -> SubsetStats:
        """The record of a payload ``stats`` block (missing counters stay 0)."""
        flat = {**(block.get("extra") or {}), **block}
        return cls(**{name: flat[name] for name in _META if name in flat})

    @property
    def extra(self) -> Mapping:
        """Every counter outside ``construction``, read-only, by name."""
        values = {name: getattr(self, name) for name in RUN_FIELDS}
        values["pool_op_counts"] = dict(self.pool_op_counts)
        return MappingProxyType(values)

    def construction(self) -> dict:
        """The driver's own counters (checkpoint block, payload top level)."""
        return {name: getattr(self, name) for name in CONSTRUCTION_FIELDS}

    def summary(self) -> list[tuple[str, dict]]:
        """``(group, {name: value})`` of every active group, in order."""
        groups = [(g, {n: getattr(self, n) for n in names}) for g, names in GROUPS.items()]
        return [(g, values) for g, values in groups if any(values.values())]

    def job_status(self) -> dict:
        """The counters shown in job status, under their job-status keys."""
        return {key: getattr(self, name) for name, key in JOB_FIELDS}

    def bench_columns(self) -> dict:
        """The BENCH row columns of the active groups."""
        active = {g for g, _ in self.summary()}
        return {col: getattr(self, n) for n, col in BENCH_FIELDS if _META[n]["group"] in active}


_META = {f.name: f.metadata for f in fields(SubsetStats)}
CONSTRUCTION_FIELDS = tuple(n for n, m in _META.items() if m["group"] == CONSTRUCTION)
RUN_FIELDS = tuple(n for n in _META if n not in CONSTRUCTION_FIELDS)
KERNEL_FIELDS = tuple(n for n, m in _META.items() if m["group"] == KERNEL)
#: Group -> its scalar counters (per-key dicts are not summary values).
GROUPS = {
    g: tuple(n for n, m in _META.items() if m["group"] == g and m["label"] is None)
    for g in dict.fromkeys(m["group"] for m in _META.values())
}
#: ``(field, family, label, help)`` of every counter with a ``/metrics`` family.
METRIC_FIELDS = tuple(
    (n, m["metric"], m["label"], m["help"]) for n, m in _META.items() if m["metric"]
)
JOB_FIELDS = tuple((n, m["job"]) for n, m in _META.items() if m["job"])
BENCH_FIELDS = tuple((n, m["bench"]) for n, m in _META.items() if m["bench"])
