"""Sharded multi-process BDD runtime.

The paper's partitioned representations keep the per-component BDDs
small — but a single :class:`~repro.bdd.manager.BddManager` is
single-threaded, so partitioning alone buys memory locality and never
buys cores.  This package runs image computations in separate worker
processes, each owning its own shard manager (with its own computed
table and garbage collector), and joins the per-shard results in the
coordinator manager through serialized transfers
(:func:`repro.bdd.io.dump_nodes` / :func:`~repro.bdd.io.load_nodes`,
the packed-array wire format).

Layers
------

* :mod:`repro.shard.worker` — the child-process command loop: a shard
  manager plus a handle registry, served over a pipe.
* :mod:`repro.shard.pool` — :class:`ShardPool`, the coordinator-side
  handle to a set of persistent workers (spawn, submit/collect,
  broadcast, shutdown).
* :mod:`repro.shard.plan` — the image join: :class:`ShardedImage`
  cuts each constraint into cofactor slices, images them on the shards
  (every shard holds all parts and the full early-quantification plan)
  with work stealing, and ORs the slice images in the coordinator.

``--shards 1`` everywhere selects the unsharded in-process path
bit-identically; ``--shards N`` (N ≥ 2) is result-identical by
construction (all transfers are exact and BDDs are canonical).  See
``docs/sharding.md`` for the architecture and when shards pay.
"""

from repro.shard.plan import ShardedImage
from repro.shard.pool import ShardError, ShardPool

__all__ = [
    "ShardError",
    "ShardPool",
    "ShardedImage",
]
