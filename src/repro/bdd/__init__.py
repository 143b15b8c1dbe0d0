"""Shared ROBDD engine (the paper's CUDD substrate, reimplemented).

Public surface:

* :class:`BddManager` — shared nodes with complement edges, a unified
  operator-tagged computed table, reference-counted garbage collection
  (``ref``/``deref``/``protect``/``collect_garbage``), Boolean
  connectives, quantification and the fused relational product
  ``and_exists`` that powers partitioned image computation.
* :mod:`repro.bdd.cube` — counting / enumeration / picking of cubes.
* :mod:`repro.bdd.reorder` — cross-manager :func:`transfer` (the only
  way to see a function under another variable order: a manager's order
  is fixed once it holds nodes) and mark-and-sweep :func:`compact`.
* :mod:`repro.bdd.io` — dot export and JSON (de)serialisation.
* :mod:`repro.bdd.backends` — the pluggable-backend registry:
  :func:`create_manager` constructs a manager on any registered
  :class:`~repro.bdd.backends.protocol.BddBackend` (``"python"`` — the
  reference kernel here — or the native ``"buddy"`` ctypes adapter),
  degrading gracefully to pure Python when a native library is absent.
"""

from repro.bdd.backends import (
    BACKEND_CHOICES,
    BackendFallbackWarning,
    BddBackend,
    available_backends,
    backend_available,
    create_manager,
    register_backend,
)
from repro.bdd.cube import (
    iter_cubes,
    iter_minterms,
    pick_cube,
    pick_minterm,
    sat_count,
)
from repro.bdd.io import (
    dump_function,
    dump_nodes,
    load_function,
    load_nodes,
    to_dot,
)
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.bdd.reorder import compact, transfer

__all__ = [
    "BACKEND_CHOICES",
    "FALSE",
    "TRUE",
    "BackendFallbackWarning",
    "BddBackend",
    "BddManager",
    "available_backends",
    "backend_available",
    "create_manager",
    "register_backend",
    "compact",
    "dump_function",
    "dump_nodes",
    "iter_cubes",
    "iter_minterms",
    "load_function",
    "load_nodes",
    "pick_cube",
    "pick_minterm",
    "sat_count",
    "to_dot",
    "transfer",
]
