"""Result payloads: what the content-addressed cache stores.

A payload is a plain dict holding everything a warm-cache hit must
reproduce without touching a solver: the CSF automaton (states, edges
and the packed-array snapshot of every edge-label BDD —
:func:`repro.bdd.io.dump_nodes`, the same wire format the sharded
runtime ships between processes), the run's statistics, the flags it
ran under and its cold-solve timing.  Loading a payload rebuilds the
automaton in a tiny fresh manager in microseconds — no images, no
subset construction, no shard traffic.
"""

from __future__ import annotations

from repro.automata.automaton import Automaton
from repro.bdd.io import dump_nodes, load_nodes
from repro.bdd.manager import BddManager
from repro.errors import ServeError

#: Version tag of the cached result payload layout.
PAYLOAD_FORMAT = "repro-serve-result/1"


def dump_automaton(aut: Automaton) -> dict:
    """Serialise an automaton (structure + labels) into a plain dict.

    Edge labels travel as one shared :func:`dump_nodes` snapshot, so
    structure common to many labels is stored once.
    """
    mgr = aut.manager
    roots: list[int] = []
    edges: list[list[int]] = []
    for src, bucket in enumerate(aut.edges):
        for dst, label in bucket.items():
            edges.append([src, dst, len(roots)])
            roots.append(label)
    return {
        "variables": list(aut.variables),
        "state_names": list(aut.state_names),
        "accepting": sorted(aut.accepting),
        "initial": aut.initial,
        "edges": edges,
        "nodes": dump_nodes(mgr, roots),
    }


def load_automaton(data: dict, mgr: BddManager | None = None) -> Automaton:
    """Rebuild an automaton serialised by :func:`dump_automaton`.

    With no manager given, a fresh one is created (the cheap path of a
    cache hit); alphabet variables are declared on demand either way.
    """
    if mgr is None:
        mgr = BddManager()
    for name in data["variables"]:
        try:
            mgr.var_index(name)
        except KeyError:
            mgr.add_var(name)
    aut = Automaton(mgr, tuple(data["variables"]))
    for name in data["state_names"]:
        aut.add_state(name, accepting=False)
    aut.accepting = set(data["accepting"])
    aut.initial = data["initial"]
    roots = load_nodes(mgr, data["nodes"])
    for src, dst, ref in data["edges"]:
        aut.add_edge(src, dst, roots[ref])
    return aut


def dump_result(result, *, cache_key: str | None = None) -> dict:
    """Payload of one :class:`~repro.eqn.solver.SolveResult`."""
    stats = None
    if result.stats is not None:
        stats = {**result.stats.construction(), "extra": dict(result.stats.extra)}
    return {
        "format": PAYLOAD_FORMAT,
        "cache_key": cache_key,
        "method": result.method,
        "options": dict(result.options),
        "seconds": result.seconds,
        "csf_states": result.csf_states,
        "csf": dump_automaton(result.csf),
        "stats": stats,
    }


def load_result(payload: dict, mgr: BddManager | None = None) -> dict:
    """Decode a payload: the ``csf`` entry becomes a live automaton."""
    if payload.get("format") != PAYLOAD_FORMAT:
        raise ServeError(
            f"unknown result payload format {payload.get('format')!r} "
            f"(expected {PAYLOAD_FORMAT!r})"
        )
    out = dict(payload)
    out["csf"] = load_automaton(payload["csf"], mgr)
    return out


def result_kiss(payload: dict) -> str:
    """KISS2 text of a payload's CSF (the HTTP result representation).

    KISS2 is canonical given the automaton's state numbering, and both
    a cache hit and a checkpoint resume reproduce the numbering of the
    original run — so byte-equal KISS text is the end-to-end identity
    check the acceptance tests use.
    """
    from repro.automata.kiss import write_kiss

    return write_kiss(load_result(payload)["csf"])
