#!/usr/bin/env python
"""Tour of the symbolic substrate: BDDs, images, reachability.

The paper's method stands on three layers that this library also exposes
directly: the BDD manager (a CUDD substitute), partitioned image
computation with early-quantification scheduling, and symbolic
reachability ("implicit state enumeration").  This example drives each
layer by hand on a small circuit.

Run:  python examples/symbolic_engine_tour.py
"""

import sys
from pathlib import Path

try:  # src layout: let `python examples/<name>.py` run without installing
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bdd import BddManager, sat_count
from repro.bench import circuits
from repro.network import build_network_bdds
from repro.symb import (
    PartitionedRelation,
    functions_to_relation,
    image_partitioned,
    network_reachable_states,
    schedule_parts,
)


def main() -> None:
    # --- layer 1: the BDD engine -------------------------------------- #
    mgr = BddManager()
    va, vb, vc = mgr.add_vars(["a", "b", "c"])
    a, b, c = (mgr.var_node(v) for v in (va, vb, vc))
    f = mgr.apply_or(mgr.apply_diff(a, b), mgr.apply_and(b, c))
    print(f"f = (a & !b) | (b & c): {mgr.size(f)} nodes, "
          f"{sat_count(mgr, f, [va, vb, vc])} of 8 minterms")
    no_b = mgr.exists(f, [vb])
    print(f"∃b.f depends on {sorted(mgr.var_name(v) for v in mgr.support(no_b))}")

    # --- layer 2: a circuit as partitioned BDDs ----------------------- #
    net = circuits.johnson(5)
    engine = BddManager()
    input_vars = {n: engine.add_var(n) for n in net.inputs}
    cs, ns = {}, {}
    for name in net.latches:  # interleave cs/ns: good orders matter
        cs[name] = engine.add_var(name)
        ns[name] = engine.add_var(f"{name}'")
    bdds = build_network_bdds(net, engine, input_vars, cs)
    relation = functions_to_relation(
        engine, ((ns[n], bdds.next_state[n]) for n in net.latches)
    )
    mono_size = engine.size(PartitionedRelation(engine, list(relation)).monolithic())
    print(f"\n{net.name}: partitioned relation {relation.size()} nodes "
          f"in {len(relation)} parts (monolithic: {mono_size} nodes)")

    # Early-quantification schedule for one image step.
    quantify = list(input_vars.values()) + list(cs.values())
    plan = schedule_parts(engine, list(relation), quantify)
    retire_trace = [len(retire) for _, retire in plan]
    print(f"schedule retires quantified vars per step: {retire_trace}")

    # One image: successors of the initial state.
    img = image_partitioned(engine, list(relation), bdds.init_cube, quantify)
    count = sat_count(engine, img, list(ns.values()))
    print(f"image of the initial state: {count} successor state(s)")

    # --- layer 3: reachability fixed point ----------------------------- #
    result = network_reachable_states(bdds, ns_vars=ns)
    print(f"reachable states: {result.state_count} "
          f"(fixed point in {result.iterations} iterations; "
          f"a Johnson counter visits 2n = {2 * net.num_latches} states)")


if __name__ == "__main__":
    main()
