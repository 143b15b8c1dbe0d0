"""Symbolic engine: partitioned relations, scheduling, image, reachability."""

from repro.symb.image import (
    image_monolithic,
    image_partitioned,
)
from repro.symb.reach import (
    ReachabilityResult,
    network_reachable_states,
    reachable_states,
)
from repro.symb.relation import (
    PartitionedRelation,
    functions_to_relation,
    output_relation,
    transition_relation,
)
from repro.symb.schedule import schedule_parts

__all__ = [
    "PartitionedRelation",
    "ReachabilityResult",
    "functions_to_relation",
    "image_monolithic",
    "image_partitioned",
    "network_reachable_states",
    "output_relation",
    "reachable_states",
    "schedule_parts",
    "transition_relation",
]
