"""Quantification scheduling for partitioned image computation.

The enabler the paper leans on: "the image computation can be performed
using the partitioned representation by scheduling those cs variables,
which do not appear in some parts, to be quantified earlier [4][5]".

:func:`schedule_parts` orders the relation parts greedily so that
quantified variables fall out of scope as early as possible, and
annotates each step with the variables that may be quantified right after
conjoining that part (because no later part mentions them).  This is an
IWLS'95-style heuristic driven purely by support sets.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.bdd.manager import BddManager


def schedule_supports(
    supports: Sequence[set[int]],
    quantify: Iterable[int],
    *,
    constraint_support: Iterable[int] = (),
) -> list[tuple[int, list[int]]]:
    """Support-set core of :func:`schedule_parts`.

    Takes the per-part support sets directly (no manager, no BDDs) and
    returns ``[(part_index, vars_quantifiable_after_it), ...]``.

    The greedy metric picks, at each step, the part minimising the
    estimated live support of the accumulated product:
    ``|(current ∪ part_support) − newly_quantifiable|``, breaking ties by
    preferring parts that retire more quantified variables, then by
    original position (deterministic).
    """
    qset = set(quantify)
    remaining = list(range(len(supports)))
    current: set[int] = set(constraint_support)
    ordered: list[tuple[int, list[int]]] = []

    while remaining:
        # Variables mentioned by each still-unprocessed part.
        best = None
        best_key = None
        for idx in remaining:
            future = set()
            for other in remaining:
                if other != idx:
                    future |= supports[other]
            live = current | supports[idx]
            retirable = (live & qset) - future
            key = (len(live - retirable), -len(retirable), idx)
            if best_key is None or key < best_key:
                best_key = key
                best = idx
        assert best is not None
        future = set()
        for other in remaining:
            if other != best:
                future |= supports[other]
        live = current | supports[best]
        retirable = sorted((live & qset) - future)
        ordered.append((best, retirable))
        current = live - set(retirable)
        remaining.remove(best)
    return ordered


def schedule_parts(
    mgr: BddManager,
    parts: Sequence[int],
    quantify: Iterable[int],
    *,
    constraint_support: Iterable[int] = (),
) -> list[tuple[int, list[int]]]:
    """Order ``parts`` and attach early-quantification sets.

    Returns ``[(part, vars_quantifiable_after_it), ...]`` such that
    processing parts in the returned order and existentially quantifying
    the attached variables right after conjoining each part is equivalent
    to quantifying everything at the end.  The ordering heuristic is
    :func:`schedule_supports` over the parts' support sets.
    """
    ordered = schedule_supports(
        [mgr.support(p) for p in parts],
        quantify,
        constraint_support=constraint_support,
    )
    return [(parts[idx], retire) for idx, retire in ordered]
