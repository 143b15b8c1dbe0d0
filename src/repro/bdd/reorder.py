"""Garbage compaction and cross-manager transfer for the BDD manager.

A manager's variable order is chosen while it is empty and never moves
afterwards, so the only ways to see a function under another order, or
with denser node ids, are the two rebuilds here:

* :func:`compact` — mark-and-sweep garbage collection that rebuilds the
  node arrays densely, returning an old-id -> new-id mapping for the
  caller's live references.
* :func:`transfer` — copy a function into another manager, matching
  variables by name; the destination order may differ arbitrarily from
  the source order.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.bdd.manager import _EDGE_SHIFT, FALSE, TRUE, BddManager
from repro.errors import BddError


def compact(mgr: BddManager, roots: Iterable[int]) -> dict[int, int]:
    """Garbage-collect ``mgr`` keeping only nodes reachable from ``roots``.

    Unlike :meth:`~repro.bdd.manager.BddManager.collect_garbage` (which
    keeps surviving ids stable and recycles freed slots), this rebuilds the
    node arrays densely: edges are renumbered, the free list is dropped and
    external reference counts are reset.  The returned dict maps every old
    live edge (including the terminals and both polarities) to its new
    edge; callers must remap any edges they hold.  The computed table is
    cleared.
    """
    # Collect reachable nodes (as regular/even edges), children before
    # parents.
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(r & -2, False) for r in roots]
    while stack:
        n, emit = stack.pop()
        if emit:
            order.append(n)
            continue
        if n == 0 or n in seen:
            continue
        seen.add(n)
        stack.append((n, True))
        stack.append((mgr._lo[n] & -2, False))
        stack.append((mgr._hi[n] & -2, False))

    new_var: list[int] = [-1, -1]
    new_lo: list[int] = [0, 1]
    new_hi: list[int] = [0, 1]
    new_subtables: list[dict[int, int]] = [{} for _ in range(mgr.num_vars)]
    edge_map: dict[int, int] = {0: 0}
    for n in order:
        var = mgr._var[n]
        old_lo, old_hi = mgr._lo[n], mgr._hi[n]
        lo = edge_map[old_lo & -2] | (old_lo & 1)
        hi = edge_map[old_hi & -2] | (old_hi & 1)
        new_edge = len(new_var)
        new_var += (var, var)
        new_lo += (lo, lo ^ 1)
        new_hi += (hi, hi ^ 1)
        new_subtables[var][lo << _EDGE_SHIFT | hi] = new_edge
        edge_map[n] = new_edge

    if mgr._nb[0] > mgr._peak_live:
        mgr._peak_live = mgr._nb[0]
    # In-place updates: the manager's hot closures capture these containers
    # (see BddManager._bind_hot_ops), so they must never be rebound.
    mgr._var[:] = new_var
    mgr._lo[:] = new_lo
    mgr._hi[:] = new_hi
    for sub, new_sub in zip(mgr._subtables, new_subtables):
        sub.clear()
        sub.update(new_sub)
    mgr._free.clear()
    mgr._extref.clear()
    mgr._nb[0] = 1 + len(order)
    mgr._gc_baseline = mgr._nb[0]
    mgr.clear_caches()
    mapping: dict[int, int] = {}
    for old, new in edge_map.items():
        mapping[old] = new
        mapping[old | 1] = new | 1
    return mapping


def transfer(
    f: int,
    src: BddManager,
    dst: BddManager,
    name_map: dict[str, str] | None = None,
) -> int:
    """Copy function ``f`` from manager ``src`` into manager ``dst``.

    Variables are matched by name (optionally renamed through
    ``name_map``); they must already be declared in ``dst``.  The copy is
    order-safe: it recombines children with ITE, so the destination order
    may differ arbitrarily from the source order.  Iterative (postorder
    stack), so arbitrarily deep functions transfer without touching the
    recursion limit.
    """
    memo: dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
    stack: list[tuple[int, int]] = [(0, f)]
    rstack: list[int] = []
    while stack:
        tag, node = stack.pop()
        if tag == 0:
            cached = memo.get(node)
            if cached is not None:
                rstack.append(cached)
                continue
            stack.append((1, node))
            stack.append((0, src.node_hi(node)))
            stack.append((0, src.node_lo(node)))
        else:
            hi = rstack.pop()
            lo = rstack.pop()
            name = src.var_name(src.node_var(node))
            if name_map is not None:
                name = name_map.get(name, name)
            try:
                var = dst.var_index(name)
            except KeyError:
                raise BddError(
                    f"transfer: variable {name!r} not declared in destination"
                )
            result = dst.ite(dst.var_node(var), hi, lo)
            memo[node] = result
            rstack.append(result)
    return rstack[0]
