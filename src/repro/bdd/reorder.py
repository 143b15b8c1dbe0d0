"""Garbage collection and variable reordering for the BDD manager.

Two generations of reordering live here:

* :func:`sift` / :func:`swap_levels` — **in-place, CUDD-style dynamic
  reordering**.  Adjacent levels are exchanged by rewriting the upper
  level's nodes in place (complement-edge aware: the rewritten then-edge
  is provably regular, so canonical form is preserved without touching
  any parent), which means *every edge held by a caller stays valid
  across a reorder* — no remapping, no fresh manager.  Sifting moves
  each variable through its block to the position minimising the live
  node count, with the classic ``max_growth`` abort.  This is the engine
  behind :meth:`~repro.bdd.manager.BddManager.sift_now`.
* :func:`transfer` / :func:`reorder` / :func:`greedy_sift_order` — the
  older rebuild-based primitives: copy functions into another manager
  (possibly with a different order).  Still useful for cross-manager
  transfer and order search on small managers, and kept as the reference
  implementation the in-place path is property-tested against.

:func:`compact` — mark-and-sweep garbage collection that rebuilds the
node arrays densely, returning an old-id -> new-id mapping for the
caller's live references — also lives here.

With **per-level subtables** (see :mod:`repro.bdd.manager`) the swap gets
its candidate bucket for free: the upper variable's subtable *is* the
list of nodes to rewrite — no array scan, no lazily-filtered bucket
lists.  Every completed swap bumps the manager's ``_order_epoch`` so
interned :class:`~repro.bdd.manager.QuantSet` level caches revalidate.

**In-place swap, in one paragraph.**  To exchange level ``l`` (variable
``x``) with level ``l+1`` (variable ``y``): every ``x``-node whose
children do not mention ``y`` is untouched (only the level tables flip).
An ``x``-node ``F = ite(x, f1, f0)`` with a ``y``-child is rewritten in
place as ``F = ite(y, G1, G0)`` where ``G1 = ite(x, f1|y=1, f0|y=1)`` and
``G0 = ite(x, f1|y=0, f0|y=0)`` are found-or-created below it.  Because
stored then-edges are regular, ``f1`` is regular, hence ``f1|y=1`` (a
stored then-edge, a terminal, or ``f1`` itself) is regular, hence ``G1``
is regular — so the rewrite never needs to push a complement bit up to
the parents, which is exactly what makes the in-place update sound.
Node deaths (``y``-nodes orphaned by the rewrite, plus cascades) are
detected with sift-local reference counts seeded from the stored parent
edges, external refs, literals and the caller's roots; freed slots are
withheld from reuse until the sift completes.  The computed table is
flushed once per sift: quantification cache keys embed level-set ids
whose meaning changes with the order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.bdd.manager import _EDGE_SHIFT, _FREE, FALSE, TRUE, BddManager
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


def reorder(
    mgr: BddManager,
    new_order: Sequence[str],
    roots: Sequence[int],
) -> tuple[BddManager, list[int]]:
    """Rebuild ``roots`` in a fresh manager with variable order ``new_order``.

    Returns the new manager and the transferred roots.  ``new_order`` must
    list every variable of ``mgr`` exactly once (top to bottom).
    """
    if sorted(new_order) != sorted(mgr.var_order()):
        raise BddError("reorder must mention every declared variable once")
    fresh = BddManager(
        max_nodes=mgr.max_nodes,
        gc_min_live=mgr.gc_min_live,
        gc_growth=mgr.gc_growth,
    )
    fresh.add_vars(new_order)
    new_roots = [transfer(f, mgr, fresh) for f in roots]
    return fresh, new_roots


@dataclass
class SiftResult:
    """Outcome of one in-place :func:`sift` pass."""

    swaps: int  # adjacent-level swaps performed
    size_before: int  # live nodes when the sift started
    size_after: int  # live nodes when it finished
    vars_sifted: int  # variables actually moved through their block


class _SiftContext:
    """Sift-local bookkeeping: reference counts over the subtables.

    The manager has no per-node reference counts (mark-and-sweep GC does
    not need them), but swap-based reordering does: it must know, after
    rewriting a level, which lower nodes just lost their last parent.
    The context computes counts once (O(live), iterating the subtables —
    live entries only) and maintains them incrementally across swaps.
    The per-variable candidate buckets that the old context maintained
    by hand now *are* the manager's per-level subtables; a swap snapshots
    the upper variable's subtable values and rewrites from there.

    Slots freed during the sift are *not* recycled until :meth:`finish`
    (they are merged into the manager's free list then), so edges stay
    unambiguous for the whole pass.
    """

    __slots__ = ("dead", "freed", "mgr", "rc")

    def __init__(self, mgr: BddManager, roots: Iterable[int]) -> None:
        self.mgr = mgr
        lo_arr, hi_arr = mgr._lo, mgr._hi
        rc = [0] * (len(mgr._var) // 2)
        rc[0] = 1 << 60  # the terminal is immortal
        for sub in mgr._subtables:
            for e in sub.values():
                rc[(lo_arr[e] & -2) >> 1] += 1
                rc[hi_arr[e] >> 1] += 1
        for n in mgr._extref:
            rc[n >> 1] += 1
        lit_key = TRUE << _EDGE_SHIFT  # literals store as (TRUE, FALSE)
        for sub in mgr._subtables:
            lit = sub.get(lit_key)
            if lit is not None:
                rc[lit >> 1] += 1
        for root in {r & -2 for r in roots}:
            rc[root >> 1] += 1
        self.rc = rc
        self.dead: list[int] = []  # regular edges whose rc hit zero
        self.freed: list[int] = []  # slots reclaimed by this sift

    # -- reference counting -------------------------------------------- #

    def incref(self, edge: int) -> None:
        self.rc[(edge & -2) >> 1] += 1

    def decref(self, edge: int) -> None:
        n = (edge & -2) >> 1
        if n == 0:
            return
        rc = self.rc
        rc[n] -= 1
        if rc[n] == 0:
            self.dead.append(n << 1)

    def reap(self) -> None:
        """Free every node whose reference count reached zero (cascading)."""
        mgr = self.mgr
        var_arr, lo_arr, hi_arr = mgr._var, mgr._lo, mgr._hi
        subtables = mgr._subtables
        nb = mgr._nb
        rc = self.rc
        dead = self.dead
        while dead:
            e = dead.pop()
            if rc[e >> 1] != 0:
                continue  # resurrected by a shared-result hit
            v = var_arr[e]
            if v == _FREE:
                continue
            lo, hi = lo_arr[e], hi_arr[e]
            del subtables[v][lo << _EDGE_SHIFT | hi]
            var_arr[e] = var_arr[e + 1] = _FREE
            self.freed.append(e)
            nb[0] -= 1
            self.decref(lo)
            self.decref(hi)

    # -- node construction --------------------------------------------- #

    def mk(self, var: int, lo: int, hi: int) -> int:
        """Find-or-create ``(var, lo, hi)`` with sift bookkeeping.

        Same reduction and complement normalisation as ``BddManager._mk``
        but: new nodes start at refcount zero (the caller owns the
        parent-edge increment), children are counted, and the node
        *budget is not enforced* — a swap must never fail halfway
        through, and sifting's whole purpose is to end up smaller than
        it started.
        """
        if lo == hi:
            return lo
        negate = hi & 1
        if negate:
            lo ^= 1
            hi ^= 1
        mgr = self.mgr
        sub = mgr._subtables[var]
        ukey = lo << _EDGE_SHIFT | hi
        e = sub.get(ukey)
        if e is not None:
            return e | negate
        var_arr, lo_arr, hi_arr = mgr._var, mgr._lo, mgr._hi
        free = mgr._free
        if free:
            e = free.pop()
            var_arr[e] = var_arr[e + 1] = var
            lo_arr[e] = lo
            lo_arr[e + 1] = lo ^ 1
            hi_arr[e] = hi
            hi_arr[e + 1] = hi ^ 1
            self.rc[e >> 1] = 0
        else:
            e = len(var_arr)
            var_arr.append(var)
            var_arr.append(var)
            lo_arr.append(lo)
            lo_arr.append(lo ^ 1)
            hi_arr.append(hi)
            hi_arr.append(hi ^ 1)
            self.rc.append(0)
        sub[ukey] = e
        mgr._nb[0] += 1
        self.incref(lo)
        self.incref(hi)
        return e | negate

    # -- the adjacent-level swap --------------------------------------- #

    def swap(self, level: int) -> int:
        """Exchange ``level`` and ``level + 1`` in place.

        Returns the number of nodes rewritten.  See the module docstring
        for the algorithm and the canonical-form argument.  The upper
        variable's subtable is snapshotted up front: nodes created
        mid-swap land in the same subtable but never depend on the lower
        variable, so they must not be revisited.
        """
        mgr = self.mgr
        level2var, var2level = mgr._level2var, mgr._var2level
        x = level2var[level]
        y = level2var[level + 1]
        var_arr, lo_arr, hi_arr = mgr._var, mgr._lo, mgr._hi
        sub_x = mgr._subtables[x]
        sub_y = mgr._subtables[y]
        moved = 0
        for e in list(sub_x.values()):
            f0 = lo_arr[e]
            f1 = hi_arr[e]
            dep0 = f0 >= 2 and var_arr[f0] == y
            dep1 = f1 >= 2 and var_arr[f1] == y
            if not (dep0 or dep1):
                continue
            # Cofactors w.r.t. y; the edge-indexed arrays propagate the
            # complement bit of an odd f0 for free.
            if dep0:
                f00, f01 = lo_arr[f0], hi_arr[f0]
            else:
                f00 = f01 = f0
            if dep1:
                f10, f11 = lo_arr[f1], hi_arr[f1]
            else:
                f10 = f11 = f1
            g0 = self.mk(x, f00, f10)
            g1 = self.mk(x, f01, f11)  # provably regular: f11 is regular
            self.incref(g0)
            self.incref(g1)
            self.decref(f0)
            self.decref(f1)
            del sub_x[f0 << _EDGE_SHIFT | f1]
            var_arr[e] = var_arr[e + 1] = y
            lo_arr[e] = g0
            lo_arr[e + 1] = g0 ^ 1
            hi_arr[e] = g1
            hi_arr[e + 1] = g1 ^ 1
            sub_y[g0 << _EDGE_SHIFT | g1] = e
            moved += 1
        # Transient growth (new cofactor nodes before the dead level is
        # reaped, or an exploration that will be walked back) counts
        # toward the peak: peak_live_nodes must report the true
        # high-water mark, not just the pre/post-sift sizes.
        if mgr._nb[0] > mgr._peak_live:
            mgr._peak_live = mgr._nb[0]
        self.reap()
        level2var[level], level2var[level + 1] = y, x
        var2level[x] = level + 1
        var2level[y] = level
        mgr._order_epoch += 1
        return moved

    # -- per-variable sifting ------------------------------------------ #

    def sift_var(self, var: int, block_lo: int, block_hi: int, max_growth: float) -> int:
        """Move ``var`` to its best level within ``[block_lo, block_hi)``.

        Classic sifting: walk the variable to the closer block edge
        first, then all the way to the other edge, then back to the best
        position seen.  A direction is abandoned early once the live
        count exceeds ``max_growth ×`` the starting size.  Returns the
        number of adjacent-level swaps performed.
        """
        mgr = self.mgr
        var2level = mgr._var2level
        nb = mgr._nb
        start = var2level[var]
        limit = int(max_growth * nb[0]) + 2
        best_size = nb[0]
        best_level = start
        swaps = 0

        def move_down() -> int:
            nonlocal best_size, best_level
            count = 0
            while var2level[var] < block_hi - 1:
                self.swap(var2level[var])
                count += 1
                if nb[0] < best_size:
                    best_size = nb[0]
                    best_level = var2level[var]
                elif nb[0] > limit:
                    break
            return count

        def move_up() -> int:
            nonlocal best_size, best_level
            count = 0
            while var2level[var] > block_lo:
                self.swap(var2level[var] - 1)
                count += 1
                if nb[0] < best_size:
                    best_size = nb[0]
                    best_level = var2level[var]
                elif nb[0] > limit:
                    break
            return count

        if (block_hi - 1 - start) <= (start - block_lo):
            swaps += move_down()
            swaps += move_up()
        else:
            swaps += move_up()
            swaps += move_down()
        while var2level[var] < best_level:
            self.swap(var2level[var])
            swaps += 1
        while var2level[var] > best_level:
            self.swap(var2level[var] - 1)
            swaps += 1
        return swaps

    def finish(self) -> None:
        """Release sift-local state back to the manager."""
        self.mgr._free.extend(self.freed)
        self.freed.clear()
        if self.mgr._gc_baseline > self.mgr._nb[0]:
            self.mgr._gc_baseline = self.mgr._nb[0]


def swap_levels(mgr: BddManager, level: int, roots: Iterable[int] = ()) -> int:
    """Exchange adjacent ``level``/``level + 1`` in place (one swap).

    All held edges stay valid.  ``roots`` protects otherwise-unreferenced
    functions from the swap's dead-node reaping, exactly like
    :meth:`~repro.bdd.manager.BddManager.collect_garbage`.  Returns the
    number of nodes rewritten.  Exposed mainly for tests; :func:`sift`
    is the real consumer.
    """
    if not 0 <= level < mgr.num_vars - 1:
        raise BddError(f"swap_levels: no adjacent pair at level {level}")
    mgr.clear_caches()
    ctx = _SiftContext(mgr, roots)
    swapped = ctx.swap(level)
    ctx.finish()
    return swapped


def sift(
    mgr: BddManager,
    roots: Iterable[int] = (),
    *,
    max_growth: float = 1.2,
    max_vars: int | None = None,
) -> SiftResult:
    """In-place sifting: move each variable to its locally best level.

    Variables are processed largest-level-population first (the
    per-level subtables provide the population counts for free); each is
    walked through its reorder block (see
    :meth:`~repro.bdd.manager.BddManager.set_reorder_boundaries`) and
    parked at the level minimising the live node count, abandoning a
    direction once the table grows past ``max_growth ×`` its size at the
    variable's start.  ``max_vars`` caps how many variables move.

    Everything is in place: all held edges — external references, the
    extra ``roots``, literals — remain valid, and pinned functions can
    never be reaped.  The computed table is flushed (its quantification
    keys embed level-set ids that change meaning with the order); the
    node budget is *not* enforced during the sift, so a near-budget
    manager can reorder its way back under the limit.  The pass and
    its swaps are added to the manager's ``reorder_runs`` /
    ``reorder_swaps`` counters.
    """
    mgr._reorder_runs += 1
    size_before = mgr._nb[0]
    nvars = mgr.num_vars
    if nvars < 2 or size_before <= 2:
        return SiftResult(0, size_before, size_before, 0)
    if size_before > mgr._peak_live:
        mgr._peak_live = size_before
    mgr.clear_caches()
    ctx = _SiftContext(mgr, roots)

    bounds = sorted(b for b in mgr._reorder_boundaries if 0 < b < nvars)
    starts = [0, *bounds]
    ends = [*bounds, nvars]

    def block_of(level: int) -> tuple[int, int]:
        for lo, hi in zip(starts, ends):
            if lo <= level < hi:
                return lo, hi
        return 0, nvars

    subtables = mgr._subtables
    order = sorted(range(nvars), key=lambda v: -len(subtables[v]))
    if max_vars is not None:
        order = order[:max_vars]
    swaps = 0
    sifted = 0
    for v in order:
        if not subtables[v]:
            continue
        lo, hi = block_of(mgr._var2level[v])
        if hi - lo < 2:
            continue
        swaps += ctx.sift_var(v, lo, hi, max_growth)
        sifted += 1
    ctx.finish()
    mgr._reorder_swaps += swaps
    return SiftResult(
        swaps=swaps,
        size_before=size_before,
        size_after=mgr._nb[0],
        vars_sifted=sifted,
    )


def greedy_sift_order(
    mgr: BddManager,
    roots: Sequence[int],
    *,
    max_passes: int = 1,
) -> list[str]:
    """Search for a better variable order by rebuild-based sifting.

    A lightweight stand-in for CUDD's dynamic reordering: each variable in
    turn is tried at every position (by rebuilding the roots in a scratch
    manager) and left at the position minimising the shared node count.
    Quadratic in the number of variables and linear in BDD size per trial,
    so intended for modest managers; returns the best order found.
    """
    order = mgr.var_order()
    if not roots or len(order) < 3:
        return order

    def cost(candidate: Sequence[str]) -> int:
        scratch = BddManager()
        scratch.add_vars(candidate)
        copies = [transfer(f, mgr, scratch) for f in roots]
        return scratch.size_many(copies)

    best_cost = cost(order)
    for _ in range(max_passes):
        improved = False
        for name in list(order):
            base = [n for n in order if n != name]
            for pos in range(len(order)):
                candidate = base[:pos] + [name] + base[pos:]
                if candidate == order:
                    continue
                c = cost(candidate)
                if c < best_cost:
                    best_cost = c
                    order = candidate
                    improved = True
        if not improved:
            break
    return order
