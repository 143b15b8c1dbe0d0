"""Cube and minterm utilities: counting, enumeration, picking.

These helpers work on plain node ids against a :class:`BddManager`.  They
are used by the automata package (edge-label enumeration), the solver
(state counting) and the tests (exhaustive semantics checks).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.errors import BddError


def sat_count(mgr: BddManager, f: int, variables: Sequence[int]) -> int:
    """Number of satisfying assignments of ``f`` over ``variables``.

    ``variables`` must be a superset of the support of ``f``.  The count
    is exact (Python integers).
    """
    var_set = set(variables)
    if len(var_set) != len(variables):
        raise BddError("sat_count variables must be distinct")
    missing = mgr.support(f) - var_set
    if missing:
        names = sorted(mgr.var_name(v) for v in missing)
        raise BddError(f"sat_count variables miss support vars: {names}")
    levels = sorted(mgr.var_level(v) for v in var_set)
    position = {lev: i for i, lev in enumerate(levels)}
    n = len(levels)

    def pos(node: int) -> int:
        if node < 2:
            return n
        return position[mgr.level(node)]

    # Iterative postorder (explicit stack): counting stays safe on BDDs
    # deeper than the Python recursion limit.
    memo: dict[int, int] = {FALSE: 0, TRUE: 1}
    stack: list[tuple[int, int]] = [(0, f)]
    while stack:
        tag, node = stack.pop()
        if tag == 0:
            if node in memo:
                continue
            stack.append((1, node))
            stack.append((0, mgr.node_hi(node)))
            stack.append((0, mgr.node_lo(node)))
        else:
            lo, hi = mgr.node_lo(node), mgr.node_hi(node)
            p = pos(node)
            memo[node] = memo[lo] * (1 << (pos(lo) - p - 1)) + memo[hi] * (
                1 << (pos(hi) - p - 1)
            )
    return memo[f] * (1 << pos(f))


def iter_cubes(mgr: BddManager, f: int) -> Iterator[dict[int, int]]:
    """Yield the prime paths of ``f`` as ``var -> 0/1`` dicts.

    Each yielded cube is a path from the root of ``f`` to TRUE; variables
    absent from a cube are don't-cares.  Cubes are disjoint.
    """
    if f == FALSE:
        return
    path: dict[int, int] = {}

    def rec(node: int) -> Iterator[dict[int, int]]:
        if node == TRUE:
            yield dict(path)
            return
        if node == FALSE:
            return
        var = mgr.node_var(node)
        path[var] = 0
        yield from rec(mgr.node_lo(node))
        path[var] = 1
        yield from rec(mgr.node_hi(node))
        del path[var]

    yield from rec(f)


def iter_minterms(
    mgr: BddManager, f: int, variables: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Yield all satisfying assignments of ``f`` over ``variables``.

    Each minterm is a tuple of 0/1 values aligned with ``variables``.
    ``variables`` must cover the support of ``f``.
    """
    missing = mgr.support(f) - set(variables)
    if missing:
        names = sorted(mgr.var_name(v) for v in missing)
        raise BddError(f"iter_minterms variables miss support vars: {names}")
    order = sorted(range(len(variables)), key=lambda i: mgr.var_level(variables[i]))
    values = [0] * len(variables)

    def rec(node: int, depth: int) -> Iterator[tuple[int, ...]]:
        if node == FALSE:
            return
        if depth == len(order):
            yield tuple(values)
            return
        var = variables[order[depth]]
        if node >= 2 and mgr.node_var(node) == var:
            lo, hi = mgr.node_lo(node), mgr.node_hi(node)
        else:
            lo = hi = node
        values[order[depth]] = 0
        yield from rec(lo, depth + 1)
        values[order[depth]] = 1
        yield from rec(hi, depth + 1)

    yield from rec(f, 0)


def pick_cube(mgr: BddManager, f: int) -> dict[int, int]:
    """Return one satisfying cube of ``f`` (vars absent are don't-cares).

    Raises :class:`~repro.errors.BddError` when ``f`` is FALSE.
    """
    if f == FALSE:
        raise BddError("pick_cube of the FALSE function")
    cube: dict[int, int] = {}
    node = f
    while node >= 2:
        var = mgr.node_var(node)
        lo = mgr.node_lo(node)
        if lo != FALSE:
            cube[var] = 0
            node = lo
        else:
            cube[var] = 1
            node = mgr.node_hi(node)
    return cube


def cube_assignment(mgr: BddManager, f: int) -> dict[int, int] | None:
    """The ``var -> 0/1`` bindings of ``f`` when ``f`` is a cube, else None.

    A cube is a conjunction of literals; TRUE is the empty cube and
    FALSE is none.  Walks the one path of ``f`` with protocol calls only
    (``node_var``/``node_lo``/``node_hi``), so every backend can answer:
    ``f`` is a cube exactly when one child of each node on the path is
    FALSE.
    """
    if f == FALSE:
        return None
    bound: dict[int, int] = {}
    node = f
    while node != TRUE:
        lo = mgr.node_lo(node)
        if lo == FALSE:
            bound[mgr.node_var(node)] = 1
            node = mgr.node_hi(node)
        elif mgr.node_hi(node) == FALSE:
            bound[mgr.node_var(node)] = 0
            node = lo
        else:
            return None
    return bound


def split_by_vars(
    mgr: BddManager, f: int, split_vars: Sequence[int]
) -> dict[int, int]:
    """Partition ``f`` into its distinct cofactors w.r.t. ``split_vars``.

    Returns ``{leaf: condition}`` where each ``leaf`` is a distinct
    cofactor of ``f`` (a function of the non-split variables) and
    ``condition`` (over the split variables) covers exactly the
    assignments producing that cofactor.  The partition is complete: the
    FALSE cofactor, when some assignment produces it, is a class too, so
    the conditions OR to TRUE.  Classes come in lo-first order: a split
    node lists the classes of its low child, then the classes only its
    high child reaches.

    Requirement: every split variable must sit *above* every other
    variable in the support of ``f`` in the current order (checked).
    This is the enumeration step of the paper's subset construction: with
    ``split_vars = (u, v)`` and ``f = P'_ψ(u,v,ns)``, each non-FALSE leaf
    is one successor subset ``ψ'(ns)`` and its condition is the edge
    label; the FALSE class holds the letters with no successor.

    The backend does the work (:meth:`BddBackend.split_by_vars
    <repro.bdd.backends.protocol.BddBackend.split_by_vars>`): the
    reference kernel walks its node arrays with a memo that lives across
    calls, adapters run the protocol-only
    :func:`~repro.bdd.backends.protocol.generic_split_by_vars`.
    """
    return mgr.split_by_vars(f, split_vars)


def pick_minterm(mgr: BddManager, f: int, variables: Sequence[int]) -> dict[int, int]:
    """Return one full satisfying assignment over ``variables``."""
    cube = pick_cube(mgr, f)
    extra = set(cube) - set(variables)
    if extra:
        names = sorted(mgr.var_name(v) for v in extra)
        raise BddError(f"pick_minterm variables miss support vars: {names}")
    return {var: cube.get(var, 0) for var in variables}
