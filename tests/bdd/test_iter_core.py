"""Cross-checks between the iterative apply core and the recursive one.

The recursive closures are the retained reference implementation; the
explicit-frame iterative core must agree with them operation for
operation — on random op DAGs, across garbage collections and across
mid-run in-place sifting.  Because both cores share one unique table
per manager, agreement is checked two ways:

* *across managers*: the same op program applied to a recursive-core
  manager and an iterative-core manager yields identical truth tables;
* *within one manager*: recompute with the other core after a cache
  flush and the canonical edge must be bit-identical.

``cofactor_cube`` is checked the second way at every step of a random
program, and against its definition ``∃vars(c).(f ∧ c)`` on both cores.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd.cube import cube_assignment
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.bdd.reorder import sift

from tests.strategies import DEFAULT_VARS, bdd_minterms, expressions


#: Op codes for the random program strategy: (arity, needs_vars).
_OPS = ("and", "or", "xor", "ite", "exists", "andex", "restrict", "diff", "cofactor")


def _fresh_pair() -> tuple[BddManager, BddManager]:
    rec = BddManager(apply_core="recursive", gc_min_live=0, gc_growth=1.0)
    it = BddManager(apply_core="iterative", gc_min_live=0, gc_growth=1.0)
    for name in DEFAULT_VARS:
        rec.add_var(name)
        it.add_var(name)
    return rec, it


def _apply(mgr: BddManager, op: str, pool: list[int], step) -> int:
    a = pool[step.a % len(pool)]
    b = pool[step.b % len(pool)]
    c = pool[step.c % len(pool)]
    var = step.var % mgr.num_vars
    var2 = step.var2 % mgr.num_vars
    if op == "and":
        return mgr.apply_and(a, b)
    if op == "or":
        return mgr.apply_or(a, b)
    if op == "xor":
        return mgr.apply_xor(a, b)
    if op == "diff":
        return mgr.apply_diff(a, b)
    if op == "ite":
        return mgr.ite(a, b, c)
    if op == "exists":
        return mgr.exists(a, [var, var2])
    if op == "andex":
        return mgr.and_exists(a, b, [var, var2])
    if op == "restrict":
        return mgr.restrict(a, var, step.b & 1)
    if op == "cofactor":
        return mgr.cofactor_cube(a, _step_cube(mgr, step))
    raise AssertionError(op)


def _step_cube(mgr: BddManager, step) -> int:
    """A cube on the step's two variables; TRUE for a quarter of steps."""
    if step.c >= 48:
        return TRUE
    var = step.var % mgr.num_vars
    var2 = step.var2 % mgr.num_vars
    return mgr.cube({var: step.c & 1, var2: (step.c >> 1) & 1})


class _Step:
    def __init__(self, op, a, b, c, var, var2, gc, reorder):
        self.op = op
        self.a = a
        self.b = b
        self.c = c
        self.var = var
        self.var2 = var2
        self.gc = gc
        self.reorder = reorder


_steps = st.builds(
    _Step,
    op=st.sampled_from(_OPS),
    a=st.integers(min_value=0, max_value=63),
    b=st.integers(min_value=0, max_value=63),
    c=st.integers(min_value=0, max_value=63),
    var=st.integers(min_value=0, max_value=63),
    var2=st.integers(min_value=0, max_value=63),
    gc=st.booleans(),
    reorder=st.integers(min_value=0, max_value=9),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_steps, min_size=1, max_size=14))
def test_cores_agree_on_random_op_dags(program) -> None:
    """Both cores realise the same functions on random op DAGs,
    including interleaved GC and mid-run in-place sifting."""
    rec, it = _fresh_pair()
    pool_rec = [FALSE, TRUE] + [rec.var_node(v) for v in range(rec.num_vars)]
    pool_it = [FALSE, TRUE] + [it.var_node(v) for v in range(it.num_vars)]
    for step in program:
        r = _apply(rec, step.op, pool_rec, step)
        i = _apply(it, step.op, pool_it, step)
        assert bdd_minterms(rec, r, DEFAULT_VARS) == bdd_minterms(it, i, DEFAULT_VARS)
        pool_rec.append(r)
        pool_it.append(i)
        if step.gc:
            # Collect on both managers with the pools rooted; results
            # must stay valid (edges are stable across collections).
            rec.collect_garbage(pool_rec)
            it.collect_garbage(pool_it)
        if step.reorder == 0:
            # Sift only the iterative manager: orders diverge, semantics
            # must not.
            sift(it, pool_it)
            it.check()
    rec.check()
    it.check()
    # Final full-pool comparison after all the churn.
    for r, i in zip(pool_rec, pool_it):
        assert bdd_minterms(rec, r, DEFAULT_VARS) == bdd_minterms(it, i, DEFAULT_VARS)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_steps, min_size=1, max_size=10))
def test_core_switch_is_edge_identical(program) -> None:
    """Recomputing with the other core (same manager, flushed computed
    table) yields the *same canonical edge* — the unique table is shared,
    so agreement is exact, not just semantic."""
    mgr = BddManager(apply_core="recursive")
    for name in DEFAULT_VARS:
        mgr.add_var(name)
    pool = [FALSE, TRUE] + [mgr.var_node(v) for v in range(mgr.num_vars)]
    results = []
    for step in program:
        results.append((step, len(pool)))
        pool.append(_apply(mgr, step.op, pool, step))
    mgr.clear_caches()
    mgr.set_apply_core("iterative")
    assert mgr.apply_core == "iterative"
    for step, at in results:
        redo = _apply(mgr, step.op, pool[:at], step)
        assert redo == pool[at], f"{step.op} diverged between cores"
    mgr.check()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_steps, min_size=1, max_size=14))
def test_cofactor_cores_edge_identical_across_gc_and_sift(program) -> None:
    """At every step of a random program with interleaved GC and
    in-place sifting, the recursive cofactor core and the iterative one
    (the same per-call walk and root entry, with explicit frames) return
    the same edge, each from a cold computed table."""
    mgr = BddManager(apply_core="recursive", gc_min_live=0, gc_growth=1.0)
    for name in DEFAULT_VARS:
        mgr.add_var(name)
    pool = [FALSE, TRUE] + [mgr.var_node(v) for v in range(mgr.num_vars)]
    for step in program:
        pool.append(_apply(mgr, step.op, pool, step))
        f = pool[step.b % len(pool)] ^ (step.a & 1)
        cube = _step_cube(mgr, step)
        warm = mgr.cofactor_cube(f, cube)
        got = {}
        for core in ("iterative", "recursive"):
            mgr.clear_caches()
            mgr.set_apply_core(core)
            got[core] = mgr.cofactor_cube(f, cube)
        assert got == {"iterative": warm, "recursive": warm}
        if step.gc:
            mgr.collect_garbage(pool)
        if step.reorder == 0:
            sift(mgr, pool)
        mgr.check()


def _check_cofactor(mgr: BddManager, f: int, cube: int) -> None:
    """``cofactor_cube(f, c) == ∃vars(c).(f ∧ c)``, and a repeated call
    is one computed-table hit with no new entry."""
    variables = list(cube_assignment(mgr, cube))
    got = mgr.cofactor_cube(f, cube)
    assert got == mgr.exists(mgr.apply_and(f, cube), variables)
    level = mgr.var_level
    probes = f > TRUE and any(
        level(v) >= level(mgr.node_var(f)) for v in variables
    )
    before = mgr.stats
    assert mgr.cofactor_cube(f, cube) == got
    after = mgr.stats
    assert after["cache_hits"] - before["cache_hits"] == int(probes)
    assert after["cache_misses"] == before["cache_misses"]


@pytest.mark.parametrize("core", ["recursive", "iterative"])
@settings(max_examples=80, deadline=None)
@given(
    expr=expressions(),
    bits=st.dictionaries(st.sampled_from([*DEFAULT_VARS, "z"]), st.booleans()),
    negate=st.booleans(),
)
def test_cofactor_is_the_quantified_conjunction(core, expr, bits, negate) -> None:
    mgr = BddManager(apply_core=core)
    mgr.add_vars([*DEFAULT_VARS, "z"])
    f = expr.to_bdd(mgr) ^ negate
    _check_cofactor(mgr, f, mgr.cube({mgr.var_index(n): b for n, b in bits.items()}))


@pytest.mark.parametrize("core", ["recursive", "iterative"])
def test_cofactor_cube_positions(core) -> None:
    """Cubes whose top lies above, at and below ``f``'s top; the TRUE
    cube; variables outside ``f``'s support; a complemented ``f``."""
    mgr = BddManager(apply_core=core)
    a, b, c, d, e = mgr.add_vars(DEFAULT_VARS)
    lit = mgr.var_node
    # f = b ? c : d, over the middle of the order.
    f = mgr.ite(lit(b), lit(c), lit(d))
    cubes = [
        {a: 1, c: 1},  # top above f's top (a is outside the support)
        {a: 0, b: 1, e: 1},  # above, at, and below outside the support
        {b: 0},  # top at f's top
        {c: 1, d: 0},  # top below f's top
        {e: 0},  # only a variable below the support
        {a: 1},  # only a variable above the support
        {},  # the TRUE cube
    ]
    for bits in cubes:
        cube = mgr.cube(bits)
        for g in (f, f ^ 1):
            _check_cofactor(mgr, g, cube)
    assert mgr.cofactor_cube(f, {b: 1}) == lit(c)
    assert mgr.cofactor_cube(f ^ 1, {b: 0, d: 1}) == FALSE
    assert mgr.cofactor_cube(f, TRUE) == f
    # Parity reaches each node through both polarities, so the walk's
    # per-call dict holds both edges of a node.
    parity = mgr.apply_xor(mgr.apply_xor(lit(a), lit(b)), lit(d))
    _check_cofactor(mgr, parity, mgr.cube({d: 1}))
    _check_cofactor(mgr, parity ^ 1, mgr.cube({d: 0, e: 1}))


@pytest.mark.parametrize("core", ["recursive", "iterative"])
@settings(max_examples=60, deadline=None)
@given(
    expr=expressions(),
    bits=st.dictionaries(st.sampled_from(DEFAULT_VARS), st.booleans()),
    negate=st.booleans(),
)
def test_cold_cofactor_writes_only_the_root_entry(core, expr, bits, negate) -> None:
    """A cold call adds at most one computed-table entry, the root's; a
    second identical call is exactly that one hit; and a complemented
    ``f`` gives the complemented result, cold or warm."""
    mgr = BddManager(apply_core=core)
    mgr.add_vars(DEFAULT_VARS)
    f = expr.to_bdd(mgr) ^ negate
    cube = mgr.cube({mgr.var_index(n): b for n, b in bits.items()})
    mgr.clear_caches()
    got = mgr.cofactor_cube(f, cube)
    written = mgr.computed_table_size()
    assert written <= 1
    before = mgr.stats
    assert mgr.cofactor_cube(f, cube) == got
    after = mgr.stats
    assert after["cache_hits"] - before["cache_hits"] == written
    assert after["cache_misses"] == before["cache_misses"]
    assert mgr.computed_table_size() == written
    assert mgr.cofactor_cube(f ^ 1, cube) == got ^ 1
    mgr.clear_caches()
    assert mgr.cofactor_cube(f ^ 1, cube) == got ^ 1


def test_cofactor_cores_count_the_same_work() -> None:
    """A cold call counts one miss per node its walk rebuilt, on both
    cores alike, while the computed table gains only the root entry."""
    misses = {}
    for core in ("recursive", "iterative"):
        mgr = BddManager(apply_core=core)
        a, b, c, d, e = mgr.add_vars(DEFAULT_VARS)
        parity = FALSE
        for v in (a, b, c, d, e):
            parity = mgr.apply_xor(parity, mgr.var_node(v))
        cube = mgr.cube({b: 1, d: 0})
        mgr.clear_caches()
        mgr.reset_stats()
        got = mgr.cofactor_cube(parity, cube)
        assert mgr.computed_table_size() == 1
        misses[core] = mgr.stats["cache_misses"]
        rest = mgr.apply_xor(mgr.var_node(a), mgr.var_node(c))
        assert got == mgr.apply_xor(rest, mgr.var_node(e)) ^ 1
    assert misses["recursive"] == misses["iterative"] > 1


def test_auto_core_tracks_recursion_limit() -> None:
    """``auto`` binds the recursive fast path on shallow managers and
    flips to the iterative core once the level count approaches the
    interpreter recursion limit."""
    mgr = BddManager()
    mgr.add_vars([f"x{i}" for i in range(8)])
    assert mgr.apply_core == "recursive"
    import sys

    limit = sys.getrecursionlimit()
    threshold = (limit - BddManager._DEEP_MARGIN) // 3
    mgr.add_vars([f"y{i}" for i in range(threshold)])
    assert mgr.apply_core == "iterative"


def test_explicit_core_modes() -> None:
    mgr = BddManager(apply_core="iterative")
    a, b = mgr.add_vars(["a", "b"])
    f = mgr.apply_and(mgr.var_node(a), mgr.var_node(b))
    assert mgr.apply_core == "iterative"
    mgr.set_apply_core("recursive")
    assert mgr.apply_core == "recursive"
    g = mgr.apply_and(mgr.var_node(a), mgr.var_node(b))
    assert f == g
    with pytest.raises(Exception):
        mgr.set_apply_core("warp-drive")


def test_iterative_core_respects_node_budget() -> None:
    from repro.errors import BddNodeLimit

    mgr = BddManager(max_nodes=10, apply_core="iterative")
    vs = mgr.add_vars([f"x{i}" for i in range(12)])
    with pytest.raises(BddNodeLimit):
        f = TRUE
        for v in vs:
            f = mgr.apply_and(f, mgr.var_node(v))
            f = mgr.apply_or(f, mgr.apply_xor(mgr.var_node(v), f))
