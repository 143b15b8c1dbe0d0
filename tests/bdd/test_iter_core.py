"""The manager's two cofactor cores: the recursive cube walk and the
iterative ``restrict``.

``cofactor_cube`` fixes every variable of a cube in one recursive walk
that memoises per call and writes only the root's computed-table entry.
``restrict`` fixes one variable on an explicit stack, safe at any BDD
depth, and caches every node it rebuilds.  Folding ``restrict`` over a
cube's literals is therefore a second, independently coded cube
cofactor.  Each test runs once per core — ``recursive``: the cube walk;
``iterative``: the ``restrict`` fold — against the definition
``∃vars(c).(f ∧ c)``, and the fold also against the cube walk on the
same manager.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.cube import cube_assignment
from repro.bdd.manager import FALSE, TRUE, BddManager

from tests.strategies import DEFAULT_VARS, expressions

CORES = ("recursive", "iterative")


def _cofactor(mgr: BddManager, core: str, f: int, cube: int) -> int:
    if core == "recursive":
        return mgr.cofactor_cube(f, cube)
    for var, value in cube_assignment(mgr, cube).items():
        f = mgr.restrict(f, var, value)
    return f


def _check_cofactor(mgr: BddManager, core: str, f: int, cube: int) -> None:
    """The core's cofactor is ``∃vars(c).(f ∧ c)``; a repeated call adds
    no computed-table entry and no miss (for the cube walk: exactly one
    hit when it probes the root entry); and the ``restrict`` fold gives
    the cube walk's edge."""
    variables = list(cube_assignment(mgr, cube))
    got = _cofactor(mgr, core, f, cube)
    assert got == mgr.exists(mgr.apply_and(f, cube), variables)
    size = mgr.computed_table_size()
    before = mgr.stats
    assert _cofactor(mgr, core, f, cube) == got
    after = mgr.stats
    assert after["cache_misses"] == before["cache_misses"]
    assert mgr.computed_table_size() == size
    if core == "recursive":
        level = mgr.var_level
        probes = f > TRUE and any(
            level(v) >= level(mgr.node_var(f)) for v in variables
        )
        assert after["cache_hits"] - before["cache_hits"] == int(probes)
    else:
        assert mgr.cofactor_cube(f, cube) == got


@pytest.mark.parametrize("core", CORES)
@settings(max_examples=80, deadline=None)
@given(
    expr=expressions(),
    bits=st.dictionaries(st.sampled_from([*DEFAULT_VARS, "z"]), st.booleans()),
    negate=st.booleans(),
)
def test_cofactor_is_the_quantified_conjunction(core, expr, bits, negate) -> None:
    mgr = BddManager()
    mgr.add_vars([*DEFAULT_VARS, "z"])
    f = expr.to_bdd(mgr) ^ negate
    cube = mgr.cube({mgr.var_index(n): b for n, b in bits.items()})
    _check_cofactor(mgr, core, f, cube)


@pytest.mark.parametrize("core", CORES)
def test_cofactor_cube_positions(core) -> None:
    """Cubes whose top lies above, at and below ``f``'s top; the TRUE
    cube; variables outside ``f``'s support; a complemented ``f``."""
    mgr = BddManager()
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
            _check_cofactor(mgr, core, g, cube)
    assert _cofactor(mgr, core, f, mgr.cube({b: 1})) == lit(c)
    assert _cofactor(mgr, core, f ^ 1, mgr.cube({b: 0, d: 1})) == FALSE
    assert _cofactor(mgr, core, f, TRUE) == f
    # Parity reaches each node through both polarities, so the walk's
    # per-call dict holds both edges of a node, and restrict's sign
    # stripping shares one entry between them.
    parity = mgr.apply_xor(mgr.apply_xor(lit(a), lit(b)), lit(d))
    _check_cofactor(mgr, core, parity, mgr.cube({d: 1}))
    _check_cofactor(mgr, core, parity ^ 1, mgr.cube({d: 0, e: 1}))


@pytest.mark.parametrize("core", CORES)
@settings(max_examples=60, deadline=None)
@given(
    expr=expressions(),
    bits=st.dictionaries(st.sampled_from(DEFAULT_VARS), st.booleans()),
    negate=st.booleans(),
)
def test_cold_cofactor_writes_only_the_root_entry(core, expr, bits, negate) -> None:
    """A cold cube walk adds at most one computed-table entry, the root's;
    a second identical call is exactly that one hit; and a complemented
    ``f`` gives the complemented result, cold or warm.

    In the ``iterative`` case the walk is cold only for itself: the
    ``restrict`` fold has just filled the table for the same ``f`` and
    cube, so the walk runs beside those entries and must still write at
    most its root entry and return the fold's edge.
    """
    mgr = BddManager()
    mgr.add_vars(DEFAULT_VARS)
    f = expr.to_bdd(mgr) ^ negate
    cube = mgr.cube({mgr.var_index(n): b for n, b in bits.items()})
    mgr.clear_caches()
    folded = _cofactor(mgr, "iterative", f, cube) if core == "iterative" else None
    base = mgr.computed_table_size()
    got = mgr.cofactor_cube(f, cube)
    if folded is not None:
        assert got == folded
    written = mgr.computed_table_size() - base
    assert written <= 1
    before = mgr.stats
    assert mgr.cofactor_cube(f, cube) == got
    after = mgr.stats
    assert after["cache_hits"] - before["cache_hits"] == written
    assert after["cache_misses"] == before["cache_misses"]
    assert mgr.computed_table_size() == base + written
    assert mgr.cofactor_cube(f ^ 1, cube) == got ^ 1
    mgr.clear_caches()
    assert mgr.cofactor_cube(f ^ 1, cube) == got ^ 1
