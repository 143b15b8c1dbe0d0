"""Cross-backend conformance kit: random op DAGs, compared edge-for-edge.

Any two :class:`~repro.bdd.backends.protocol.BddBackend` implementations
must compute *the same functions* for the same program of operations —
that is the whole premise of swapping a native kernel under the solver.
This kit makes the property executable:

1. :func:`program_strategy` draws a random **operation program** (a
   little DAG of and/or/xor/ite/quantify/restrict/compose/constrain
   steps over a shared operand pool, with garbage collections and
   in-place sifts interleaved at random points — the events most likely
   to shake loose lifetime or canonicity bugs);
2. :func:`run_program` replays a program on one backend, returning the
   operand pool's edge handles;
3. :func:`assert_same_functions` compares the two runs **edge for
   edge**: both pools are snapshotted via the backend-independent
   ``dump_nodes`` wire format and loaded into one fresh pure-Python
   reference manager, where shared-unique-table canonicity turns
   function equality into plain ``int`` equality.

:func:`run_conformance_case` wires the three together for a pair of
backend names, and :func:`conformance_pairs` enumerates the pairs worth
running on this machine.  The repo's own suite lives in
``tests/bdd/test_backends.py``; a third-party adapter gets the same
coverage with::

    from repro.bdd.backends import register_backend
    from repro.bdd.backends.conformance import (
        conformance_pairs, program_strategy, run_conformance_case,
    )

    register_backend("mybackend", MyManager, probe=my_probe)

    @given(program=program_strategy())
    def test_mybackend_matches_reference(program):
        run_conformance_case("python", "mybackend", program)

Three single-backend checks pin operations whose fast paths the random
programs rarely reach: :func:`check_literal_ite` (``ite`` on a variable
literal, the projection case), :func:`check_rename_map` (``rename``
through an interned :meth:`rename_map` against a plain dict, under a
drawn variable order) and :func:`check_split_classes` (the backend's
``split_by_vars`` against the protocol-only generic split).
:func:`run_kit_check` runs any of them on a fresh manager of any
backend.

hypothesis is imported lazily inside :func:`program_strategy`,
:func:`rename_case_strategy` and :func:`split_case_strategy`, so the kit
itself imports fine in production environments without it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.bdd.manager import BddManager

#: Operations a program step may perform.  Deliberately the full
#: operator surface the solver uses, not just the easy binary ones.
OPS = (
    "and",
    "or",
    "xor",
    "iff",
    "implies",
    "diff",
    "not",
    "ite",
    "exists",
    "forall",
    "andex",
    "restrict",
    "compose",
    "constrain",
)

#: Default variable names programs run over (small on purpose: narrow
#: managers collide on the unique/computed tables far more often, which
#: is where canonicity bugs live).
DEFAULT_NAMES = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class Step:
    """One operation of a conformance program.

    Operand indices (``a``/``b``/``c``) address the growing operand
    pool modulo its current length, so every drawn program is valid on
    every backend.  ``event`` interleaves lifecycle operations: 0 = GC
    after this step, 1 = in-place sift after this step, anything else =
    nothing.
    """

    op: str
    a: int = 0
    b: int = 0
    c: int = 0
    var: int = 0
    value: bool = False
    qvars: tuple[int, ...] = (0,)
    event: int = 99


@dataclass(frozen=True)
class Program:
    """A full conformance case: variables plus the step sequence."""

    names: tuple[str, ...] = DEFAULT_NAMES
    steps: tuple[Step, ...] = field(default_factory=tuple)


def program_strategy(
    max_steps: int = 25,
    names: tuple[str, ...] = DEFAULT_NAMES,
    ops: tuple[str, ...] = OPS,
):
    """Hypothesis strategy drawing random :class:`Program` values."""
    from hypothesis import strategies as st

    nvars = len(names)
    steps = st.builds(
        Step,
        op=st.sampled_from(ops),
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
        c=st.integers(min_value=0, max_value=255),
        var=st.integers(min_value=0, max_value=nvars - 1),
        value=st.booleans(),
        qvars=st.lists(
            st.integers(min_value=0, max_value=nvars - 1),
            min_size=1,
            max_size=nvars,
        ).map(tuple),
        # ~1 in 8 steps collects, ~1 in 16 sifts mid-program.
        event=st.integers(min_value=0, max_value=15),
    )
    return st.builds(
        Program,
        names=st.just(tuple(names)),
        steps=st.lists(steps, min_size=1, max_size=max_steps).map(tuple),
    )


def run_program(mgr, program: Program) -> list[int]:
    """Replay ``program`` on ``mgr``; returns the final operand pool.

    Variables the manager already declares are reused (so a caller may
    fix the order first).  The pool starts with both literals of every
    variable plus the two terminals, and every step appends its result, so later steps can
    consume earlier results (a DAG, not a tree).  GC passes the live
    pool as roots — exactly how the solver protects its frontier — and
    sift events reorder in place with the pool pinned.
    """
    variables = [
        mgr.var_index(n) if mgr.has_var(n) else mgr.add_var(n) for n in program.names
    ]
    pool: list[int] = [0, 1]
    for v in variables:
        pool.append(mgr.var_node(v))
        pool.append(mgr.nvar_node(v))
    for step in program.steps:
        f = pool[step.a % len(pool)]
        g = pool[step.b % len(pool)]
        h = pool[step.c % len(pool)]
        qset = [variables[i] for i in step.qvars]
        op = step.op
        if op == "and":
            r = mgr.apply_and(f, g)
        elif op == "or":
            r = mgr.apply_or(f, g)
        elif op == "xor":
            r = mgr.apply_xor(f, g)
        elif op == "iff":
            r = mgr.apply_iff(f, g)
        elif op == "implies":
            r = mgr.apply_implies(f, g)
        elif op == "diff":
            r = mgr.apply_diff(f, g)
        elif op == "not":
            r = mgr.apply_not(f)
        elif op == "ite":
            r = mgr.ite(f, g, h)
        elif op == "exists":
            r = mgr.exists(f, mgr.quant_set(qset))
        elif op == "forall":
            r = mgr.forall(f, qset)
        elif op == "andex":
            r = mgr.and_exists(f, g, mgr.quant_set(qset))
        elif op == "restrict":
            r = mgr.restrict(f, variables[step.var], step.value)
        elif op == "compose":
            # The composed-in function must not mention the composed
            # variable on either backend; a literal-free substitute is
            # the simplest function with that guarantee per canonicity.
            sub = mgr.restrict(g, variables[step.var], step.value)
            r = mgr.compose(f, variables[step.var], sub)
        elif op == "constrain":
            # Constraining by FALSE is undefined; FALSE is handle 0 on
            # every backend (canonicity), so the guard replays equally.
            r = mgr.constrain(f, g if g != 0 else 1)
        else:  # pragma: no cover - strategy only draws known ops
            raise ValueError(f"unknown conformance op {op!r}")
        pool.append(r)
        if step.event == 0:
            mgr.collect_garbage(pool)
        elif step.event == 1:
            mgr.sift_now(pool)
    return pool


def canonical_roots(snapshot_a: dict, snapshot_b: dict) -> tuple[list[int], list[int]]:
    """Load two ``dump_nodes`` snapshots into ONE fresh reference manager.

    Sharing a single unique table is what makes the comparison
    *edge-for-edge*: two loads of the same function meet at the same
    node, so root handles compare as plain ints.  (Loading into two
    separate managers would be unsound — allocation order differs with
    traversal order, so equal functions could get different ints.)
    """
    ref = BddManager()
    roots_a = ref.load_nodes(snapshot_a)
    roots_b = ref.load_nodes(snapshot_b)
    return roots_a, roots_b


def assert_same_functions(mgr_a, mgr_b, pool_a: list[int], pool_b: list[int]) -> None:
    """Assert two replays produced identical functions, edge for edge."""
    assert len(pool_a) == len(pool_b), (
        f"pool lengths diverged: {len(pool_a)} vs {len(pool_b)}"
    )
    roots_a, roots_b = canonical_roots(
        mgr_a.dump_nodes(pool_a), mgr_b.dump_nodes(pool_b)
    )
    for i, (ea, eb) in enumerate(zip(roots_a, roots_b)):
        assert ea == eb, (
            f"pool entry {i} diverged between "
            f"{mgr_a.backend_name!r} (edge {ea}) and "
            f"{mgr_b.backend_name!r} (edge {eb})"
        )


def run_conformance_case(
    backend_a,
    backend_b,
    program: Program,
    **kwargs,
) -> None:
    """Replay ``program`` on two backends and compare edge-for-edge.

    ``backend_a``/``backend_b`` are registry names (strings) or
    zero-argument factories returning a fresh manager; ``kwargs`` go to
    :func:`~repro.bdd.backends.create_manager` for named backends.
    Managers holding process-global state (``close()``-able) are torn
    down afterwards, so hypothesis can run hundreds of cases.
    """
    mgr_a = _make(backend_a, kwargs)
    try:
        mgr_b = _make(backend_b, kwargs)
        try:
            pool_a = run_program(mgr_a, program)
            pool_b = run_program(mgr_b, program)
            assert_same_functions(mgr_a, mgr_b, pool_a, pool_b)
        finally:
            _close(mgr_b)
    finally:
        _close(mgr_a)


def check_literal_ite(mgr, program: Program, tail: int = 4) -> None:
    """Assert ``ite(var_node(v), g, h) == (v ∧ g) ∨ (¬v ∧ h)`` on ``mgr``.

    Replays ``program``, then checks every variable ``v`` against the
    last ``tail`` pool entries as ``g`` and ``h``, plain and
    complemented.  Each pair is checked twice: as drawn (``v`` is often
    not above them) and with every variable at or above ``v`` quantified
    out (``v`` is above both: the projection case, which a kernel may
    answer with one node lookup).
    """
    pool = run_program(mgr, program)
    variables = [mgr.var_index(n) for n in program.names]
    funcs = pool[-tail:]
    for v in variables:
        lit = mgr.var_node(v)
        nlit = mgr.apply_not(lit)
        level = mgr.var_level(v)
        upper = mgr.quant_set([u for u in variables if mgr.var_level(u) <= level])
        below = [mgr.exists(f, upper) for f in funcs]
        for group in (funcs, below):
            for f in group:
                for g in (f, mgr.apply_not(f)):
                    for k in group:
                        for h in (k, mgr.apply_not(k)):
                            want = mgr.apply_or(
                                mgr.apply_and(lit, g), mgr.apply_and(nlit, h)
                            )
                            got = mgr.ite(lit, g, h)
                            assert got == want, (
                                f"{mgr.backend_name}: ite on literal "
                                f"{program.names[v]!r} diverged"
                            )


def check_rename_map(
    mgr,
    program: Program,
    order: tuple[str, ...],
    targets: tuple[str, ...],
) -> None:
    """Assert ``rename`` through ``rename_map`` equals ``rename`` through a dict.

    The variables are declared and put in ``order`` before ``program``
    replays.  The map sends ``program.names[i]`` to ``targets[i]`` (a
    permutation, so it may swap variables).  For every pool entry the
    interned map must give the same edge as the dict, on the first call
    and on the repeated (cached) one, and that edge must be the renamed
    function: at every assignment ``x`` it equals ``f`` read with each
    renamed variable taking its target's value in ``x``.  The inverse
    map is checked the same way on the same manager, so two maps that
    shared computed-table entries would show.
    """
    for name in program.names:
        mgr.add_var(name)
    mgr.set_order(list(order))
    pool = run_program(mgr, program)
    assignments = [
        dict(zip(program.names, bits))
        for bits in itertools.product((0, 1), repeat=len(program.names))
    ]
    for sources, dests in ((program.names, targets), (targets, program.names)):
        target_of = dict(zip(sources, dests))
        var_map = {mgr.var_index(old): mgr.var_index(new) for old, new in target_of.items()}
        rmap = mgr.rename_map(var_map)
        for f in pool:
            renamed = mgr.rename(f, rmap)
            assert mgr.rename(f, var_map) == renamed
            assert mgr.rename(f, rmap) == renamed
            for x in assignments:
                read = {name: x[target_of[name]] for name in program.names}
                assert mgr.eval(renamed, x) == mgr.eval(f, read), (
                    f"{mgr.backend_name}: rename by {target_of} diverged"
                )


def check_split_classes(mgr, program: Program, order: tuple[str, ...]) -> None:
    """Assert the backend's ``split_by_vars`` equals the protocol-only
    :func:`~repro.bdd.backends.protocol.generic_split_by_vars`.

    The variables are declared and put in ``order`` before ``program``
    replays (its GC and sift events run with the pool pinned).  Then each
    pool entry is split by every top prefix of the order the replay left
    — every other variable sits below the prefix, as the split
    requires.  Each prefix splits the whole pool twice, so a
    backend's cross-call memo answers the second pass.  Both splits must
    give the same classes in the same lo-first order with the same
    condition edges, and the classes must partition TRUE and rebuild
    the entry.
    """
    from repro.bdd.backends.protocol import generic_split_by_vars

    for name in program.names:
        mgr.add_var(name)
    mgr.set_order(list(order))
    pool = run_program(mgr, program)
    names = mgr.var_order()
    for k in range(len(names) + 1):
        split = [mgr.var_index(name) for name in names[:k]]
        for f in pool + pool:
            native = list(mgr.split_by_vars(f, split).items())
            generic = list(generic_split_by_vars(mgr, f, split).items())
            assert native == generic, (
                f"{mgr.backend_name}: split of a pool entry by "
                f"{names[:k]} diverged from the generic split"
            )
            covered = rebuilt = 0
            for leaf, cond in native:
                covered = mgr.apply_or(covered, cond)
                rebuilt = mgr.apply_or(rebuilt, mgr.apply_and(cond, leaf))
            assert covered == 1 and rebuilt == f, (
                f"{mgr.backend_name}: split by {names[:k]} is no "
                "complete partition of its function"
            )


def split_case_strategy(max_steps: int = 15, names: tuple[str, ...] = DEFAULT_NAMES):
    """Hypothesis strategy for :func:`check_split_classes` arguments:
    ``(program, order)``."""
    from hypothesis import strategies as st

    return st.tuples(
        program_strategy(max_steps=max_steps, names=names),
        st.permutations(names).map(tuple),
    )


def rename_case_strategy(max_steps: int = 15, names: tuple[str, ...] = DEFAULT_NAMES):
    """Hypothesis strategy for :func:`check_rename_map` arguments:
    ``(program, order, targets)`` with two independent permutations of
    ``names``."""
    from hypothesis import strategies as st

    return st.tuples(
        program_strategy(max_steps=max_steps, names=names),
        st.permutations(names).map(tuple),
        st.permutations(names).map(tuple),
    )


def run_kit_check(backend, check, *args, **kwargs) -> None:
    """Run one single-backend kit check on a fresh manager, then close it.

    ``backend`` is a registry name or a zero-argument factory, as for
    :func:`run_conformance_case`; ``check`` is :func:`check_literal_ite`,
    :func:`check_rename_map` or :func:`check_split_classes`.
    """
    mgr = _make(backend, {})
    try:
        check(mgr, *args, **kwargs)
    finally:
        _close(mgr)


def conformance_pairs() -> list[tuple[str, str]]:
    """Backend pairs worth testing on this machine.

    The reference is always half of every pair: conformance is defined
    *against* it, and transitivity covers native-vs-native.
    """
    from repro.bdd.backends import DEFAULT_BACKEND, available_backends

    return [
        (DEFAULT_BACKEND, name)
        for name in available_backends()
        if name != DEFAULT_BACKEND
    ]


def _make(backend, kwargs):
    if callable(backend):
        return backend()
    from repro.bdd.backends import create_manager

    return create_manager(backend, **kwargs)


def _close(mgr) -> None:
    close = getattr(mgr, "close", None)
    if close is not None:
        close()
