"""Deep-BDD regression tests: depth > 2000 under a 1000-frame limit.

The kernel recurses once per BDD level, so a function deeper than
``sys.getrecursionlimit()`` (minus the caller's stack) would die with
``RecursionError``.  :meth:`BddManager.add_var` prevents that: it raises
the limit to ``3 × num_vars`` plus a margin whenever it is lower, and
never lowers it.  These tests lower the limit to 1000 frames before
building the manager and push depth-2000+ BDDs through every operator,
the successor split, cube enumeration, GC and cross-order transfer, in
the main thread and in a worker thread; they also pin the limit
contract itself.  CI runs this file in a dedicated recursion-stress
step.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

from repro.bdd.backends.protocol import generic_split_by_vars
from repro.bdd.cube import iter_cubes, sat_count
from repro.bdd.manager import (
    _DEEP_MARGIN,
    FALSE,
    TRUE,
    BddManager,
    ensure_recursion_limit,
)
from repro.bdd.reorder import transfer

DEPTH = 2200  #: > 2x the lowered recursion limit


@contextmanager
def recursion_limit(n: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(n)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _deep_manager(n: int = DEPTH) -> tuple[BddManager, list[int]]:
    mgr = BddManager()
    vs = mgr.add_vars([f"x{i}" for i in range(n)])
    assert sys.getrecursionlimit() >= 3 * n + _DEEP_MARGIN
    return mgr, vs


def _chain(mgr: BddManager, vs: list[int]) -> int:
    """Conjunction of ``vs``, folded bottom-up (O(1) nodes per step)."""
    f = TRUE
    for v in reversed(vs):
        f = mgr.apply_and(mgr.var_node(v), f)
    return f


def _parity(mgr: BddManager, vs: list[int]) -> int:
    """Odd parity of ``vs``, folded bottom-up (O(1) nodes per step)."""
    f = FALSE
    for v in reversed(vs):
        f = mgr.apply_xor(mgr.var_node(v), f)
    return f


def test_deep_chain_builds_under_low_recursion_limit() -> None:
    with recursion_limit(1000):
        mgr, vs = _deep_manager()
        # Bottom-up fold: conjoining the next-higher literal onto the
        # chain is O(1) per step (top-down would rebuild the whole chain
        # each step — O(n^2) nodes — without proving anything more).
        f = TRUE
        for v in reversed(vs):
            f = mgr.apply_and(mgr.var_node(v), f)
        assert mgr.size(f) == DEPTH
        # The conjunction is satisfied by exactly the all-ones point.
        assert sat_count(mgr, f, vs) == 1
        assert mgr.eval_vars(f, {v: 1 for v in vs})
        assert not mgr.eval_vars(f, {**{v: 1 for v in vs}, vs[-1]: 0})


def test_deep_or_xor_ite_under_low_recursion_limit() -> None:
    with recursion_limit(1000):
        mgr, vs = _deep_manager()
        f = FALSE
        for v in reversed(vs):  # bottom-up: O(1) nodes per step
            f = mgr.apply_or(mgr.var_node(v), f)
        assert sat_count(mgr, f, vs) == 2**DEPTH - 1
        parity = FALSE
        for v in reversed(vs):
            parity = mgr.apply_xor(mgr.var_node(v), parity)
        assert sat_count(mgr, parity, vs) == 2 ** (DEPTH - 1)
        g = mgr.ite(f, parity, mgr.apply_not(parity))
        assert mgr.size(g) >= DEPTH


def test_deep_quantification_under_low_recursion_limit() -> None:
    with recursion_limit(1000):
        mgr, vs = _deep_manager()
        f = TRUE
        for v in reversed(vs):  # bottom-up: O(1) nodes per step
            f = mgr.apply_and(mgr.var_node(v), f)
        half = vs[: DEPTH // 2]
        g = mgr.exists(f, half)
        # ∃(first half) of the full conjunction = conjunction of the rest.
        expect = TRUE
        for v in reversed(vs[DEPTH // 2 :]):
            expect = mgr.apply_and(mgr.var_node(v), expect)
        assert g == expect
        # Fused and_exists: ∃half (f ∧ even-parity-of-half).  Even parity
        # holds at the all-ones point (len(half) is even), so the fold
        # keeps exactly f's satisfying point.
        parity = FALSE
        for v in reversed(half):
            parity = mgr.apply_xor(mgr.var_node(v), parity)
        h = mgr.and_exists(f, parity ^ 1, half)
        assert h == expect
        # The odd-parity conjunction is empty: the fused fold must
        # short-circuit to FALSE.
        assert mgr.and_exists(f, parity, half) == FALSE


def test_deep_restrict_rename_under_low_recursion_limit() -> None:
    with recursion_limit(1000):
        mgr = BddManager()
        xs = mgr.add_vars([f"x{i}" for i in range(DEPTH)])
        ys = mgr.add_vars([f"y{i}" for i in range(DEPTH)])
        f = TRUE
        for v in reversed(xs):  # bottom-up: O(1) nodes per step
            f = mgr.apply_and(mgr.var_node(v), f)
        # Cofactor at the very bottom variable forces a full-depth walk.
        r = mgr.restrict(f, xs[-1], 1)
        expect = TRUE
        for v in reversed(xs[:-1]):
            expect = mgr.apply_and(mgr.var_node(v), expect)
        assert r == expect
        # Order-preserving rename x block -> y block (structural path).
        renamed = mgr.rename(f, dict(zip(xs, ys)))
        expect_y = TRUE
        for v in reversed(ys):
            expect_y = mgr.apply_and(mgr.var_node(v), expect_y)
        assert renamed == expect_y


def test_deep_cofactor_cube_under_low_recursion_limit() -> None:
    """``cofactor_cube`` on a deep manager: a cube at the very bottom,
    one spread over the whole order, and a repeat call served from the
    computed table."""
    with recursion_limit(1000):
        mgr, vs = _deep_manager()
        parity = FALSE
        for v in reversed(vs):  # bottom-up: O(1) nodes per step
            parity = mgr.apply_xor(mgr.var_node(v), parity)
        # Fixing the bottom variable to 1 flips the parity of the rest.
        rest = FALSE
        for v in reversed(vs[:-1]):
            rest = mgr.apply_xor(mgr.var_node(v), rest)
        assert mgr.cofactor_cube(parity, {vs[-1]: 1}) == rest ^ 1
        assert mgr.cofactor_cube(parity ^ 1, {vs[-1]: 0}) == rest ^ 1
        # Every other variable bound to 1: parity of the unbound half,
        # flipped by the DEPTH // 2 ones (even, so no flip).
        bound = {v: 1 for v in vs[::2]}
        half = FALSE
        for v in reversed(vs[1::2]):
            half = mgr.apply_xor(mgr.var_node(v), half)
        assert mgr.cofactor_cube(parity, bound) == half
        hits = mgr.stats["cache_hits"]
        assert mgr.cofactor_cube(parity, mgr.cube(bound)) == half
        assert mgr.stats["cache_hits"] == hits + 1


def test_deep_gc_sift_and_transfer_under_low_recursion_limit() -> None:
    with recursion_limit(1000):
        mgr, vs = _deep_manager()
        f = TRUE
        for v in reversed(vs):  # bottom-up: O(1) nodes per step
            f = mgr.apply_and(mgr.var_node(v), f)
        mgr.ref(f)
        # A sub-chain over every third variable allocates nodes disjoint
        # from f's chain (an or-with-literal would be absorbed node-free
        # through complement-edge sharing); dropping it makes garbage.
        garbage = TRUE
        for v in reversed(vs[::3]):
            garbage = mgr.apply_and(mgr.var_node(v), garbage)
        assert garbage != f
        reclaimed = mgr.collect_garbage()
        assert reclaimed > 0
        mgr.check()
        assert sat_count(mgr, f, vs) == 1
        # Cross-manager transfer of a deep function into an order with
        # one adjacent pair exchanged.
        names = [f"x{i}" for i in range(DEPTH)]
        mid = DEPTH // 2
        names[mid], names[mid + 1] = names[mid + 1], names[mid]
        dst = BddManager()
        dst.add_vars(names)
        g = transfer(f, mgr, dst)
        assert dst.size(g) == DEPTH
        assert sat_count(dst, g, list(range(DEPTH))) == 1


def test_deep_solver_shaped_image_fold_under_low_recursion_limit() -> None:
    """A partitioned-image-shaped fold (the solver hot loop) on a
    600-latch relation: ∃cs,i . (Π ns_k ≡ cs_k) ∧ frontier."""
    n = 600  # 1200 interleaved vars + depth-600 parts: > the 1000 limit
    with recursion_limit(1000):
        mgr = BddManager()
        cs, ns = [], []
        for i in range(n):
            cs.append(mgr.add_var(f"cs{i}"))
            ns.append(mgr.add_var(f"ns{i}"))
        parts = [mgr.apply_iff(mgr.var_node(a), mgr.var_node(b)) for a, b in zip(ns, cs)]
        frontier = mgr.cube({v: 1 for v in cs})
        # Early quantification: each fold step retires exactly the cs
        # variable its part consumes (interned once, reused per step).
        plan = [(part, mgr.quant_set([v])) for part, v in zip(parts, cs)]
        result = frontier
        for part, retire in plan:
            result = mgr.and_exists(result, part, retire)
            assert result != FALSE
        # The image of the all-ones cs state is the all-ones ns state.
        assert result == mgr.cube({v: 1 for v in ns})


SPLIT = 1200  #: split variables: > the lowered recursion limit


def test_deep_split_and_cube_enumeration_under_low_recursion_limit() -> None:
    """The successor split (native and protocol-only) and cube
    enumeration recurse once per split level, like the operators."""
    with recursion_limit(1000):
        mgr, vs = _deep_manager()
        split, rest = vs[:SPLIT], vs[SPLIT:]
        all_ones = _chain(mgr, split)
        leaf_hi, leaf_lo = _parity(mgr, rest), _chain(mgr, rest)
        f = mgr.ite(all_ones, leaf_hi, leaf_lo)
        expect = {leaf_lo: all_ones ^ 1, leaf_hi: all_ones}
        native = mgr.split_by_vars(f, split)
        assert native == expect
        assert list(native) == [leaf_lo, leaf_hi]  # lo-first order
        assert generic_split_by_vars(mgr, f, split) == expect
        assert list(iter_cubes(mgr, all_ones)) == [{v: 1 for v in split}]


def test_small_manager_leaves_the_limit_alone() -> None:
    with recursion_limit(1000):
        mgr = BddManager()
        mgr.add_vars([f"x{i}" for i in range(8)])
        mgr.apply_and(mgr.var_node(0), mgr.var_node(7))
        assert sys.getrecursionlimit() == 1000


def test_caller_raised_limit_is_never_lowered() -> None:
    high = 3 * DEPTH + _DEEP_MARGIN + 1000
    with recursion_limit(high):
        mgr, vs = _deep_manager()
        _chain(mgr, vs)
        assert sys.getrecursionlimit() == high
    with recursion_limit(1000):
        mgr, vs = _deep_manager()
        raised = sys.getrecursionlimit()
        assert raised == 3 * DEPTH + _DEEP_MARGIN
        # A shallower manager built later never pulls the limit back.
        BddManager().add_vars(["a", "b"])
        assert sys.getrecursionlimit() == raised


def test_deep_ops_in_a_worker_thread_under_low_recursion_limit() -> None:
    """``repro serve`` solves on an executor thread: a deep manager built
    and run there finishes every hot operator."""
    errors: list[BaseException] = []

    def work() -> None:
        try:
            mgr, vs = _deep_manager()
            f = _chain(mgr, vs)
            half = vs[: DEPTH // 2]
            expect = _chain(mgr, vs[DEPTH // 2 :])
            assert mgr.exists(f, half) == expect
            parity = _parity(mgr, half)
            assert sat_count(mgr, parity, half) == 2 ** (len(half) - 1)
            assert mgr.and_exists(f, parity ^ 1, half) == expect
            assert mgr.cofactor_cube(f, {v: 1 for v in half}) == expect
        except Exception as exc:  # re-raised in the main thread
            errors.append(exc)

    with recursion_limit(1000):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=300)
        assert not worker.is_alive()
    if errors:
        raise errors[0]


def test_concurrent_raises_keep_the_highest_limit() -> None:
    """Read-then-raise of the process-wide limit is serialised: threads
    that race to raise it to different depths never leave it below the
    deepest request, which an unlocked check-then-set could do when the
    deepest write lands between a shallower thread's check and its set."""
    needs = (1000, 2000, 3000, 4000)

    def work(start: threading.Barrier, n: int) -> None:
        start.wait(timeout=60)
        ensure_recursion_limit(n)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            start = threading.Barrier(len(needs))
            with recursion_limit(1000):
                workers = [
                    threading.Thread(target=work, args=(start, n)) for n in needs
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                    assert not worker.is_alive()
                assert sys.getrecursionlimit() == 3 * max(needs) + _DEEP_MARGIN
    finally:
        sys.setswitchinterval(switch)
