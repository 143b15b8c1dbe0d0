"""Bounded-memory residency: spill → evict → GC → sift → reload.

Three layers of the same contract:

* the packed single-function blob (:mod:`repro.bdd.io`) is canonical
  per (function, variable order) and round-trips bit-for-bit;
* the coordinator policy (:class:`repro.eqn.residency.ResidencyManager`)
  survives the full hostile sequence — spill, drop the pin, collect
  garbage, sift the order in place, reload — and hands back the *same
  function*;
* a budgeted solve is result-identical to the unbounded one: the spill
  machinery may only change when nodes are materialized, never what the
  solver computes (byte-identical KISS over the Table 1 suite).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.kiss import write_kiss
from repro.bdd import BddManager
from repro.bdd.io import FUNCTION_MAGIC, dump_function_packed, load_function_packed
from repro.bench import circuits
from repro.bench.suite import TABLE1_CASES
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.residency import ResidencyManager, SpillStore, content_key
from repro.eqn.solver import solve_equation
from repro.errors import BddError, EquationError

from tests.strategies import DEFAULT_VARS, bdd_minterms, expressions

VARS = list(DEFAULT_VARS)


@pytest.fixture()
def mgr():
    m = BddManager()
    m.add_vars(VARS)
    return m


def _build(mgr, expr):
    return expr.to_bdd(mgr)


# --------------------------------------------------------------------- #
# The packed single-function blob
# --------------------------------------------------------------------- #


class TestPackedFunction:
    def test_round_trip_same_manager(self, mgr) -> None:
        a, b, c = (mgr.var_node(mgr.var_index(v)) for v in "abc")
        f = mgr.apply_or(mgr.apply_and(a, b), mgr.apply_not(c))
        blob = dump_function_packed(mgr, f)
        assert blob.startswith(FUNCTION_MAGIC)
        assert load_function_packed(mgr, blob) == f

    def test_round_trip_fresh_manager_other_order(self, mgr) -> None:
        a, b = mgr.var_node(mgr.var_index("a")), mgr.var_node(mgr.var_index("b"))
        f = mgr.apply_xor(a, b)
        blob = dump_function_packed(mgr, f)
        other = BddManager()
        other.add_vars(list(reversed(VARS)))  # names travel, indices don't
        g = load_function_packed(other, blob)
        assert bdd_minterms(other, g, VARS) == bdd_minterms(mgr, f, VARS)

    def test_blob_is_canonical_per_function(self, mgr) -> None:
        a, b = mgr.var_node(mgr.var_index("a")), mgr.var_node(mgr.var_index("b"))
        via_or = mgr.apply_not(mgr.apply_or(mgr.apply_not(a), mgr.apply_not(b)))
        via_and = mgr.apply_and(a, b)
        assert via_or == via_and  # canonicity of the kernel...
        assert dump_function_packed(mgr, via_or) == dump_function_packed(
            mgr, via_and
        )  # ...carries over to the blob

    def test_terminals_round_trip(self, mgr) -> None:
        for terminal in (0, 1):
            blob = dump_function_packed(mgr, terminal)
            assert load_function_packed(mgr, blob) == terminal

    def test_bad_magic_rejected(self, mgr) -> None:
        with pytest.raises(BddError):
            load_function_packed(mgr, b"not-a-packed-function\n")

    @settings(deadline=None, max_examples=30)
    @given(expr=expressions())
    def test_round_trip_random(self, expr) -> None:
        m = BddManager()
        m.add_vars(VARS)
        f = _build(m, expr)
        assert load_function_packed(m, dump_function_packed(m, f)) == f


# --------------------------------------------------------------------- #
# The content-addressed spill store
# --------------------------------------------------------------------- #


class TestSpillStore:
    def test_put_get_round_trip(self, tmp_path) -> None:
        store = SpillStore(str(tmp_path / "spill"))
        key, written = store.put(b"blob-one")
        assert written
        assert key in store
        assert store.get(key) == b"blob-one"

    def test_content_dedup(self, tmp_path) -> None:
        store = SpillStore(str(tmp_path / "spill"))
        key1, written1 = store.put(b"same")
        key2, written2 = store.put(b"same")
        assert (key1, written1) == (key2, True)
        assert written2 is False
        assert store.puts == 1
        assert store.dedup_hits == 1
        assert store.put_bytes == len(b"same")

    def test_shared_directory_between_stores(self, tmp_path) -> None:
        root = str(tmp_path / "shared")
        writer, reader = SpillStore(root), SpillStore(root)
        key, _ = writer.put(b"cross-process")
        assert reader.get(key) == b"cross-process"
        # Neither store owns a caller-provided directory.
        writer.close()
        assert reader.get(key) == b"cross-process"

    def test_owned_tempdir_removed_on_close(self) -> None:
        import os

        store = SpillStore()
        key, _ = store.put(b"ephemeral")
        root = store.root
        assert os.path.isdir(root)
        store.close()
        assert not os.path.exists(root)
        store.close()  # idempotent

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_corrupt_blob_rejected_on_read(self, damage) -> None:
        import os

        store = SpillStore()
        key, _ = store.put(b"a packed psi blob")
        _corrupt(store._path(key), damage)
        with pytest.raises(EquationError, match="corrupt"):
            store.get(key)
        store.close()
        assert not os.path.exists(store.root)


def _corrupt(path: str, damage: str) -> None:
    """Truncate a stored blob to half, or flip one bit of its last byte."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if damage == "truncate":
        blob = blob[: len(blob) // 2]
    else:
        blob = blob[:-1] + bytes([blob[-1] ^ 0x01])
    with open(path, "wb") as fh:
        fh.write(blob)


# --------------------------------------------------------------------- #
# The coordinator-side LRU policy
# --------------------------------------------------------------------- #


class TestResidencyManager:
    def _admit_exprs(self, mgr, residency, exprs):
        """Admit + pin one ψ per expression; returns ``edge -> sid``."""
        admitted = {}
        for sid, expr in enumerate(exprs):
            f = _build(mgr, expr)
            if f in admitted:
                continue
            mgr.ref(f)
            residency.admit(f, sid)
            residency.mark_expanded(f)
            admitted[f] = sid
        return admitted

    def test_budget_rejects_nonpositive(self, mgr) -> None:
        with pytest.raises(EquationError):
            ResidencyManager(mgr, 0)

    def test_enforce_evicts_lru_first(self, mgr) -> None:
        residency = ResidencyManager(mgr, 2)
        a = mgr.var_node(mgr.var_index("a"))
        b = mgr.var_node(mgr.var_index("b"))
        c = mgr.var_node(mgr.var_index("c"))
        for sid, f in enumerate((a, b, c)):
            mgr.ref(f)
            residency.admit(f, sid)
            residency.mark_expanded(f)
        residency.touch(a)  # a is now the warmest expanded state
        evicted = residency.enforce()
        assert evicted  # over budget: three 1-node ψ against budget 2
        assert b in evicted and a not in evicted[:1]  # b was coldest
        for f in evicted:
            mgr.deref(f)
        assert residency.resident_nodes <= 2
        assert residency.evictions == len(evicted)
        assert residency.spills == len(evicted)
        residency.close()

    def test_frontier_states_never_evicted(self, mgr) -> None:
        residency = ResidencyManager(mgr, 1)
        f = mgr.var_node(mgr.var_index("a"))
        mgr.ref(f)
        residency.admit(f, 0)  # admitted but never mark_expanded: frontier
        assert residency.enforce() == []
        residency.close()

    def test_lookup_dedups_against_evicted(self, mgr) -> None:
        residency = ResidencyManager(mgr, 1)
        a = mgr.var_node(mgr.var_index("a"))
        b = mgr.var_node(mgr.var_index("b"))
        for sid, f in enumerate((a, b)):
            mgr.ref(f)
            residency.admit(f, sid)
            residency.mark_expanded(f)
        evicted = residency.enforce()
        assert a in evicted
        assert residency.lookup(a) == 0  # rebuilt candidate, same content
        assert residency.lookup(mgr.apply_and(a, b)) is None
        for f in evicted:
            mgr.deref(f)
        residency.close()

    def test_restore_brings_back_identical_edges(self, mgr) -> None:
        residency = ResidencyManager(mgr, 1)
        exprs_edges = {}
        for sid, name in enumerate(VARS):
            f = mgr.var_node(mgr.var_index(name))
            mgr.ref(f)
            residency.admit(f, sid)
            residency.mark_expanded(f)
            exprs_edges[sid] = f
        for f in residency.enforce():
            mgr.deref(f)
        restored = dict((sid, psi) for psi, sid in residency.restore_all())
        assert restored  # something was actually evicted and reloaded
        for sid, psi in restored.items():
            assert psi == exprs_edges[sid]  # canonical ⇒ same edge
        assert residency.reloads == len(restored)
        residency.close()

    @settings(
        deadline=None,
        max_examples=20,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(exprs=st.lists(expressions(max_leaves=8), min_size=2, max_size=8))
    def test_spill_gc_sift_reload_round_trip(self, exprs) -> None:
        """The full hostile sequence, against reference truth tables."""
        m = BddManager()
        m.add_vars(VARS)
        residency = ResidencyManager(m, 1)  # evict everything expanded
        admitted = self._admit_exprs(m, residency, exprs)
        tables = {sid: bdd_minterms(m, f, VARS) for f, sid in admitted.items()}
        evicted = residency.enforce()
        for f in evicted:
            m.deref(f)
        m.collect_garbage()
        m.sift_now()  # invalidates every stored content key's order
        restored = dict((sid, psi) for psi, sid in residency.restore_all())
        assert set(restored) == {admitted[f] for f in evicted}
        for sid, psi in restored.items():
            assert bdd_minterms(m, psi, VARS) == tables[sid]
        residency.close()

    def test_order_epoch_rehash_keeps_dedup_sound(self, mgr) -> None:
        residency = ResidencyManager(mgr, 1)
        a, b = mgr.var_node(mgr.var_index("a")), mgr.var_node(mgr.var_index("b"))
        f = mgr.apply_xor(a, b)
        mgr.ref(f)
        residency.admit(f, 7)
        residency.mark_expanded(f)
        for edge in residency.enforce():
            mgr.deref(edge)
        old_key, _ = content_key(mgr, mgr.apply_xor(a, b))
        mgr.collect_garbage()
        swapped = mgr.sift_now().swaps
        # Dedup must find the state under the *new* order's key.
        g = mgr.apply_xor(
            mgr.var_node(mgr.var_index("a")), mgr.var_node(mgr.var_index("b"))
        )
        assert residency.lookup(g) == 7
        if swapped:
            # The epoch changed, so the evicted entry was re-keyed (the
            # key *value* may coincide for symmetric functions).
            assert residency.rehashes >= 1
        residency.close()


# --------------------------------------------------------------------- #
# Result identity of budgeted solves
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("case", TABLE1_CASES, ids=[c.name for c in TABLE1_CASES])
def test_budgeted_solve_byte_identical(case) -> None:
    """A tiny resident budget must not change the result at all.

    Both solves share one problem (and manager), so KISS byte identity
    is the strongest available check: same states, same names, same
    edge labels, same text.
    """
    prob = build_latch_split_problem(
        case.network(), list(case.x_latches), max_nodes=case.max_nodes
    )
    base = solve_equation(prob, method="partitioned")
    bounded = solve_equation(prob, method="partitioned", resident_budget=256)
    assert write_kiss(bounded.csf) == write_kiss(base.csf)
    assert bounded.stats.subsets == base.stats.subsets
    assert bounded.stats.edges == base.stats.edges
    extra = bounded.stats.extra
    assert extra["resident_budget"] == 256
    assert extra["resident_nodes_peak"] > 0


def test_budgeted_solve_actually_spills() -> None:
    """On a state-heavy instance the budget must trigger real evictions."""
    net = circuits.johnson(8)
    prob = build_latch_split_problem(net, ["j1", "j3", "j5", "j7"])
    base = solve_equation(prob, method="partitioned")
    bounded = solve_equation(prob, method="partitioned", resident_budget=20)
    assert write_kiss(bounded.csf) == write_kiss(base.csf)
    extra = bounded.stats.extra
    assert extra["psi_spills"] > 0
    assert extra["resident_evictions"] > 0
    assert 0 < extra["resident_nodes_peak"]
    # 1024 subset states never sit materialized at once under budget 20.
    assert extra["evicted_peak"] > 100


SHARDED_BUDGET = {
    "method": "partitioned",
    "shards": 2,
    "frontier": "bfs",
    "batch": 8,
    "resident_budget": 40,
}


def test_sharded_budgeted_solve_spills_and_reloads() -> None:
    """Only the coordinator spills; a worker holds at most one batch of ψ."""
    net = circuits.johnson(8)
    prob = build_latch_split_problem(net, ["j1", "j3", "j5", "j7"])
    base = solve_equation(prob, method="partitioned", frontier="bfs", batch=8)
    bounded = solve_equation(prob, **SHARDED_BUDGET)
    assert write_kiss(bounded.csf) == write_kiss(base.csf)
    extra = bounded.stats.extra
    assert extra["psi_spills"] > 0
    assert extra["resident_evictions"] > 0
    # Nothing reloads without a checkpoint: evicted ψ are only ever
    # deduplicated against by content key.
    assert extra["psi_reloads"] == 0
    assert extra["psi_resident_peak"] <= 8


def test_sharded_spill_counters_match_the_store(tmp_path) -> None:
    """``psi_spills`` / ``spill_bytes`` count exactly the blobs on disk."""
    prob = build_latch_split_problem(circuits.johnson(8), ["j1", "j3", "j5", "j7"])
    result = solve_equation(prob, spill_dir=str(tmp_path), **SHARDED_BUDGET)
    blobs = list(tmp_path.rglob("*.bin"))
    extra = result.stats.extra
    assert blobs
    assert extra["psi_spills"] == len(blobs)
    assert extra["spill_bytes"] == sum(blob.stat().st_size for blob in blobs)


@pytest.mark.parametrize("damage", ["truncate", "flip"])
def test_corrupt_spill_fails_the_solve_cleanly(damage, tmp_path, monkeypatch) -> None:
    """A ψ blob damaged on disk fails the reload with EquationError, and
    the solve still removes its owned spill directory."""
    import tempfile

    real_put = SpillStore.put

    def damaging_put(store, blob):
        key, written = real_put(store, blob)
        if written:
            _corrupt(store._path(key), damage)
        return key, written

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(SpillStore, "put", damaging_put)
    prob = build_latch_split_problem(circuits.johnson(8), ["j1", "j3", "j5", "j7"])
    with pytest.raises(EquationError, match="corrupt"):
        # Each checkpoint reloads every spilled ψ, so the first one reads
        # a damaged blob back.
        solve_equation(
            prob,
            method="partitioned",
            resident_budget=20,
            checkpoint=lambda snapshot: None,
            checkpoint_every=1,
        )
    assert list(tmp_path.iterdir()) == []


def test_budget_rejected_for_explicit_method() -> None:
    net = circuits.counter(4)
    prob = build_latch_split_problem(net, ["b1"])
    with pytest.raises(EquationError):
        solve_equation(prob, method="explicit", resident_budget=10)
