"""The content-addressed store: round-trips, atomicity, LRU eviction.

Hypothesis drives full result payloads (random automata through
``dump_result``-shaped dicts with packed-array columns) through
put/get to pin that pickling the wire format is lossless; the rest
covers the operational contract the docs promise (atomic writes, LRU
eviction order, checkpoint side-store).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.payload import dump_automaton, load_automaton
from repro.serve.store import ResultStore
from tests.serve.test_payload import VARS, random_automaton
from tests.strategies import bdd_minterms, expressions


def fake_key(n: int) -> str:
    return f"{n:064x}"


class TestRoundTrip:
    @given(
        exprs=st.lists(expressions(VARS, max_leaves=8), min_size=1, max_size=5),
        accepting=st.lists(st.booleans(), min_size=2, max_size=4),
        seed=st.integers(min_value=0, max_value=2**62),
    )
    @settings(max_examples=30, deadline=None)
    def test_payload_survives_put_get(self, tmp_path_factory, exprs, accepting, seed) -> None:
        store = ResultStore(tmp_path_factory.mktemp("cache"))
        aut = random_automaton(exprs, accepting)
        payload = {
            "format": "repro-serve-result/1",
            "csf": dump_automaton(aut),
            "seconds": 0.25,
            "stats": {"subsets": len(accepting)},
        }
        key = fake_key(seed)
        store.put(key, payload)
        loaded = store.get(key)
        assert loaded["seconds"] == payload["seconds"]
        assert loaded["stats"] == payload["stats"]
        clone = load_automaton(loaded["csf"])
        for src in range(aut.num_states):
            for dst, label in aut.edges[src].items():
                assert bdd_minterms(
                    clone.manager, clone.edges[src][dst], VARS
                ) == bdd_minterms(aut.manager, label, VARS)

    def test_get_miss_returns_none(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        assert store.get(fake_key(1)) is None
        assert fake_key(1) not in store

    def test_malformed_key_is_rejected(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="malformed cache key"):
            store.get("../../etc/passwd")


class TestOperational:
    def test_layout_shards_by_key_prefix(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        key = fake_key(0xAB12)
        store.put(key, {"x": 1})
        assert (tmp_path / "results" / key[:2] / f"{key}.pkl").is_file()

    def test_writes_are_atomic_no_temp_debris(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        for n in range(5):
            store.put(fake_key(n), {"n": n})
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_lru_eviction_keeps_recently_used(self, tmp_path) -> None:
        store = ResultStore(tmp_path, max_entries=2)
        store.put(fake_key(1), {"n": 1})
        os.utime(store.path_for(fake_key(1)), (1, 1))
        store.put(fake_key(2), {"n": 2})
        os.utime(store.path_for(fake_key(2)), (2, 2))
        store.put(fake_key(3), {"n": 3})  # evicts the stalest (key 1)
        assert store.get(fake_key(1)) is None
        assert store.get(fake_key(2)) is not None
        assert store.get(fake_key(3)) is not None

    def test_get_refreshes_lru_position(self, tmp_path) -> None:
        store = ResultStore(tmp_path, max_entries=2)
        store.put(fake_key(1), {"n": 1})
        os.utime(store.path_for(fake_key(1)), (1, 1))
        store.put(fake_key(2), {"n": 2})
        os.utime(store.path_for(fake_key(2)), (2, 2))
        store.get(fake_key(1))  # touch: key 2 is now the stalest
        store.put(fake_key(3), {"n": 3})
        assert store.get(fake_key(1)) is not None
        assert store.get(fake_key(2)) is None

    @pytest.mark.parametrize("keep", [0, 1, 10, -1])
    def test_damaged_entry_is_a_miss(self, tmp_path, caplog, keep) -> None:
        """A truncated pickle is deleted, logged once and reported absent."""
        store = ResultStore(tmp_path)
        key = fake_key(5)
        path = store.put(key, {"csf": list(range(50)), "seconds": 0.5})
        blob = path.read_bytes()
        path.write_bytes(blob[:keep])
        with caplog.at_level("WARNING", logger="repro.serve.store"):
            assert store.get(key) is None
        assert not path.exists()
        assert key not in store
        assert [r.getMessage() for r in caplog.records] == [
            "dropping damaged store entry"
        ]

    def test_stats_counts_entries_and_bytes(self, tmp_path) -> None:
        store = ResultStore(tmp_path, max_entries=10)
        store.put(fake_key(1), {"n": 1})
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["max_entries"] == 10


class TestCheckpoints:
    def test_checkpoint_round_trip_and_drop(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        key = fake_key(7)
        assert store.get_checkpoint(key) is None
        store.put_checkpoint(key, {"stats": {"batches": 3}})
        assert store.get_checkpoint(key)["stats"]["batches"] == 3
        store.drop_checkpoint(key)
        assert store.get_checkpoint(key) is None
        store.drop_checkpoint(key)  # idempotent

    def test_garbage_checkpoint_is_a_miss(self, tmp_path, caplog) -> None:
        store = ResultStore(tmp_path)
        key = fake_key(7)
        store.checkpoint_path(key).write_bytes(b"not a pickle at all")
        with caplog.at_level("WARNING", logger="repro.serve.store"):
            assert store.get_checkpoint(key) is None
        assert not store.checkpoint_path(key).exists()
        assert len(caplog.records) == 1

    def test_checkpoints_do_not_count_as_results(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        store.put_checkpoint(fake_key(7), {"a": 1})
        assert store.stats()["entries"] == 0
        assert store.stats()["checkpoints"] == 1
        assert store.keys() == []
