"""The content-addressed store: round-trips, atomicity, LRU eviction.

Hypothesis drives full result payloads (random automata through
``dump_result``-shaped dicts with packed-array columns) through
put/get to pin that pickling the wire format is lossless; the rest
covers the operational contract the docs promise (atomic writes, LRU
eviction order, checkpoint side-store, the header/body/digest framing).
"""

from __future__ import annotations

import hashlib
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.payload import dump_automaton, load_automaton
from repro.serve.store import STORE_FORMAT, SUMMARY_FIELDS, ResultStore
from tests.serve.test_payload import VARS, random_automaton
from tests.strategies import bdd_minterms, expressions

#: A payload carrying every summary field.
PAYLOAD = {
    "csf_states": 3,
    "seconds": 0.5,
    "method": "partitioned",
    "cache_key": "ab" * 32,
    "csf": list(range(50)),
}


def fake_key(n: int) -> str:
    return f"{n:064x}"


def body_span(path) -> tuple[int, int]:
    """Byte range of a stored entry's body (after the header pickle,
    before the 32-byte digest trailer)."""
    with open(path, "rb") as handle:
        pickle.load(handle)
        start = handle.tell()
    return start, path.stat().st_size - 32


def flip_body_byte(path) -> None:
    """Flip one byte in the middle of an entry's body; the size stays."""
    start, end = body_span(path)
    blob = bytearray(path.read_bytes())
    blob[(start + end) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


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

    @pytest.mark.parametrize("body", [True, False])
    def test_flipped_body_byte_is_a_miss(self, tmp_path, caplog, body) -> None:
        """A same-size flip inside the body fails the digest, on the
        header-only read too."""
        store = ResultStore(tmp_path)
        key = fake_key(5)
        path = store.put(key, PAYLOAD)
        size = path.stat().st_size
        flip_body_byte(path)
        assert path.stat().st_size == size
        with caplog.at_level("WARNING", logger="repro.serve.store"):
            assert store.get(key, body=body) is None
        assert not path.exists()
        assert [r.getMessage() for r in caplog.records] == [
            "dropping damaged store entry"
        ]

    def test_old_one_pickle_layout_is_a_miss(self, tmp_path, caplog) -> None:
        """An entry written as one bare pickle (no header, no digest) is
        deleted and logged, not served."""
        store = ResultStore(tmp_path)
        key = fake_key(6)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(PAYLOAD, protocol=pickle.HIGHEST_PROTOCOL))
        with caplog.at_level("WARNING", logger="repro.serve.store"):
            assert store.get(key, body=False) is None
        assert not path.exists()
        assert len(caplog.records) == 1

    def test_entry_is_header_body_digest(self, tmp_path) -> None:
        store = ResultStore(tmp_path)
        path = store.put(fake_key(8), PAYLOAD)
        blob = path.read_bytes()
        assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()
        with open(path, "rb") as handle:
            header = pickle.load(handle)
            assert pickle.load(handle) == PAYLOAD
            assert handle.tell() == len(blob) - 32
        assert header == {
            "format": STORE_FORMAT,
            "summary": {name: PAYLOAD[name] for name in SUMMARY_FIELDS},
        }
        assert store.get(fake_key(8), body=False) == header["summary"]
        assert store.get(fake_key(8)) == PAYLOAD

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

    def test_flipped_checkpoint_byte_is_a_miss(self, tmp_path, caplog) -> None:
        store = ResultStore(tmp_path)
        key = fake_key(7)
        path = store.put_checkpoint(key, {"stats": {"batches": 3}, "pad": "x" * 64})
        flip_body_byte(path)
        with caplog.at_level("WARNING", logger="repro.serve.store"):
            assert store.get_checkpoint(key) is None
        assert not path.exists()
        assert len(caplog.records) == 1

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

