"""Cache-key semantics: what collides, what must not.

The content-addressed cache is only sound if the key is exactly the
problem: textually different but structurally identical submissions
must collide, and any flag that can change the produced automaton, its
state numbering or its stats must separate.
"""

from __future__ import annotations

import pytest

import json
from dataclasses import fields

from repro.bench import S27_BLIF
from repro.bench.suite import TABLE1_COMPOSE_CASES
from repro.eqn.config import DEFAULT, EXCLUDED, SolveConfig
from repro.errors import ServeError
from repro.network.blif import parse_blif
from repro.serve.keys import (
    cache_key,
    canonical_blif,
    job_spec,
    solve_cache_key,
)

X = ["G6", "G7"]


def test_key_is_stable_hex_digest() -> None:
    key = solve_cache_key(S27_BLIF, X)
    assert len(key) == 64
    assert set(key) <= set("0123456789abcdef")
    assert key == solve_cache_key(S27_BLIF, X)


def test_whitespace_and_comments_do_not_change_the_key() -> None:
    noisy = "# a comment\n" + S27_BLIF.replace("\n", "\n\n") + "\n# trailing\n"
    assert solve_cache_key(noisy, X) == solve_cache_key(S27_BLIF, X)


def test_network_object_and_text_agree() -> None:
    net = parse_blif(S27_BLIF)
    assert solve_cache_key(net, X) == solve_cache_key(S27_BLIF, X)
    assert canonical_blif(net) == canonical_blif(S27_BLIF)


def test_latch_selection_order_does_not_matter() -> None:
    assert solve_cache_key(S27_BLIF, ["G6", "G7"]) == solve_cache_key(
        S27_BLIF, ["G7", "G6"]
    )


def test_different_split_separates() -> None:
    assert solve_cache_key(S27_BLIF, ["G6"]) != solve_cache_key(S27_BLIF, X)


@pytest.mark.parametrize(
    "flag,value",
    [
        ("method", "monolithic"),
        ("schedule", False),
        ("trim", False),
        ("shards", 2),
        ("frontier", "bfs"),
        ("batch", 8),
        ("compose", True),
    ],
)
def test_every_solver_flag_separates(flag: str, value) -> None:
    assert solve_cache_key(S27_BLIF, X, **{flag: value}) != solve_cache_key(
        S27_BLIF, X
    )


def test_defaults_are_explicit_in_the_spec() -> None:
    spec = job_spec(S27_BLIF, X)
    for name, default in DEFAULT.hashed().items():
        assert spec[name] == default
    assert spec["u_signals"] is None
    # An explicitly-defaulted flag hashes like an omitted one.
    assert cache_key(job_spec(S27_BLIF, X, batch=1)) == cache_key(spec)


def test_unknown_flag_is_rejected_not_silently_defaulted() -> None:
    with pytest.raises(ServeError, match="unknown solver flags"):
        job_spec(S27_BLIF, X, bach=8)  # typo must not alias onto batch=1


def test_budgets_are_not_part_of_the_spec() -> None:
    # max_seconds / max_nodes bound completion, not the result; job_spec
    # has no such fields at all, so they cannot leak into the key.
    with pytest.raises(ServeError):
        job_spec(S27_BLIF, X, max_seconds=5)


class TestBackendExclusion:
    """The BDD backend is validated but never hashed: backends are
    byte-identical by the conformance contract, so two submissions
    differing only in backend are the same problem and must collide."""

    def test_backend_does_not_change_the_key(self) -> None:
        base = solve_cache_key(S27_BLIF, X)
        assert solve_cache_key(S27_BLIF, X, backend="python") == base
        assert solve_cache_key(S27_BLIF, X, backend="buddy") == base

    def test_backend_never_enters_the_spec(self) -> None:
        spec = job_spec(S27_BLIF, X, backend="buddy")
        assert "backend" not in spec
        assert spec == job_spec(S27_BLIF, X)

    def test_excluded_flags_are_declared(self) -> None:
        excluded = {
            f.name for f in fields(SolveConfig) if f.metadata["kind"] == EXCLUDED
        }
        assert excluded == {"backend", "resident_budget"}
        assert not excluded & set(job_spec(S27_BLIF, X, resident_budget=4))

    def test_misspelled_backend_is_rejected(self) -> None:
        with pytest.raises(ServeError, match="unknown BDD backend"):
            job_spec(S27_BLIF, X, backend="cudd")


@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_one_problem_has_one_spelling(value) -> None:
    """Integer fields reject bool, float and str, so ``shards: 1``,
    ``1.0`` and ``true`` cannot hash to three different cache keys."""
    with pytest.raises(ServeError, match="shards must be int"):
        job_spec(S27_BLIF, X, shards=value)


(TWIN20_4,) = TABLE1_COMPOSE_CASES

#: name -> (circuit, split, u_signals, flags, spec without its BLIF, key).
#: Each spec differs from its ``repro-serve-spec/4`` predecessor only in
#: ``format`` and the absence of the ``product_order`` field.
GOLDEN = {
    "default": (
        S27_BLIF, X, None, {},
        '{"batch": 1, "compose": false, "format": "repro-serve-spec/5", '
        '"frontier": "dfs", "method": "partitioned", "schedule": true, '
        '"shards": 1, "trim": true, "u_signals": null, "x_latches": ["G6", "G7"]}',
        "4d7f555456896f62145748706c23cf3d293d81baec56b213f2612a7fbe1454bc",
    ),
    "monolithic": (
        S27_BLIF, X, None, {"method": "monolithic"},
        '{"batch": 1, "compose": false, "format": "repro-serve-spec/5", '
        '"frontier": "dfs", "method": "monolithic", "schedule": true, '
        '"shards": 1, "trim": true, "u_signals": null, "x_latches": ["G6", "G7"]}',
        "f52e60ee2e91830cf4527f6c5ff844e2c825b4496da50eb7e331c19e846e487c",
    ),
    "bfs8_shards2": (
        S27_BLIF, X, None,
        {"frontier": "bfs", "batch": 8, "shards": 2},
        '{"batch": 8, "compose": false, "format": "repro-serve-spec/5", '
        '"frontier": "bfs", "method": "partitioned", "schedule": true, '
        '"shards": 2, "trim": true, "u_signals": null, "x_latches": ["G6", "G7"]}',
        "849e6ff49ec804f7e004c63325d021b1fd5032e0c7e6411f88b842e26f39a59d",
    ),
    "compose_u_signals": (
        TWIN20_4.network(), list(TWIN20_4.x_latches), list(TWIN20_4.u_signals),
        {"compose": True},
        '{"batch": 1, "compose": true, "format": "repro-serve-spec/5", '
        '"frontier": "dfs", "method": "partitioned", "schedule": true, '
        '"shards": 1, "trim": true, "u_signals": ["b0", "b2", "enb"], '
        '"x_latches": ["b1", "b3"]}',
        "fb802aee826cfe775b4ae8be6fc241417015a21073586c4dce0931f323292a50",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_specs(name: str) -> None:
    """The canonical spec JSON and its SHA-256 are pinned: a change to
    either must come with a deliberate ``SPEC_FORMAT`` bump."""
    blif, x_latches, u_signals, flags, pinned, key = GOLDEN[name]
    spec = job_spec(blif, x_latches, u_signals=u_signals, **flags)
    assert spec["blif"] == canonical_blif(blif)
    rest = {k: v for k, v in spec.items() if k != "blif"}
    assert json.dumps(rest, sort_keys=True) == pinned
    assert cache_key(spec) == key


def test_compose_row_key_differs_from_the_direct_key() -> None:
    """A composed CSF is language-identical to the direct one, not
    byte-identical, so the two solves must not share a cache entry."""
    net, x_latches = TWIN20_4.network(), list(TWIN20_4.x_latches)
    u_signals = list(TWIN20_4.u_signals)
    direct = solve_cache_key(net, x_latches, u_signals=u_signals)
    composed = solve_cache_key(net, x_latches, u_signals=u_signals, compose=True)
    assert composed != direct
