"""Interleaved product orders: structure properties and result identity.

The interleaved order is a pure *ordering* policy: the same variables,
the same equations, a different declaration order (each specification
latch grouped with its fixed-component twin instead of all F latches
stacked above all S latches).  These tests pin the two contracts that
make it safe:

* **structure** — the interleaved order is a permutation of the stacked
  order that keeps the letters-above-states reorder block boundary and
  the order-preserving ``ns -> cs`` rename fast path (for both the F and
  the S rename maps);
* **identity** — solves are byte-identical (KISS text) between the two
  orders across the whole Table 1 suite, including the sharded runtime.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.kiss import write_kiss
from repro.bdd.reorder import interleaved_state_order, pair_state_latches
from repro.bench import circuits
from repro.bench.suite import TABLE1_CASES
from repro.eqn import build_latch_split_problem, solve_equation
from repro.errors import BddError, EquationError


class TestPairingHelpers:
    def test_pairs_follow_specification_order(self) -> None:
        pairs = pair_state_latches(["a", "b", "c"], ["c", "a"])
        assert pairs == [("a", "a"), (None, "b"), ("c", "c")]

    def test_orphan_fixed_latch_raises(self) -> None:
        with pytest.raises(BddError, match="without specification twin"):
            pair_state_latches(["a"], ["a", "z"])

    def test_interleaved_order_groups_twins(self) -> None:
        order = interleaved_state_order([("a", "a"), (None, "b")])
        assert order == ["F.a", "F.a'", "S.a", "S.a'", "S.b", "S.b'"]

    def test_unknown_product_order_rejected(self) -> None:
        net = circuits.counter(3)
        with pytest.raises(EquationError, match="product_order"):
            build_latch_split_problem(net, ["b1"], product_order="diagonal")


@st.composite
def split_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    n_latches = draw(st.integers(min_value=2, max_value=6))
    net = circuits.random_network(n_inputs, n_latches, 1, seed=seed)
    latches = net.latch_names()
    k = draw(st.integers(min_value=1, max_value=len(latches)))
    x = draw(
        st.lists(st.sampled_from(latches), min_size=k, max_size=k, unique=True)
    )
    return net, x


def _rename_is_monotone(order: list[str], cs: list[str], ns: list[str]) -> bool:
    """Sources sorted by level must map to targets in the same order."""
    level = {name: i for i, name in enumerate(order)}
    by_source = sorted(zip(ns, cs), key=lambda pair: level[pair[0]])
    target_levels = [level[c] for _, c in by_source]
    return target_levels == sorted(target_levels)


@given(split_instances())
@settings(max_examples=15, deadline=None)
def test_interleaved_is_a_boundary_preserving_permutation(instance) -> None:
    net, x = instance
    stacked = build_latch_split_problem(net, x, product_order="stacked")
    inter = build_latch_split_problem(net, x, product_order="interleaved")
    so = stacked.manager.var_order()
    io = inter.manager.var_order()
    # Same variables, different order.
    assert sorted(so) == sorted(io)
    # The letter block (everything above the reorder boundary) is
    # untouched: same names, same order, same boundary position.
    n_letters = len(
        stacked.i_names + stacked.o_names + stacked.u_names + stacked.v_names
    )
    assert so[:n_letters] == io[:n_letters]
    assert all(not name.startswith(("F.", "S.")) for name in so[:n_letters])
    assert all(name.startswith(("F.", "S.")) for name in io[n_letters:])
    # Both rename maps stay order-preserving in both orders.
    for problem in (stacked, inter):
        order = problem.manager.var_order()
        s_cs = ["S.dc"] + [f"S.{n}" for n in problem.split.original.latches]
        s_ns = ["S.dc'"] + [f"S.{n}'" for n in problem.split.original.latches]
        f_cs = [f"F.{n}" for n in problem.split.fixed.latches]
        f_ns = [f"F.{n}'" for n in problem.split.fixed.latches]
        assert _rename_is_monotone(order, s_cs, s_ns)
        assert _rename_is_monotone(order, f_cs, f_ns)


def _solve_kiss(case, product_order: str, **kwargs) -> str:
    problem = build_latch_split_problem(
        case.network(), list(case.x_latches), product_order=product_order
    )
    kwargs.setdefault("frontier", "bfs")
    kwargs.setdefault("batch", 8)
    result = solve_equation(problem, method="partitioned", **kwargs)
    return write_kiss(result.csf)


@pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
def test_interleaved_matches_stacked_across_the_suite(case) -> None:
    """Byte-identical KISS for every Table 1 case under both orders."""
    assert _solve_kiss(case, "stacked") == _solve_kiss(case, "interleaved")


@pytest.mark.parametrize("name", ["count6", "johnson8"])
def test_interleaved_matches_stacked_sharded(name) -> None:
    """Sharded size-frontier runs stay identical under both orders."""
    case = next(c for c in TABLE1_CASES if c.name == name)
    reference = _solve_kiss(case, "stacked")
    for order in ("stacked", "interleaved"):
        sharded = _solve_kiss(case, order, shards=2, frontier="size")
        assert sharded == reference
