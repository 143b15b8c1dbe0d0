"""The per-ψ expansion tail of both oracles, checked on real solves.

:func:`~repro.eqn.subset.finish_expansion` takes the DCA condition from
the FALSE class of the split: ``FALSE-class ∧ ¬Q_ψ`` with trimming, the
FALSE class alone without.  It must equal ``¬∃ns.P_ψ ∧ ¬Q_ψ`` (resp.
``¬∃ns.P_ψ``), the formula the tail computed with its own ``exists``
before, edge for edge on every expanded ψ.  The driver stores each class
edge with one bucket write (:meth:`Automaton.add_class_edge`), which is
sound because a ψ's classes never share a destination.
"""

from __future__ import annotations

import pytest

import repro.eqn.monolithic as monolithic
import repro.eqn.partitioned as partitioned
from repro.automata.automaton import Automaton
from repro.bench.suite import case_by_name
from repro.eqn.problem import build_latch_split_problem
from repro.eqn.subset import finish_expansion, subset_construct

CASES = ("s27", "count6", "johnson8", "rand10")

FLOWS = {
    "partitioned": (partitioned, partitioned.PartitionedOracle),
    "monolithic": (monolithic, monolithic.MonolithicOracle),
}


@pytest.mark.parametrize("trim", [True, False], ids=["trim", "notrim"])
@pytest.mark.parametrize("flow", sorted(FLOWS))
@pytest.mark.parametrize("name", CASES)
def test_dca_is_the_false_class_and_class_edges_never_merge(
    name, flow, trim, monkeypatch
) -> None:
    module, oracle_cls = FLOWS[flow]
    dcas: list[int] = []

    def checked_tail(oracle, p, q, split):
        edges, dca = finish_expansion(oracle, p, q, split)
        mgr = oracle.mgr
        want = mgr.apply_not(mgr.exists(p, list(oracle.rename.pairs)))
        if q is not None:
            want = mgr.apply_diff(want, q)
        assert dca == want
        dcas.append(dca)
        return edges, dca

    store = Automaton.add_class_edge

    def fresh_only(aut, src, dst, cond):
        assert 0 <= src < aut.num_states and 0 <= dst < aut.num_states
        assert dst not in aut.edges[src], "two classes of one ψ merged"
        return store(aut, src, dst, cond)

    monkeypatch.setattr(module, "finish_expansion", checked_tail)
    monkeypatch.setattr(Automaton, "add_class_edge", fresh_only)
    case = case_by_name(name)
    problem = build_latch_split_problem(case.network(), list(case.x_latches))
    _, stats = subset_construct(oracle_cls(problem, trim=trim), problem)
    assert len(dcas) == stats.subsets
    assert stats.edges > 0
