"""The baseline flow: monolithic transition-output relations.

This is the comparison implementation of the paper's Table 1: "the
completion of S is done first, then the intermediate product is derived,
followed by hiding and determinization, performed in a traditional way."

Concretely the oracle materialises, as single BDDs:

* ``TO^F(i,v,u,o,cs1,ns1) = Π(ns≡T^F) ∧ Π(u≡U) ∧ Π(o≡O^F)``
* ``TO^S(i,o,cs2,ns2)   = Π(ns≡T^S) ∧ Π(o≡O^S)``
* the *completed* ``TO^S'`` with an explicit DC1 state.  As the paper
  notes, an unreachable state code cannot encode DC1 (unreachable states
  still have next states), so a fresh flag variable ``S.dc`` is used.
* the product ``TO^P = TO^F ∧ TO^S'`` and the *hidden* relation
  ``TS(u,v,cs,ns) = ∃i,o TO^P`` — the monolithic quantification that
  dominates the cost of this flow.

Complementation of the (deterministic) completed ``S`` is the acceptance
flip tracked by the subset driver: product states with ``S.dc = 1`` are
the accepting states of ``F × complement(S)``, and subsets containing one
are trimmed to DCN exactly as in the partitioned flow.
"""

from __future__ import annotations

from repro.bdd.cube import split_by_vars
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.eqn.problem import EquationProblem
from repro.eqn.subset import SubsetEdge, expand_batch_pinned, finish_expansion


class MonolithicOracle:
    """Transition oracle computing on monolithic relations."""

    def __init__(self, problem: EquationProblem, *, trim: bool = True) -> None:
        self.problem = problem
        self.trim = trim
        mgr: BddManager = problem.manager
        self.mgr = mgr

        # ---- monolithic TO^F ---- #
        to_f = TRUE
        for name in problem.f_ns_vars:
            to_f = mgr.apply_and(
                to_f,
                mgr.apply_iff(
                    mgr.var_node(problem.f_ns_vars[name]), problem.f_next[name]
                ),
            )
        for name in problem.u_names:
            to_f = mgr.apply_and(
                to_f,
                mgr.apply_iff(mgr.var_node(problem.u_vars[name]), problem.f_u[name]),
            )
        for name in problem.o_names:
            to_f = mgr.apply_and(
                to_f,
                mgr.apply_iff(mgr.var_node(problem.o_vars[name]), problem.f_o[name]),
            )

        # ---- monolithic TO^S ---- #
        to_s = TRUE
        for name in problem.s_ns_vars:
            to_s = mgr.apply_and(
                to_s,
                mgr.apply_iff(
                    mgr.var_node(problem.s_ns_vars[name]), problem.s_next[name]
                ),
            )
        for name in problem.o_names:
            to_s = mgr.apply_and(
                to_s,
                mgr.apply_iff(mgr.var_node(problem.o_vars[name]), problem.s_o[name]),
            )

        # ---- complete S: direct undefined (i,o) to the DC1 state ---- #
        dc = mgr.var_node(problem.dc_var)
        dc_next = mgr.var_node(problem.dc_ns_var)
        s_ns = list(problem.s_ns_vars.values())
        undefined = mgr.apply_not(mgr.exists(to_s, s_ns))  # A(i,o,cs2)
        dc_code = mgr.cube({v: 0 for v in s_ns})  # DC1 = (dc=1, ns2=0…0)
        to_s_completed = mgr.apply_or(
            mgr.apply_and(
                mgr.apply_and(mgr.apply_not(dc), to_s), mgr.apply_not(dc_next)
            ),
            mgr.apply_and(
                mgr.apply_or(dc, undefined), mgr.apply_and(dc_next, dc_code)
            ),
        )
        # ---- product and hiding (the monolithic bottleneck) ---- #
        product = mgr.apply_and(to_f, to_s_completed)
        hide = [problem.i_vars[n] for n in problem.i_names] + [
            problem.o_vars[n] for n in problem.o_names
        ]
        self.ts = mgr.exists(product, hide)  # TS(u, v, cs, ns)

        self.cs_vars = problem.all_cs_vars() + [problem.dc_var]
        self.ns_vars = problem.all_ns_vars() + [problem.dc_ns_var]
        # Interned quantification sets: every expansion quantifies the
        # same cs/ns blocks, so the per-call level sort/intern pass is
        # paid once (and revalidated lazily across dynamic reordering).
        self.cs_qs = mgr.quant_set(self.cs_vars)
        self.ns_qs = mgr.quant_set(self.ns_vars)
        self.rename = dict(problem.ns_to_cs())
        self.rename[problem.dc_ns_var] = problem.dc_var
        self.uv_vars = problem.uv_vars()
        self.init_cube = mgr.apply_and(
            problem.init_cube, mgr.apply_not(mgr.var_node(problem.dc_var))
        )

    # ------------------------------------------------------------------ #

    def live_roots(self) -> list[int]:
        """Every BDD the oracle reuses across expansions (GC roots).

        Only the hidden relation ``TS`` and the initial cube are read
        after construction; the (large) intermediate ``TO^F`` and
        completed ``TO^S`` are deliberately *not* kept, so the first
        collection can reclaim them.  ``TS`` being pinned also means a
        GC-triggered in-place sift (``--reorder auto``) keeps its edge
        valid while shrinking it — the monolithic flow's best defence
        against a bad initial order.
        """
        return [self.ts, self.init_cube]

    def initial(self) -> int:
        return self.init_cube

    def is_accepting(self, psi: int) -> bool:
        """Accepting in X unless ψ contains a DC1 product state."""
        dc = self.mgr.var_node(self.problem.dc_var)
        return self.mgr.apply_and(psi, dc) == FALSE

    def expand(self, psi: int) -> tuple[list[SubsetEdge], int]:
        """Single-item adapter over :meth:`expand_batch`."""
        return self.expand_batch([psi])[0]

    def expand_batch(
        self, psis: list[int]
    ) -> list[tuple[list[SubsetEdge], int]]:
        """Expand a frontier batch against the hidden relation.

        The monolithic flow has no cross-subset work to share — each
        expansion is one fused ``and_exists`` against ``TS`` — so the
        batch is the shared pinned loop, safe under opportunistic
        collection however the kernel evolves.
        """
        return expand_batch_pinned(self.mgr, psis, self._expand_one)

    def _expand_one(self, psi: int) -> tuple[list[SubsetEdge], int]:
        mgr = self.mgr
        # P_ψ(u,v,ns) = ∃cs [ TS ∧ ψ ] — one fused and_exists against the
        # hidden relation; the kernel's short-circuiting core quantifies
        # on the fly.
        p = mgr.and_exists(psi, self.ts, self.cs_qs)
        q = None
        if self.trim:
            # Q_ψ: classes leading into a DC1-flagged successor.
            dc_next = mgr.var_node(self.problem.dc_ns_var)
            q = mgr.exists(mgr.apply_and(p, dc_next), self.ns_qs)
        return finish_expansion(self, p, q, split_by_vars)
