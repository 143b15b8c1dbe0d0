"""Language-equation problem instances (Section 2, Figure 1 topology).

An :class:`EquationProblem` packages everything both solver flows need:
one BDD manager with a deliberate global variable order, the partitioned
functions of the fixed component ``F`` — ``{T^F_j(i,v,cs1)}``,
``{U_j(i,v,cs1)}``, ``{O^F_j(i,v,cs1)}`` — and of the specification ``S``
— ``{T^S_j(i,cs2)}``, ``{O^S_j(i,cs2)}`` — plus the DC-completion flag
variable pair the monolithic flow needs.

Variable order (top to bottom)::

    i..., o..., u..., v...,        # letter variables
    (F.cs_k, F.ns_k)*,             # fixed component latches, interleaved
    (S.dc, S.dc'),                 # completion flag (monolithic flow)
    (S.cs_k, S.ns_k)*              # specification latches, interleaved

Letter variables above all state variables is a *requirement* of the
cofactor-splitting step of the subset construction.  It holds because
the letters are declared first and a manager's order is fixed once it
holds nodes; cs directly above its ns twin keeps the ns->cs
rename order-preserving (fast path).  The F block stacked above the S
block is the only product layout: a per-latch F/S interleaving changes
node counts, not the solved language, and measured no faster on any
committed row (see ``docs/partitioned-solve.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bdd.backends.protocol import BddBackend
from repro.eqn.config import SolveConfig
from repro.errors import EquationError
from repro.network.bddbuild import build_network_bdds
from repro.network.transform import LatchSplit, latch_split
from repro.network.netlist import Network


@dataclass
class EquationProblem:
    """All solver inputs for one ``F ∘ X ⊆ S`` instance."""

    manager: BddBackend
    split: LatchSplit
    # Letter variable names (alphabet groups), in declaration order.
    i_names: list[str]
    o_names: list[str]
    u_names: list[str]
    v_names: list[str]
    # Letter variable indices by name.
    i_vars: dict[str, int]
    o_vars: dict[str, int]
    u_vars: dict[str, int]
    v_vars: dict[str, int]
    # Fixed component F.
    f_cs_vars: dict[str, int]
    f_ns_vars: dict[str, int]
    f_next: dict[str, int] = field(default_factory=dict)  # latch -> T^F
    f_u: dict[str, int] = field(default_factory=dict)  # u wire -> U_j
    f_o: dict[str, int] = field(default_factory=dict)  # output -> O^F_j
    # Specification S.
    s_cs_vars: dict[str, int] = field(default_factory=dict)
    s_ns_vars: dict[str, int] = field(default_factory=dict)
    s_next: dict[str, int] = field(default_factory=dict)  # latch -> T^S
    s_o: dict[str, int] = field(default_factory=dict)  # output -> O^S_j
    # DC completion flag pair (monolithic flow).
    dc_var: int = -1
    dc_ns_var: int = -1
    # Initial product state cube over (F.cs, S.cs).
    init_cube: int = 1

    # -- derived helpers -------------------------------------------------- #

    def uv_names(self) -> list[str]:
        """Alphabet of the unknown component: u wires then v wires."""
        return self.u_names + self.v_names

    def uv_vars(self) -> list[int]:
        return [self.u_vars[n] for n in self.u_names] + [
            self.v_vars[n] for n in self.v_names
        ]

    def all_cs_vars(self) -> list[int]:
        """Product current-state variables (F then S), excluding DC."""
        return list(self.f_cs_vars.values()) + list(self.s_cs_vars.values())

    def all_ns_vars(self) -> list[int]:
        """Product next-state variables (F then S), excluding DC."""
        return list(self.f_ns_vars.values()) + list(self.s_ns_vars.values())

    def ns_to_cs(self) -> dict[int, int]:
        """Rename map ns -> cs over the product state space."""
        out = {
            self.f_ns_vars[name]: self.f_cs_vars[name] for name in self.f_ns_vars
        }
        out.update(
            {self.s_ns_vars[name]: self.s_cs_vars[name] for name in self.s_ns_vars}
        )
        return out

    def quantify_vars(self) -> list[int]:
        """Variables hidden by the subset-construction image: i and cs."""
        return [self.i_vars[n] for n in self.i_names] + self.all_cs_vars()

    def live_bdds(self) -> list[int]:
        """Every BDD the problem owns for its whole lifetime.

        These are pinned (``manager.ref``) by :func:`build_problem` so
        solver-driven garbage collections can never reclaim them: a
        problem is typically solved more than once (both flows, the
        verifier, implementation extraction), and each pass must find the
        function BDDs intact.
        """
        return (
            list(self.f_next.values())
            + list(self.f_u.values())
            + list(self.f_o.values())
            + list(self.s_next.values())
            + list(self.s_o.values())
            + [self.init_cube]
        )

    def conformance_parts(self) -> list[tuple[str, int]]:
        """Per-output conformance conditions C_j = [O^F_j ≡ O^S_j].

        Returned as (output name, BDD over (i, v, cs1, cs2)) pairs; the
        partitioned flow uses their complements one at a time
        ("the computation of Q can be done one output at a time").
        """
        mgr = self.manager
        out = []
        for name in self.o_names:
            out.append((name, mgr.apply_iff(self.f_o[name], self.s_o[name])))
        return out


def build_problem(
    split: LatchSplit,
    config: SolveConfig | None = None,
    *,
    max_nodes: int | None = None,
    **knobs,
) -> EquationProblem:
    """Build an :class:`EquationProblem` from a latch split.

    ``config`` with per-field keywords merged on top (see
    :class:`~repro.eqn.config.SolveConfig`) supplies the manager
    settings; the solve-time fields are ignored here.

    The manager runs the kernel's default GC trigger.  The letter
    variables are declared before the state variables, and a manager's
    order never moves once it holds nodes, so every letter sits above
    every state variable for the problem's whole lifetime — the
    requirement of the subset construction's cofactor splitting.

    ``backend`` selects the BDD kernel through
    :func:`repro.bdd.backends.create_manager` (``"python"`` — the
    reference — or a native adapter such as ``"buddy"``); every backend
    produces identical results, so this is purely a speed knob, and an
    unavailable native backend falls back to pure Python with a warning.
    """
    from repro.bdd.backends import create_manager

    config = SolveConfig.from_mapping(knobs, config)
    original = split.original
    fixed = split.fixed
    mgr = create_manager(
        config.backend,
        max_nodes=max_nodes,
    )

    # ---- declare letter variables (top of the order) ---- #
    i_names = list(original.inputs)
    o_names = list(original.outputs)
    u_names = list(split.u_names)
    v_names = list(split.v_names)
    seen: set[str] = set()
    for name in i_names + o_names + u_names + v_names:
        if name in seen:
            raise EquationError(f"letter variable collision: {name!r}")
        seen.add(name)
    i_vars = {n: mgr.add_var(n) for n in i_names}
    o_vars = {n: mgr.add_var(n) for n in o_names}
    u_vars = {n: mgr.add_var(n) for n in u_names}
    v_vars = {n: mgr.add_var(n) for n in v_names}

    # ---- state variables, interleaved cs/ns ---- #
    f_cs_vars: dict[str, int] = {}
    f_ns_vars: dict[str, int] = {}
    s_cs_vars: dict[str, int] = {}
    s_ns_vars: dict[str, int] = {}
    for name in fixed.latches:
        f_cs_vars[name] = mgr.add_var(f"F.{name}")
        f_ns_vars[name] = mgr.add_var(f"F.{name}'")
    dc_var = mgr.add_var("S.dc")
    dc_ns_var = mgr.add_var("S.dc'")
    for name in original.latches:
        s_cs_vars[name] = mgr.add_var(f"S.{name}")
        s_ns_vars[name] = mgr.add_var(f"S.{name}'")

    # ---- F functions over (i, v, cs1) ---- #
    f_inputs = {n: i_vars[n] for n in original.inputs}
    f_inputs.update({n: v_vars[n] for n in v_names})
    f_bdds = build_network_bdds(fixed, mgr, f_inputs, f_cs_vars)
    problem = EquationProblem(
        manager=mgr,
        split=split,
        i_names=i_names,
        o_names=o_names,
        u_names=u_names,
        v_names=v_names,
        i_vars=i_vars,
        o_vars=o_vars,
        u_vars=u_vars,
        v_vars=v_vars,
        f_cs_vars=f_cs_vars,
        f_ns_vars=f_ns_vars,
        s_cs_vars=s_cs_vars,
        s_ns_vars=s_ns_vars,
        dc_var=dc_var,
        dc_ns_var=dc_ns_var,
    )
    problem.f_next = dict(f_bdds.next_state)
    for wire in u_names:
        problem.f_u[wire] = f_bdds.outputs[wire]
    from repro.network.transform import v_wire  # local to avoid cycle

    for out in original.outputs:
        fixed_name = v_wire(out) if out in split.x_latches else out
        problem.f_o[out] = f_bdds.outputs[fixed_name]

    # ---- S functions over (i, cs2) ---- #
    s_bdds = build_network_bdds(original, mgr, dict(i_vars), s_cs_vars)
    problem.s_next = dict(s_bdds.next_state)
    problem.s_o = {out: s_bdds.outputs[out] for out in original.outputs}

    # ---- initial product state ---- #
    bindings = {
        f_cs_vars[name]: latch.init for name, latch in fixed.latches.items()
    }
    bindings.update(
        {s_cs_vars[name]: latch.init for name, latch in original.latches.items()}
    )
    problem.init_cube = mgr.cube(bindings)
    for bdd in problem.live_bdds():
        mgr.ref(bdd)
    return problem


def build_latch_split_problem(
    net: Network,
    x_latches,
    config: SolveConfig | None = None,
    *,
    u_signals=None,
    max_nodes: int | None = None,
    **knobs,
) -> EquationProblem:
    """Latch-split ``net`` and build the equation problem in one call."""
    split = latch_split(net, x_latches, u_signals=u_signals)
    return build_problem(split, config, max_nodes=max_nodes, **knobs)
