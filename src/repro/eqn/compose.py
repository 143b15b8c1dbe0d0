"""Compositional solving of decoupled latch splits.

Some splits decompose: the support graph of the partitioned functions
(latch transition functions, ``u`` communication functions, output
functions) falls apart into connected components that share **no**
variables — not even primary inputs.  Over such a split the product
machine is a synchronous product of independent machines, every subset
state ψ of the direct construction factors as ``Π_c ψ_c``, and the
direct solve spends its time tracking per-depth subsets of components
the unknown ``X`` cannot even observe.

:func:`plan_components` finds the decomposition (union-find over the
variable supports, with all ``(u, v)`` letters pre-merged — any two
components touching ``X``'s alphabet are correlated through ``X`` and
must stay together).  :func:`solve_compositional` then applies it under
a deliberately conservative gate:

* exactly one component carries the ``(u, v)`` letters, and
* every letter-free component *verifies* as conformant — a cheap
  reachability fixpoint over just that component's latches checks that
  ``F`` and ``S`` agree on its outputs in every reachable state.

Under that gate the letter-free components contribute nothing to the
non-conformance condition ``Q`` and nothing ``X`` can see to the image
``P``, so the letterful sub-equation's solution has exactly the
language of the direct solution — while skipping the per-depth subset
tracking of the letter-free latches entirely (*state counts* of the two
automata differ; the languages do not).  When the gate does not hold,
:func:`solve_compositional` returns ``None`` and the caller falls back
to the direct solve; composition never weakens soundness.

:func:`conjoin_solutions` is the general composition primitive
(synchronous product of solution automata); the gated flow above does
not need it — one component carries the whole alphabet — but callers
experimenting with multi-letterful decompositions can combine partial
solutions with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bdd.manager import FALSE
from repro.automata.automaton import Automaton
from repro.eqn.config import FIELD_NAMES, SolveConfig
from repro.eqn.problem import EquationProblem
from repro.obs.trace import span as obs_span
from repro.util.limits import ResourceLimit
from repro.util.timer import Stopwatch


@dataclass
class Component:
    """One connected component of the split's support graph."""

    f_latches: list[str] = field(default_factory=list)
    s_latches: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    letterful: bool = False

    @property
    def num_latches(self) -> int:
        return len(self.f_latches) + len(self.s_latches)


@dataclass
class ComposePlan:
    """A decomposition satisfying the compositional gate."""

    components: list[Component]
    letterful: Component

    @property
    def letterfree(self) -> list[Component]:
        return [c for c in self.components if not c.letterful]


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent
        root = parent.setdefault(x, x)
        while root != parent[root]:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, *items: int) -> None:
        it = iter(items)
        try:
            root = self.find(next(it))
        except StopIteration:
            return
        for x in it:
            self._parent[self.find(x)] = root


def plan_components(problem: EquationProblem) -> ComposePlan | None:
    """Decompose the split's support graph, or ``None`` if it is coupled.

    Components are equivalence classes of variables under "appears in
    the same function's support": each latch ties its ``cs``/``ns``
    pair to its transition function's support, each ``u`` wire ties its
    letter variable to its function's support, each output ties the
    supports of its two implementations (``O^F_j`` / ``O^S_j``)
    together.  All ``(u, v)`` letter variables are merged up front —
    components sharing only ``X``'s alphabet are still coupled, through
    ``X`` itself.

    Returns ``None`` (composition does not apply) when the graph is one
    component, when a letter variable ends up outside the single
    letterful class, when an output has F/S implementations in
    different classes, or when a constant output pair disagrees.
    """
    mgr = problem.manager
    uf = _UnionFind()
    uv = problem.uv_vars()
    if not uv:
        return None
    uf.union(*uv)
    anchor = uv[0]
    for name, fn in problem.f_next.items():
        uf.union(
            problem.f_cs_vars[name], problem.f_ns_vars[name], *mgr.support(fn)
        )
    for name, fn in problem.s_next.items():
        uf.union(
            problem.s_cs_vars[name], problem.s_ns_vars[name], *mgr.support(fn)
        )
    for name, fn in problem.f_u.items():
        uf.union(problem.u_vars[name], *mgr.support(fn))
    output_root: dict[str, int | None] = {}
    for name in problem.o_names:
        supp = sorted(mgr.support(problem.f_o[name]) | mgr.support(problem.s_o[name]))
        if not supp:
            # A stateless, letter-free constant pair: either it conforms
            # trivially or the equation is degenerate — direct solve.
            if problem.f_o[name] != problem.s_o[name]:
                return None
            output_root[name] = None
            continue
        uf.union(*supp)
        output_root[name] = supp[0]

    letterful_root = uf.find(anchor)
    by_root: dict[int, Component] = {}

    def component(root: int) -> Component:
        comp = by_root.get(root)
        if comp is None:
            comp = by_root[root] = Component(letterful=root == letterful_root)
        return comp

    for name in problem.f_cs_vars:
        component(uf.find(problem.f_cs_vars[name])).f_latches.append(name)
    for name in problem.s_cs_vars:
        component(uf.find(problem.s_cs_vars[name])).s_latches.append(name)
    for name, root in output_root.items():
        if root is not None:
            component(uf.find(root)).outputs.append(name)
    letterful = by_root.get(letterful_root)
    if letterful is None:
        return None
    components = list(by_root.values())
    # The gate: a strict decomposition with at least one stateful
    # letter-free component (otherwise there is nothing to skip).
    if not any(c.num_latches > 0 for c in components if not c.letterful):
        return None
    return ComposePlan(components=components, letterful=letterful)


def conforming_component(problem: EquationProblem, comp: Component) -> bool:
    """Verify a letter-free component: ``F`` and ``S`` agree everywhere.

    Runs a forward-reachability fixpoint over just this component's
    latches (its transition functions depend only on primary inputs and
    its own state, by construction of the decomposition) and checks
    that no reachable joint state falsifies any of the component's
    output-conformance conditions ``C_j = [O^F_j ≡ O^S_j]``.
    """
    from repro.symb.reach import reachable_states

    mgr = problem.manager
    cs_vars = [problem.f_cs_vars[n] for n in comp.f_latches] + [
        problem.s_cs_vars[n] for n in comp.s_latches
    ]
    ns_vars = [problem.f_ns_vars[n] for n in comp.f_latches] + [
        problem.s_ns_vars[n] for n in comp.s_latches
    ]
    parts = [
        mgr.apply_iff(mgr.var_node(problem.f_ns_vars[n]), problem.f_next[n])
        for n in comp.f_latches
    ] + [
        mgr.apply_iff(mgr.var_node(problem.s_ns_vars[n]), problem.s_next[n])
        for n in comp.s_latches
    ]
    foreign = [
        v for v in problem.all_cs_vars() if v not in set(cs_vars)
    ]
    init = mgr.exists(problem.init_cube, foreign) if foreign else problem.init_cube
    input_vars = [problem.i_vars[n] for n in problem.i_names]
    if cs_vars:
        reach = reachable_states(
            mgr, parts, init, cs_vars, ns_vars, input_vars
        ).states
    else:
        reach = init
    for name in comp.outputs:
        conf = mgr.apply_iff(problem.f_o[name], problem.s_o[name])
        if mgr.apply_and(reach, mgr.apply_not(conf)) != FALSE:
            return False
    return True


def subproblem(problem: EquationProblem, comp: Component) -> EquationProblem:
    """The letterful component's sub-equation, on the shared manager.

    A filtered :class:`~repro.eqn.problem.EquationProblem`: only the
    component's latches, transition functions and outputs survive; the
    full ``(u, v)`` alphabet carries over (the component holds every
    letter variable by the gate); the initial cube is projected onto
    the component's state variables.  The returned problem runs through
    the ordinary solver machinery unchanged — frontier strategies,
    batching, sharding and residency budgets all apply.
    """
    mgr = problem.manager
    f_latches = set(comp.f_latches)
    s_latches = set(comp.s_latches)
    outputs = set(comp.outputs)
    keep_cs = {problem.f_cs_vars[n] for n in comp.f_latches} | {
        problem.s_cs_vars[n] for n in comp.s_latches
    }
    foreign = [v for v in problem.all_cs_vars() if v not in keep_cs]
    init = mgr.exists(problem.init_cube, foreign) if foreign else problem.init_cube
    sub = EquationProblem(
        manager=mgr,
        split=problem.split,
        i_names=list(problem.i_names),
        o_names=[n for n in problem.o_names if n in outputs],
        u_names=list(problem.u_names),
        v_names=list(problem.v_names),
        i_vars=dict(problem.i_vars),
        o_vars={n: problem.o_vars[n] for n in problem.o_names if n in outputs},
        u_vars=dict(problem.u_vars),
        v_vars=dict(problem.v_vars),
        f_cs_vars={n: problem.f_cs_vars[n] for n in problem.f_cs_vars if n in f_latches},
        f_ns_vars={n: problem.f_ns_vars[n] for n in problem.f_ns_vars if n in f_latches},
        s_cs_vars={n: problem.s_cs_vars[n] for n in problem.s_cs_vars if n in s_latches},
        s_ns_vars={n: problem.s_ns_vars[n] for n in problem.s_ns_vars if n in s_latches},
        dc_var=problem.dc_var,
        dc_ns_var=problem.dc_ns_var,
        init_cube=init,
    )
    sub.f_next = {n: problem.f_next[n] for n in problem.f_next if n in f_latches}
    sub.f_u = dict(problem.f_u)
    sub.f_o = {n: problem.f_o[n] for n in problem.o_names if n in outputs}
    sub.s_next = {n: problem.s_next[n] for n in problem.s_next if n in s_latches}
    sub.s_o = {n: problem.s_o[n] for n in problem.o_names if n in outputs}
    return sub


def conjoin_solutions(solutions: list[Automaton]) -> Automaton:
    """Synchronous product of solution automata (shared manager).

    The compositional principle in its general form: when an equation
    factors into independent sub-equations, the conjunction of their
    most general solutions solves the whole.  Labels conjoin exactly
    (:func:`repro.automata.ops.product`), so automata over different
    letter supports compose as in the paper.
    """
    from repro.automata.ops import product

    if not solutions:
        raise ValueError("conjoin_solutions needs at least one automaton")
    result = solutions[0]
    for aut in solutions[1:]:
        result = product(result, aut)
    return result


def solve_compositional(
    problem: EquationProblem,
    config: SolveConfig | None = None,
    *,
    limit: ResourceLimit | None = None,
    **kwargs,
):
    """Solve ``problem`` compositionally, or ``None`` when the gate fails.

    See the module docstring for the gate.  ``config`` and per-field
    keywords (see :class:`~repro.eqn.config.SolveConfig`) drive the
    partitioned solve of the letterful sub-equation; every other keyword
    is a per-call hook forwarded to
    :func:`~repro.eqn.solver.solve_equation`.  On success,
    returns a :class:`~repro.eqn.solver.SolveResult` whose solution has
    exactly the language of the direct solve (state counts differ —
    that is the point), carrying the original problem, ``compose: True``
    options and the ``compose_*`` counters in ``stats``.
    """
    from repro.eqn.solver import SolveResult, solve_equation

    knobs = {name: kwargs.pop(name) for name in FIELD_NAMES if name in kwargs}
    config = SolveConfig.from_mapping(knobs, config)
    watch = Stopwatch()
    with obs_span("compose_plan") as plan_span:
        plan = plan_components(problem)
        if plan is None:
            plan_span.set(components=1, applied=False)
            return None
        mgr = problem.manager
        verified = 0
        for comp in plan.letterfree:
            with obs_span(
                "compose_verify", latches=comp.num_latches
            ) as verify_span:
                ok = conforming_component(problem, comp)
                verify_span.set(conforming=ok)
            if not ok:
                # A non-conforming letter-free component couples the
                # whole Q condition — only the direct solve is exact.
                return None
            verified += 1
        plan_span.set(components=len(plan.components), applied=True)
    sub = subproblem(problem, plan.letterful)
    mgr.ref(sub.init_cube)
    try:
        result = solve_equation(
            sub, replace(config, compose=False), limit=limit, **kwargs
        )
    finally:
        mgr.deref(sub.init_cube)
    stats = result.stats
    if stats is not None:
        stats.compose_components = len(plan.components)
        stats.compose_verified_components = verified
        stats.compose_skipped_latches = sum(
            c.num_latches for c in plan.letterfree
        )
        stats.compose_solved_latches = plan.letterful.num_latches
    options = dict(result.options)
    options["compose"] = True
    return SolveResult(
        problem=problem,
        method=result.method,
        solution=result.solution,
        csf=result.csf,
        seconds=watch.elapsed(),
        stats=stats,
        options=options,
    )
