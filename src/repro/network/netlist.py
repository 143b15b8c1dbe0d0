"""Multi-level sequential networks (Figure 2 of the paper).

A :class:`Network` is the paper's "multi-level network with latches":
primary inputs ``i``, primary outputs ``o``, latches with current-state
variables ``cs`` (the latch output signals) and next-state variables
``ns`` (the latch driver signals), and a DAG of combinational nodes.
Each combinational node computes a Boolean expression of other signals.

The network is the *source representation* from which both the
partitioned BDDs ``{T_k(i,cs)}, {O_j(i,cs)}`` and the explicit automaton
(STG) are derived.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import NetworkError
from repro.expr.ast import Const, Expr, Var, substitute


@dataclass(frozen=True)
class Latch:
    """A D-latch: ``output`` holds the state, ``driver`` is the NS function.

    ``output`` is the current-state signal readable by the logic; the
    next state is the value of signal ``driver`` at the end of the cycle.
    """

    output: str
    driver: str
    init: int = 0

    def __post_init__(self) -> None:
        if self.init not in (0, 1):
            raise NetworkError(f"latch {self.output!r}: init must be 0 or 1")


@dataclass
class Node:
    """A combinational node: signal ``name`` computes ``expr``."""

    name: str
    expr: Expr


@dataclass
class Network:
    """A multi-level sequential network.

    Use :meth:`add_input`, :meth:`add_output`, :meth:`add_latch` and
    :meth:`add_node` to build a network, then :meth:`validate` (called
    automatically by the consumers of networks).

    Signals are strings; a signal is *driven* by being an input, a latch
    output, or a node.  Outputs name driven signals.
    """

    name: str = "network"
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    latches: dict[str, Latch] = field(default_factory=dict)
    nodes: dict[str, Node] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_input(self, name: str) -> str:
        """Declare a primary input signal."""
        self._check_fresh(name)
        self.inputs.append(name)
        return name

    def add_output(self, name: str) -> str:
        """Declare a primary output (must name a driven signal by validate time)."""
        if name in self.outputs:
            raise NetworkError(f"duplicate output {name!r}")
        self.outputs.append(name)
        return name

    def add_latch(self, output: str, driver: str, init: int = 0) -> Latch:
        """Add a latch whose state appears on signal ``output``."""
        self._check_fresh(output)
        latch = Latch(output=output, driver=driver, init=init)
        self.latches[output] = latch
        return latch

    def add_node(self, name: str, expr: Expr | str) -> Node:
        """Add a combinational node; ``expr`` may be AST or parseable text."""
        from repro.expr.parser import parse_expr  # local import to avoid cycle

        self._check_fresh(name)
        if isinstance(expr, str):
            expr = parse_expr(expr)
        node = Node(name=name, expr=expr)
        self.nodes[name] = node
        return node

    def _check_fresh(self, name: str) -> None:
        if name in self.nodes or name in self.latches or name in self.inputs:
            raise NetworkError(f"signal {name!r} already driven")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def latch_names(self) -> list[str]:
        """Latch output signal names, in insertion order."""
        return list(self.latches)

    def driven_signals(self) -> set[str]:
        """All signals that have a driver."""
        return set(self.inputs) | set(self.latches) | set(self.nodes)

    def initial_state(self) -> dict[str, int]:
        """Latch output -> initial value."""
        return {name: latch.init for name, latch in self.latches.items()}

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @property
    def num_latches(self) -> int:
        return len(self.latches)

    def stats(self) -> str:
        """The paper's ``i/o/cs`` summary string."""
        return f"{self.num_inputs}/{self.num_outputs}/{self.num_latches}"

    # ------------------------------------------------------------------ #
    # Validation and topological order
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check structural sanity; raises :class:`NetworkError`."""
        driven = self.driven_signals()
        for out in self.outputs:
            if out not in driven:
                raise NetworkError(f"output {out!r} is not driven")
        for latch in self.latches.values():
            if latch.driver not in driven:
                raise NetworkError(
                    f"latch {latch.output!r} driver {latch.driver!r} is not driven"
                )
        for node in self.nodes.values():
            for dep in node.expr.variables():
                if dep not in driven:
                    raise NetworkError(f"node {node.name!r} reads undriven {dep!r}")
        self.topo_order()  # raises on combinational cycles

    def topo_order(self) -> list[str]:
        """Topological order of combinational nodes (latches break cycles)."""
        order: list[str] = []
        state: dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(name: str, chain: list[str]) -> None:
            if name not in self.nodes:
                return  # inputs and latch outputs are sources
            mark = state.get(name)
            if mark == 1:
                return
            if mark == 0:
                cycle = " -> ".join(chain + [name])
                raise NetworkError(f"combinational cycle: {cycle}")
            state[name] = 0
            for dep in sorted(self.nodes[name].expr.variables()):
                visit(dep, chain + [name])
            state[name] = 1
            order.append(name)

        for name in self.nodes:
            visit(name, [])
        return order

    # ------------------------------------------------------------------ #
    # Evaluation / simulation
    # ------------------------------------------------------------------ #

    def eval_comb(self, env: Mapping[str, int]) -> dict[str, int]:
        """Evaluate all combinational nodes given inputs and latch states.

        ``env`` must assign every primary input and every latch output.
        Returns a full signal valuation (inputs, states and nodes).
        """
        values: dict[str, int] = {}
        for name in self.inputs:
            values[name] = int(bool(env[name]))
        for name in self.latches:
            values[name] = int(bool(env[name]))
        for name in self.topo_order():
            values[name] = int(self.nodes[name].expr.evaluate(values))
        return values

    def step(
        self, state: Mapping[str, int], inputs: Mapping[str, int]
    ) -> tuple[dict[str, int], dict[str, int]]:
        """One synchronous step: returns ``(outputs, next_state)``."""
        values = self.eval_comb({**inputs, **state})
        outputs = {o: values[o] for o in self.outputs}
        next_state = {
            name: values[latch.driver] for name, latch in self.latches.items()
        }
        return outputs, next_state

    def simulate(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        *,
        state: Mapping[str, int] | None = None,
    ) -> list[dict[str, int]]:
        """Run a cycle-accurate simulation; returns the output per cycle."""
        current = dict(self.initial_state() if state is None else state)
        trace: list[dict[str, int]] = []
        for step_inputs in input_sequence:
            outputs, current = self.step(current, step_inputs)
            trace.append(outputs)
        return trace

    # ------------------------------------------------------------------ #
    # Surgery
    # ------------------------------------------------------------------ #

    def copy(self, *, name: str | None = None) -> "Network":
        """Deep-enough copy (expressions are immutable)."""
        return Network(
            name=name or self.name,
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            latches=dict(self.latches),
            nodes={k: Node(v.name, v.expr) for k, v in self.nodes.items()},
        )

    def rename_signals(self, mapping: Mapping[str, str]) -> "Network":
        """Return a copy with signals renamed everywhere (drivers and uses)."""

        def ren(s: str) -> str:
            return mapping.get(s, s)

        net = Network(name=self.name)
        net.inputs = [ren(s) for s in self.inputs]
        net.outputs = [ren(s) for s in self.outputs]
        net.latches = {
            ren(l.output): Latch(ren(l.output), ren(l.driver), l.init)
            for l in self.latches.values()
        }
        net.nodes = {
            ren(n.name): Node(ren(n.name), substitute(n.expr, dict(mapping)))
            for n in self.nodes.values()
        }
        return net

    def node_function(self, signal: str) -> Expr:
        """Expression of a signal: Var for inputs/latches, expr for nodes."""
        if signal in self.nodes:
            return self.nodes[signal].expr
        if signal in self.inputs or signal in self.latches:
            return Var(signal)
        raise NetworkError(f"signal {signal!r} is not driven")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network {self.name!r} i/o/cs={self.stats()} "
            f"nodes={len(self.nodes)}>"
        )


def flatten_expr(net: Network, signal: str, stop: Iterable[str]) -> Expr:
    """Expression of ``signal`` flattened down to the ``stop`` signals.

    Recursively inlines node expressions until only signals in ``stop``
    (typically inputs and latch outputs) remain.  Used to express latch
    next-state and output functions directly over ``(i, cs)``.
    """
    stop_set = set(stop)
    memo: dict[str, Expr] = {}

    def rec(name: str) -> Expr:
        if name in stop_set:
            return Var(name)
        cached = memo.get(name)
        if cached is not None:
            return cached
        if name in self_nodes:
            expr = self_nodes[name].expr
            mapping = {dep: rec(dep) for dep in expr.variables()}
            result = _substitute_exprs(expr, mapping)
        elif name in net.inputs or name in net.latches:
            result = Var(name)
        else:
            raise NetworkError(f"signal {name!r} is not driven")
        memo[name] = result
        return result

    self_nodes = net.nodes
    return rec(signal)


def _substitute_exprs(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Substitute whole expressions for variables."""
    from repro.expr.ast import And, Not, Or, Xor

    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Not):
        return Not(_substitute_exprs(expr.arg, mapping))
    if isinstance(expr, And):
        return And(tuple(_substitute_exprs(a, mapping) for a in expr.args))
    if isinstance(expr, Or):
        return Or(tuple(_substitute_exprs(a, mapping) for a in expr.args))
    if isinstance(expr, Xor):
        return Xor(tuple(_substitute_exprs(a, mapping) for a in expr.args))
    raise TypeError(f"unknown expression node: {expr!r}")
