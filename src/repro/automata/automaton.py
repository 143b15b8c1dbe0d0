"""Finite automata with symbolic (BDD) edge labels.

States are explicit (integer ids with names); transition labels are BDDs
over a tuple of Boolean *alphabet variables*, exactly like the automata
manipulated by BALM/MVSIS: a single edge ``s --c--> t`` stands for all
letters (assignments to the alphabet variables) satisfying ``c``.

This hybrid representation is what the paper's computations produce: the
subset construction enumerates subset states explicitly while everything
per-transition stays symbolic.

A letter over variables ``(x, y)`` is a dict ``{"x": 0, "y": 1}`` or a
tuple aligned with :attr:`Automaton.variables`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.errors import AutomatonError


@dataclass
class Automaton:
    """An automaton over an alphabet of Boolean variables.

    Attributes
    ----------
    manager:
        BDD manager holding the edge-label functions.
    variables:
        Ordered alphabet variable names (must be declared in ``manager``).
    state_names:
        Name per state id.
    accepting:
        Set of accepting state ids.
    initial:
        Initial state id (``None`` for the empty automaton).
    edges:
        ``edges[s]`` maps destination id -> label BDD (conditions to the
        same destination are merged by OR).
    """

    manager: BddManager
    variables: tuple[str, ...]
    state_names: list[str] = field(default_factory=list)
    accepting: set[int] = field(default_factory=set)
    initial: int | None = None
    edges: list[dict[int, int]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def __post_init__(self) -> None:
        declared = set(self.manager.var_order())
        missing = [v for v in self.variables if v not in declared]
        if missing:
            raise AutomatonError(f"alphabet variables not declared: {missing}")

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    def add_state(self, name: str | None = None, *, accepting: bool = True) -> int:
        """Add a state; returns its id.  The first state becomes initial."""
        sid = len(self.state_names)
        self.state_names.append(name if name is not None else f"s{sid}")
        self.edges.append({})
        if accepting:
            self.accepting.add(sid)
        if self.initial is None:
            self.initial = sid
        return sid

    def add_edge(self, src: int, dst: int, cond: int) -> None:
        """Add (merge) an edge labelled with BDD ``cond``."""
        if cond == FALSE:
            return
        self._check_state(src)
        self._check_state(dst)
        mgr = self.manager
        bucket = self.edges[src]
        old = bucket.get(dst, FALSE)
        bucket[dst] = mgr.apply_or(old, cond)

    def add_class_edge(self, src: int, dst: int, cond: int) -> int:
        """:meth:`add_edge` for a builder that only passes valid state
        ids; returns the stored label.

        One bucket write, with no id checks: the subset construction
        stores every (u,v)-class of ψ this way.  A ψ's classes have
        distinct leaves and the ``ns → cs`` rename is injective, so they
        never merge; an edge ``src → dst`` that does exist already is
        still merged by OR.
        """
        if cond == FALSE:
            return FALSE
        bucket = self.edges[src]
        old = bucket.get(dst)
        if old is not None:
            cond = self.manager.apply_or(old, cond)
        bucket[dst] = cond
        return cond

    def add_letter_edge(self, src: int, dst: int, letter: Mapping[str, int]) -> None:
        """Add an edge for one concrete letter (or partial cube)."""
        self.add_edge(src, dst, self.letter_cube(letter))

    def letter_cube(self, letter: Mapping[str, int]) -> int:
        """Cube BDD of a (possibly partial) letter assignment."""
        unknown = set(letter) - set(self.variables)
        if unknown:
            raise AutomatonError(f"letter uses non-alphabet variables: {sorted(unknown)}")
        mgr = self.manager
        return mgr.cube(
            {mgr.var_index(name): value for name, value in letter.items()}
        )

    def _check_state(self, sid: int) -> None:
        if not 0 <= sid < self.num_states:
            raise AutomatonError(f"state id {sid} out of range")

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def variable_indices(self) -> list[int]:
        """Manager variable indices of the alphabet, in alphabet order."""
        return [self.manager.var_index(name) for name in self.variables]

    def defined_cond(self, sid: int) -> int:
        """BDD of the letters with at least one transition from ``sid``."""
        mgr = self.manager
        cond = FALSE
        for label in self.edges[sid].values():
            cond = mgr.apply_or(cond, label)
            if cond == TRUE:
                break
        return cond

    def is_complete(self) -> bool:
        """Whether every state has a transition for every letter."""
        return all(self.defined_cond(s) == TRUE for s in range(self.num_states))

    def is_deterministic(self) -> bool:
        """Whether labels to distinct destinations are pairwise disjoint."""
        mgr = self.manager
        for bucket in self.edges:
            labels = list(bucket.values())
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    if mgr.apply_and(labels[i], labels[j]) != FALSE:
                        return False
        return True

    def validate(self) -> None:
        """Check structural invariants; raises :class:`AutomatonError`."""
        allowed = set(self.variable_indices())
        mgr = self.manager
        if self.initial is not None:
            self._check_state(self.initial)
        for sid, bucket in enumerate(self.edges):
            for dst, label in bucket.items():
                self._check_state(dst)
                extra = mgr.support(label) - allowed
                if extra:
                    names = sorted(mgr.var_name(v) for v in extra)
                    raise AutomatonError(
                        f"edge {sid}->{dst} label depends on non-alphabet vars {names}"
                    )

    def successors(self, sid: int, letter: Mapping[str, int]) -> list[int]:
        """Destinations reachable from ``sid`` under a full letter."""
        mgr = self.manager
        env = dict(letter)
        return [
            dst
            for dst, label in self.edges[sid].items()
            if mgr.eval(label, env)
        ]

    def reachable_states(self, within: Collection[int] | None = None) -> list[int]:
        """Ids reachable from the initial state (BFS order).

        With ``within``, only paths through those states count (empty
        when the initial state is outside it).
        """
        if self.initial is None or (within is not None and self.initial not in within):
            return []
        seen = [self.initial]
        seen_set = {self.initial}
        queue = deque(seen)
        while queue:
            sid = queue.popleft()
            for dst, label in self.edges[sid].items():
                if (
                    label != FALSE
                    and dst not in seen_set
                    and (within is None or dst in within)
                ):
                    seen_set.add(dst)
                    seen.append(dst)
                    queue.append(dst)
        return seen

    def restricted(self, keep: Sequence[int]) -> "Automaton":
        """Sub-automaton on the states ``keep``, renumbered in that order.

        Names, acceptance and each bucket's edge order carry over; edges
        leaving ``keep`` and FALSE labels are dropped, and the initial
        state becomes ``None`` when it is not kept.  Renumbering is a
        bijection, so no two edges merge and every label is shared, not
        rebuilt.
        """
        remap = {old: new for new, old in enumerate(keep)}
        result = Automaton(self.manager, self.variables)
        result.state_names = [self.state_names[old] for old in keep]
        result.accepting = {remap[old] for old in keep if old in self.accepting}
        result.initial = remap.get(self.initial)  # type: ignore[arg-type]
        result.edges = [
            {
                remap[dst]: label
                for dst, label in self.edges[old].items()
                if dst in remap and label != FALSE
            }
            for old in keep
        ]
        return result

    def trim(self) -> "Automaton":
        """Restrict to states reachable from the initial state."""
        return self.restricted(self.reachable_states())

    def copy(self) -> "Automaton":
        """Structural copy sharing the manager."""
        dup = Automaton(self.manager, self.variables)
        dup.state_names = list(self.state_names)
        dup.accepting = set(self.accepting)
        dup.initial = self.initial
        dup.edges = [dict(bucket) for bucket in self.edges]
        return dup

    def num_edges(self) -> int:
        """Number of (merged) symbolic edges."""
        return sum(len(bucket) for bucket in self.edges)

    def letters(self) -> Iterable[tuple[int, ...]]:
        """All concrete letters of the alphabet (exponential; tests only)."""
        import itertools

        yield from itertools.product((0, 1), repeat=len(self.variables))

    def letter_dict(self, letter: Sequence[int]) -> dict[str, int]:
        """Tuple letter -> named assignment."""
        return dict(zip(self.variables, letter))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Automaton states={self.num_states} edges={self.num_edges()} "
            f"vars={','.join(self.variables)}>"
        )


def empty_automaton(
    manager: BddManager, variables: Sequence[str], *, name: str = "empty"
) -> Automaton:
    """An automaton accepting the empty language (one dead state)."""
    aut = Automaton(manager, tuple(variables))
    aut.add_state(name, accepting=False)
    return aut
