"""Automaton operations for language-equation solving (Section 3).

These are the literal operations of the paper's Algorithm 1 —
``Support``, ``Complete``, ``Determinize``, ``Complement``, ``Product``,
``PrefixClose``, ``Progressive`` — implemented on explicit-state automata
with symbolic edge labels.  The symbolic solver flows reimplement the
performance-critical composition of these steps; this module is the
readable reference that the cross-validation tests compare against.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Iterator

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.errors import AutomatonError
from repro.automata.automaton import Automaton, empty_automaton


def complete(aut: Automaton, *, dc_name: str = "DC") -> Automaton:
    """Add a non-accepting DC state catching all undefined letters.

    The DC state has a universal self-loop (prefix-closedness, Section 2).
    Returns the input unchanged (a copy) when already complete.
    """
    result = aut.copy()
    mgr = result.manager
    undefined = {
        sid: mgr.apply_not(result.defined_cond(sid))
        for sid in range(result.num_states)
    }
    if all(cond == FALSE for cond in undefined.values()):
        return result
    dc = result.add_state(dc_name, accepting=False)
    for sid, cond in undefined.items():
        result.add_edge(sid, dc, cond)
    result.add_edge(dc, dc, TRUE)
    return result


def complement(aut: Automaton) -> Automaton:
    """Complement a deterministic complete automaton (swap acceptance)."""
    if not aut.is_complete():
        raise AutomatonError("complement requires a complete automaton")
    if not aut.is_deterministic():
        raise AutomatonError("complement requires a deterministic automaton")
    result = aut.copy()
    result.accepting = set(range(result.num_states)) - aut.accepting
    return result


def split_regions(
    mgr: BddManager, targets: Sequence[tuple[int, int]]
) -> Iterator[tuple[frozenset[int], int]]:
    """Enumerate the atoms of a family of labelled conditions.

    Given ``targets`` as (destination, condition) pairs, yield
    ``(subset_of_destinations, region)`` for every non-empty region of the
    letter space, where ``region`` is the set of letters going exactly to
    that subset of destinations.  Letters with no destination are skipped.
    """

    def rec(idx: int, cond: int, members: tuple[int, ...]) -> Iterator[tuple[frozenset[int], int]]:
        if cond == FALSE:
            return
        if idx == len(targets):
            if members:
                yield frozenset(members), cond
            return
        dst, label = targets[idx]
        yield from rec(idx + 1, mgr.apply_and(cond, label), members + (dst,))
        yield from rec(idx + 1, mgr.apply_diff(cond, label), members)

    yield from rec(0, TRUE, ())


def determinize(
    aut: Automaton,
    *,
    name_subset: Callable[[frozenset[int]], str] | None = None,
) -> Automaton:
    """Subset construction.

    A subset state is accepting iff it contains an accepting state.  The
    result is deterministic but in general *not* complete (letters with
    no successor stay undefined, as in the paper where completion is a
    separate, commuting step).
    """
    if aut.initial is None:
        return empty_automaton(aut.manager, aut.variables)
    mgr = aut.manager

    def default_name(subset: frozenset[int]) -> str:
        return "{" + ",".join(sorted(aut.state_names[s] for s in subset)) + "}"

    namer = name_subset or default_name
    result = Automaton(mgr, aut.variables)
    first = frozenset({aut.initial})
    ids: dict[frozenset[int], int] = {}

    def subset_id(subset: frozenset[int]) -> int:
        sid = ids.get(subset)
        if sid is None:
            sid = result.add_state(
                namer(subset), accepting=bool(subset & aut.accepting)
            )
            ids[subset] = sid
            queue.append(subset)
        return sid

    queue: list[frozenset[int]] = []
    subset_id(first)
    while queue:
        subset = queue.pop(0)
        src = ids[subset]
        merged: dict[int, int] = {}
        for member in subset:
            for dst, label in aut.edges[member].items():
                merged[dst] = mgr.apply_or(merged.get(dst, FALSE), label)
        for dests, region in split_regions(mgr, sorted(merged.items())):
            result.add_edge(src, subset_id(dests), region)
    return result


def product(a: Automaton, b: Automaton) -> Automaton:
    """Synchronous product over the union of the two alphabets.

    Both automata must share a manager.  Labels are conjoined; since a
    label not mentioning a variable is independent of it, automata over
    different supports compose exactly as in the paper ("having the same
    support simply means that each function is considered as a function
    of the full set of variables").  A product state is accepting iff
    both components are accepting.
    """
    if a.manager is not b.manager:
        raise AutomatonError("product requires a shared BDD manager")
    mgr = a.manager
    union_vars = tuple(
        sorted(set(a.variables) | set(b.variables), key=mgr.var_index)
    )
    if a.initial is None or b.initial is None:
        return empty_automaton(mgr, union_vars)
    result = Automaton(mgr, union_vars)
    ids: dict[tuple[int, int], int] = {}
    queue: list[tuple[int, int]] = []

    def pair_id(pair: tuple[int, int]) -> int:
        sid = ids.get(pair)
        if sid is None:
            sa, sb = pair
            sid = result.add_state(
                f"({a.state_names[sa]},{b.state_names[sb]})",
                accepting=sa in a.accepting and sb in b.accepting,
            )
            ids[pair] = sid
            queue.append(pair)
        return sid

    pair_id((a.initial, b.initial))
    while queue:
        pair = queue.pop(0)
        sa, sb = pair
        src = ids[pair]
        for da, la in a.edges[sa].items():
            for db, lb in b.edges[sb].items():
                cond = mgr.apply_and(la, lb)
                if cond != FALSE:
                    result.add_edge(src, pair_id((da, db)), cond)
    return result


def support(aut: Automaton, new_variables: Sequence[str]) -> Automaton:
    """Change the alphabet to ``new_variables`` (paper's ``Support``).

    Variables added (expansion) leave labels untouched — the automaton
    does not constrain them.  Variables removed (restriction / "hiding")
    are existentially quantified out of every label, which may make the
    result non-deterministic.
    """
    mgr = aut.manager
    new_tuple = tuple(new_variables)
    for name in new_tuple:
        if not mgr.has_var(name):
            raise AutomatonError(f"support variable {name!r} not declared")
    hidden = [mgr.var_index(v) for v in aut.variables if v not in new_tuple]
    result = Automaton(mgr, new_tuple)
    result.state_names = list(aut.state_names)
    result.accepting = set(aut.accepting)
    result.initial = aut.initial
    result.edges = [dict() for _ in aut.state_names]
    for sid, bucket in enumerate(aut.edges):
        for dst, label in bucket.items():
            result.add_edge(sid, dst, mgr.exists(label, hidden) if hidden else label)
    return result


def prefix_close(aut: Automaton) -> Automaton:
    """Largest prefix-closed sub-automaton: drop non-accepting states.

    All surviving states are accepting; the result is trimmed to the
    reachable part.  If the initial state is non-accepting the language
    is empty.
    """
    if aut.initial is None or aut.initial not in aut.accepting:
        return empty_automaton(aut.manager, aut.variables)
    return aut.restricted(aut.reachable_states(within=aut.accepting))


def progressive(aut: Automaton, input_variables: Sequence[str]) -> Automaton:
    """Largest input-progressive sub-automaton (paper's ``Progressive``).

    Recursively removes states that do not have, for *every* assignment
    of the input variables ``u``, at least one outgoing transition (to a
    surviving state).  This is the step that turns the most general
    prefix-closed solution into the CSF, i.e. an implementable FSM.

    Every state is checked once; after that, only the predecessors of a
    removed state can lose progressiveness, so only they are rechecked.
    The surviving set is the same greatest fixpoint a sweep over all
    states until nothing changes reaches.
    """
    mgr = aut.manager
    unknown = set(input_variables) - set(aut.variables)
    if unknown:
        raise AutomatonError(f"input variables not in alphabet: {sorted(unknown)}")
    if aut.initial is None:
        return empty_automaton(aut.manager, aut.variables)
    other = [
        mgr.var_index(v) for v in aut.variables if v not in set(input_variables)
    ]
    preds: list[set[int]] = [set() for _ in range(aut.num_states)]
    for sid, bucket in enumerate(aut.edges):
        for dst in bucket:
            preds[dst].add(sid)
    alive = set(range(aut.num_states))
    pending = list(range(aut.num_states))
    queued = set(pending)
    while pending:
        sid = pending.pop()
        queued.discard(sid)
        defined = FALSE
        for dst, label in aut.edges[sid].items():
            if dst in alive:
                defined = mgr.apply_or(defined, label)
                if defined == TRUE:
                    break
        u_defined = mgr.exists(defined, other) if other else defined
        if u_defined != TRUE:
            alive.remove(sid)
            for pred in preds[sid]:
                if pred in alive and pred not in queued:
                    queued.add(pred)
                    pending.append(pred)
    if aut.initial not in alive:
        return empty_automaton(aut.manager, aut.variables)
    return aut.restricted(aut.reachable_states(within=alive))


def union(a: Automaton, b: Automaton) -> Automaton:
    """Language union (NFA construction).

    Disjoint union of the two state sets plus a fresh initial state that
    copies the outgoing edges of both originals (accepting iff either
    original initial state is accepting).  Both automata must share a
    manager and alphabet.  The result is non-deterministic in general.
    """
    if a.manager is not b.manager:
        raise AutomatonError("union requires a shared BDD manager")
    if set(a.variables) != set(b.variables):
        raise AutomatonError(f"alphabet mismatch: {a.variables} vs {b.variables}")
    result = Automaton(a.manager, a.variables)
    both_empty = a.initial is None and b.initial is None
    fresh = result.add_state(
        "init",
        accepting=(a.initial is not None and a.initial in a.accepting)
        or (b.initial is not None and b.initial in b.accepting),
    )
    offset_a = result.num_states
    for sid in range(a.num_states):
        result.add_state(f"a.{a.state_names[sid]}", accepting=sid in a.accepting)
    offset_b = result.num_states
    for sid in range(b.num_states):
        result.add_state(f"b.{b.state_names[sid]}", accepting=sid in b.accepting)
    for src, bucket in enumerate(a.edges):
        for dst, label in bucket.items():
            result.add_edge(offset_a + src, offset_a + dst, label)
    for src, bucket in enumerate(b.edges):
        for dst, label in bucket.items():
            result.add_edge(offset_b + src, offset_b + dst, label)
    if a.initial is not None:
        for dst, label in a.edges[a.initial].items():
            result.add_edge(fresh, offset_a + dst, label)
    if b.initial is not None:
        for dst, label in b.edges[b.initial].items():
            result.add_edge(fresh, offset_b + dst, label)
    result.initial = fresh
    if both_empty:
        result.accepting.discard(fresh)
    return result.trim()


def minimize(aut: Automaton) -> Automaton:
    """Bisimulation quotient (Moore partition refinement).

    For deterministic complete automata this is the minimal DFA; for
    non-deterministic automata it is a (language-preserving) bisimulation
    quotient.  States are merged when they have the same acceptance and,
    for every block, the same condition of moving into that block.
    """
    if aut.initial is None:
        return empty_automaton(aut.manager, aut.variables)
    trimmed = aut.trim()
    mgr = trimmed.manager
    block: list[int] = [
        1 if sid in trimmed.accepting else 0 for sid in range(trimmed.num_states)
    ]
    while True:
        signatures: dict[tuple, int] = {}
        new_block: list[int] = [0] * trimmed.num_states
        for sid in range(trimmed.num_states):
            per_block: dict[int, int] = {}
            for dst, label in trimmed.edges[sid].items():
                b = block[dst]
                per_block[b] = mgr.apply_or(per_block.get(b, FALSE), label)
            signature = (block[sid], tuple(sorted(per_block.items())))
            new_block[sid] = signatures.setdefault(signature, len(signatures))
        if new_block == block:
            break
        block = new_block
    count = max(block) + 1
    result = Automaton(trimmed.manager, trimmed.variables)
    representatives: dict[int, int] = {}
    for sid in range(trimmed.num_states):
        representatives.setdefault(block[sid], sid)
    for b in range(count):
        rep = representatives[b]
        result.add_state(trimmed.state_names[rep], accepting=rep in trimmed.accepting)
    result.initial = block[trimmed.initial]  # type: ignore[index]
    for sid in range(trimmed.num_states):
        for dst, label in trimmed.edges[sid].items():
            result.add_edge(block[sid], block[dst], label)
    return result
