"""The formal backend contract the solver stack is written against.

Every layer above the kernel — the automata wrappers, the equation
solver, the sharded runtime, the serve executor — manipulates BDDs
through integer **edge handles** handed out by a manager object.  This
module names that contract: :class:`BddBackend` is a
:class:`typing.Protocol` listing exactly the operations those layers
call, so an alternative kernel (a ctypes adapter to a native library, a
remote manager, an instrumented wrapper) can drop in behind
:func:`repro.bdd.backends.create_manager` without the solver knowing.

The contract, in prose
----------------------

* **Edges are opaque ints.**  ``0`` is FALSE and ``1`` is TRUE; every
  other handle is backend-defined.  Callers never do arithmetic on
  handles — negation goes through :meth:`~BddBackend.apply_not`,
  structure walks through ``node_var``/``node_lo``/``node_hi``.
* **Variables are small ints** returned by ``add_var`` and stable for
  the manager's lifetime; *levels* (positions in the order) move under
  reordering, indices do not.  Names are the cross-manager identity:
  the :meth:`~BddBackend.dump_nodes` snapshot format travels by name.
* **Results are canonical**: two equivalent functions built any way
  whatsoever must compare equal as handles.  (The conformance kit in
  :mod:`repro.bdd.backends.conformance` checks this property across
  backends via the snapshot form.)
* **Lifetime**: handles stay valid until a garbage collection; edges
  pinned with :meth:`~BddBackend.ref` (or passed as GC roots, or
  variable literals) survive collections.  ``sift_now`` reorders in
  place and must keep every live handle valid.
* **Interned operands.**  ``quant_set`` and ``rename_map`` return
  backend-owned objects that the same manager's quantifiers and
  ``rename`` accept in place of a plain variable collection or dict,
  so a call repeated thousands of times skips its per-call setup.  The
  plain forms must keep working and give the same results.
* **Introspection may be weaker than the reference.**  ``check()``
  should verify structural invariants when the backend can, and must
  otherwise no-op with a :class:`BackendCheckWarning` — never raise for
  "not supported".  ``stats`` must return the reference key set, with
  zeros where a counter is not tracked.

:func:`missing_ops` reports which parts of the surface an object lacks;
third-party adapters can use it (and the conformance kit) as a
checklist.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class BddBackend(Protocol):
    """Structural type of a BDD manager the solver stack can run on.

    :class:`~repro.bdd.manager.BddManager` is the reference
    implementation; :class:`~repro.bdd.backends.buddy.BuddyManager`
    adapts the native BuDDy library to the same surface.
    """

    #: Registry name of the backend ("python", "buddy", ...).
    backend_name: str

    # -- variables and the order ------------------------------------- #
    def add_var(self, name: str) -> int: ...
    def add_vars(self, names: Iterable[str]) -> list[int]: ...
    def has_var(self, name: str) -> bool: ...
    def var_name(self, var: int) -> str: ...
    def var_index(self, name: str) -> int: ...
    def var_level(self, var: int) -> int: ...
    def var_order(self) -> list[str]: ...
    def set_reorder_boundaries(self, levels: Iterable[int]) -> None: ...
    @property
    def reorder_boundaries(self) -> set[int]: ...

    # -- edge handles ------------------------------------------------ #
    def var_node(self, var: int) -> int: ...
    def nvar_node(self, var: int) -> int: ...
    def node_var(self, f: int) -> int: ...
    def node_lo(self, f: int) -> int: ...
    def node_hi(self, f: int) -> int: ...

    # -- operators --------------------------------------------------- #
    def apply_not(self, f: int) -> int: ...
    def apply_and(self, f: int, g: int) -> int: ...
    def apply_or(self, f: int, g: int) -> int: ...
    def apply_xor(self, f: int, g: int) -> int: ...
    def apply_iff(self, f: int, g: int) -> int: ...
    def apply_implies(self, f: int, g: int) -> int: ...
    def apply_diff(self, f: int, g: int) -> int: ...
    def ite(self, f: int, g: int, h: int) -> int: ...

    # -- quantification and substitution ----------------------------- #
    def quant_set(self, variables: Iterable[int]) -> Any: ...
    def exists(self, f: int, variables: Any) -> int: ...
    def forall(self, f: int, variables: Any) -> int: ...
    def and_exists(self, f: int, g: int, variables: Any) -> int: ...
    def restrict(self, f: int, var: int, value: bool | int) -> int: ...
    def cofactor_cube(self, f: int, cube: int | Mapping[int, bool | int]) -> int: ...
    def constrain(self, f: int, c: int) -> int: ...
    def compose(self, f: int, var: int, g: int) -> int: ...
    def vector_compose(self, f: int, substitution: Mapping[int, int]) -> int: ...
    def rename_map(self, var_map: Mapping[int, int]) -> Any: ...
    def rename(self, f: int, var_map: Any) -> int: ...
    def split_by_vars(self, f: int, split_vars: Iterable[int]) -> dict[int, int]: ...

    # -- lifetime ---------------------------------------------------- #
    def ref(self, f: int) -> int: ...
    def deref(self, f: int) -> None: ...
    def protect(self, *roots: int) -> Any: ...
    def should_collect(self) -> bool: ...
    def collect_garbage(self, roots: Iterable[int] = ()) -> int: ...
    def maybe_collect_garbage(self, roots: Iterable[int] = ()) -> int: ...

    # -- reordering -------------------------------------------------- #
    def sift_now(self, roots: Iterable[int] = (), *, max_growth: float = 1.2,
                 max_vars: int | None = None) -> Any: ...

    # -- inspection -------------------------------------------------- #
    def support(self, f: int) -> set[int]: ...
    def size(self, f: int) -> int: ...
    def size_many(self, roots: Iterable[int]) -> int: ...
    def eval(self, f: int, assignment: Mapping[str, bool | int]) -> bool: ...
    def cube(self, assignment: Mapping[int, bool | int]) -> int: ...
    def cache_hit_rate(self) -> float: ...
    def clear_caches(self) -> None: ...
    def check(self) -> None: ...

    @property
    def num_vars(self) -> int: ...
    @property
    def stats(self) -> dict[str, object]: ...
    @property
    def max_nodes(self) -> int | None: ...

    # -- transfer ---------------------------------------------------- #
    def dump_nodes(self, roots: Sequence[int]) -> dict: ...
    def load_nodes(self, data: Mapping) -> list[int]: ...


#: Every member of the protocol surface, for :func:`missing_ops`.
PROTOCOL_SURFACE: tuple[str, ...] = tuple(
    sorted(
        name
        for name in vars(BddBackend)
        if not name.startswith("_") and name != "backend_name"
    )
) + ("backend_name",)


def missing_ops(obj: object) -> list[str]:
    """Names of the :class:`BddBackend` surface ``obj`` does not provide.

    Empty for a conforming backend.  Third-party adapters can assert
    ``missing_ops(MyManager()) == []`` as a first smoke test before
    running the full conformance kit.
    """
    return [name for name in PROTOCOL_SURFACE if not hasattr(obj, name)]


def generic_load_nodes(mgr: "BddBackend", data: Mapping) -> list[int]:
    """Backend-agnostic :func:`~repro.bdd.io.load_nodes`.

    Rebuilds a ``repro-bdd-nodes/1`` snapshot using only protocol
    operations (``var_index``/``add_var``/``var_node``/``ite``/
    ``apply_not``), so any backend can consume snapshots produced by any
    other.  The reference manager keeps its faster complement-edge
    loader in :mod:`repro.bdd.io`; adapters without complement edges use
    this one (negation goes through ``apply_not`` instead of bit flips).
    """
    from repro.bdd.io import NODES_FORMAT
    from repro.errors import BddError

    if data.get("format") != NODES_FORMAT:
        raise BddError(f"unknown BDD snapshot format: {data.get('format')!r}")
    vars_local: list[int] = []
    for name in data["names"]:
        if mgr.has_var(name):
            vars_local.append(mgr.var_index(name))
        else:
            vars_local.append(mgr.add_var(name))
    built: list[int] = []

    def unpack(ref: int) -> int:
        if ref < 2:
            return ref
        f = built[(ref >> 1) - 1]
        return mgr.apply_not(f) if ref & 1 else f

    for vid, lo_ref, hi_ref in zip(data["var"], data["lo"], data["hi"]):
        built.append(
            mgr.ite(mgr.var_node(vars_local[vid]), unpack(hi_ref), unpack(lo_ref))
        )
    return [unpack(r) for r in data["roots"]]


def generic_split_by_vars(
    mgr: "BddBackend", f: int, split_vars: Iterable[int]
) -> dict[int, int]:
    """Backend-agnostic :meth:`~repro.bdd.manager.BddManager.split_by_vars`.

    Same contract and result — the complete ``{leaf: condition}``
    partition of ``f`` by its cofactors over ``split_vars``, FALSE class
    included, in lo-first order — built with protocol operations only
    (``var_level``/``node_var``/``node_lo``/``node_hi``/``var_node``/
    ``ite``).  A class condition at a split node on ``v`` is
    ``ite(v, hi_cond, lo_cond)``.  The memo lives for one call: a
    backend such as BuDDy may free nodes inside any operation, so a
    handle kept across calls could name another function later.  The
    reference manager keeps its faster, cross-call memoised split; this
    one serves adapters.
    """
    from repro.bdd.manager import FALSE, TRUE
    from repro.errors import BddError

    split_set = frozenset(split_vars)
    max_split = max((mgr.var_level(v) for v in split_set), default=-1)
    literal = {v: mgr.var_node(v) for v in split_set}
    memo: dict[int, dict[int, int]] = {}

    def rec(node: int) -> dict[int, int]:
        result = memo.get(node)
        if result is not None:
            return result
        var = mgr.node_var(node) if node >= 2 else None
        if var not in split_set:
            if var is not None and mgr.var_level(var) < max_split:
                raise BddError(
                    f"split_by_vars: non-split variable "
                    f"{mgr.var_name(var)!r} above split vars"
                )
            return {node: TRUE}
        lo = rec(mgr.node_lo(node))
        hi = rec(mgr.node_hi(node))
        result = dict(lo)
        for leaf in hi:
            result.setdefault(leaf, FALSE)
        lit = literal[var]
        for leaf, cond in result.items():
            result[leaf] = mgr.ite(lit, hi.get(leaf, FALSE), cond)
        memo[node] = result
        return result

    return dict(rec(f))
