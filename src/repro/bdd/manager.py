"""A shared, reduced, ordered BDD manager with complement edges (pure Python).

This module replaces the CUDD package the paper relies on.  It implements
the classic shared-ROBDD data structure, upgraded with the features that
separate production kernels from toys:

* **complement edges** — an *edge* is an integer ``(node_index << 1) | sign``
  where the sign bit marks negation.  Then-edges are stored uncomplemented,
  which keeps the representation canonical, makes :meth:`~BddManager.apply_not`
  O(1) (``f ^ 1``) and lets AND/OR share computed-table entries through
  De Morgan's law.  There is a single terminal node (index 0): edge ``0`` is
  the constant FALSE and edge ``1`` its complement TRUE, so the classic
  ``f < 2`` terminal test still works on edges;
* **per-level subtables** — the unique table is a list of per-variable
  dicts (``_subtables[var]: packed(lo, hi) -> regular edge``), CUDD-style.
  Reordering gets its per-level candidate buckets for free, garbage
  collection sweeps level-locally (live entries only, never dead slots),
  and ``stats``/``check()`` report per-level occupancy.  Keys are
  **packed machine integers** (``lo << 38 | hi``) rather than tuples —
  int keys hash and compare several times faster than tuple keys, which
  is the single biggest constant-factor lever available to a pure-Python
  kernel;
* a unified, operator-tagged *computed table* (operation cache) for all
  Boolean connectives, quantification, the fused relational product
  ``and_exists`` (the workhorse of image computation), composition and
  renaming.  Keys are packed integers with the operator tag in the low
  4 bits and edge/operand fields in 38-bit lanes above it; commutative
  operators order their arguments so both orientations share one entry;
* a **dual execution core**.  Every hot operator exists in two forms:
  closure-bound *recursive fast paths* (the quickest way to run shallow
  managers — recursion depth is bounded by the number of levels, never
  by BDD size) and an *iterative explicit-frame core* (manual stack,
  op-tagged frames, computed-table probes hoisted to push time) that
  runs BDDs of any depth without touching the Python recursion limit.
  The manager auto-selects per :meth:`set_apply_core`: ``"auto"``
  switches to the iterative core once ``3 × num_vars`` approaches
  ``sys.getrecursionlimit()``.  The recursive family is retained both as
  the shallow-manager fast path and as the reference implementation the
  iterative core is property-tested against;
* *reference-counted garbage collection* — callers pin the functions they
  hold with :meth:`~BddManager.ref` / :meth:`~BddManager.deref` or the
  ``with mgr.protect(...)`` context manager, and
  :meth:`~BddManager.collect_garbage` reclaims everything unreachable,
  sweeping dead entries out of the subtables and flushing the computed
  table.  Freed slots are recycled through a free list, so long fixpoint
  computations (image, reachability, subset construction) no longer grow
  without bound.

The node attribute arrays are **edge-indexed**: slot ``2n`` holds node
``n``'s children as stored, slot ``2n+1`` holds them with the complement
bit propagated.  Cofactor extraction in the hot operators is then a bare
list index — no shift/mask arithmetic on the hot path — at the cost of
one extra (pointer-sized) slot per node.

Variable *levels* are separate from variable *indices*, so the order can
be changed (see :mod:`repro.bdd.reorder`).  Repeated quantifications over
the same variable set should go through :meth:`~BddManager.quant_set`,
which interns the level tuple once and revalidates it lazily when the
order changes (``_order_epoch``); repeated renames under one map should
go through :meth:`~BddManager.rename_map` likewise.

All manager methods consume and produce int edges, which keeps the inner
loops fast; :class:`repro.bdd.function.Function` offers an
operator-overloaded wrapper for user-facing code.

The manager optionally enforces a node budget (``max_nodes``, counted over
*live* nodes), raising :class:`~repro.errors.BddNodeLimit` when exceeded.
The Table 1 harness uses this to emulate the paper's "CNC" (could not
complete) entries.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager

from repro.bdd.policy import GcPolicy, ReorderPolicy
from repro.errors import BddError, BddNodeLimit
from repro.obs.trace import span as obs_span

#: Edge of the constant FALSE function (terminal node, positive polarity).
FALSE = 0
#: Edge of the constant TRUE function (terminal node, complemented).
TRUE = 1

#: Sentinel level assigned to the terminal node; compares above all real
#: variable levels.
_TERMINAL_LEVEL = 1 << 60

#: ``_var`` sentinel marking a reclaimed node slot awaiting reuse.
_FREE = -2

#: Computed-table entry count at which a GC safe point flushes the table
#: (see :meth:`BddManager.should_collect`).
COMPUTED_TABLE_CAP = 150_000

#: (node, class) pairs the cross-call memo of
#: :meth:`BddManager.split_by_vars` may hold before its next call
#: flushes it.  Chosen by measurement (``docs/kernel.md``): larger memos
#: saved more split work but raised the sharded runtime's peak RSS.
SPLIT_MEMO_BUDGET = 2_048

#: Width of one packed key lane.  Edges, variable indices and interned
#: quantification-suffix ids must stay below ``2**38`` — that is ~137
#: billion edges, far beyond anything a pure-Python kernel can hold.
_EDGE_SHIFT = 38
_EDGE_MASK = (1 << _EDGE_SHIFT) - 1

# Operator tags for the unified computed table.  Every cache key is a
# packed integer whose LOW 4 bits are one of these tags; operand fields
# sit in 38-bit lanes above the tag, first operand highest.  Commutative
# operators store their edge arguments in sorted order so both
# orientations hit the same entry, and complement-edge normalisation lets
# all four polarities of XOR, both AND/OR orientations, etc. share
# entries.  Key layouts (``S`` = 38):
#
# =========  ====================================================
# AND, XOR   ``((f << S | g) << 4) | tag``            (f < g)
# ITE        ``(((f << S | g) << S | h) << 4) | tag``
# EXISTS     ``((f << S | sid) << 4) | tag``
# ANDEX      ``(((f << S | g) << S | sid) << 4) | tag``  (f < g)
# COMPOSE    ``(((f << S | g) << S | var) << 4) | tag``
# RENAME     ``((f << S | map_id) << 4) | tag``
# RESTRICT   ``(((f << S | var) << 1 | val) << 4) | tag``
# CONSTRAIN  ``((f << S | c) << 4) | tag``
# COFACTOR   ``((f << S | cube) << 4) | tag``
# =========  ====================================================
_OP_AND = 0
_OP_XOR = 1
_OP_ITE = 2
_OP_EXISTS = 3
_OP_ANDEX = 4
_OP_COMPOSE = 5
_OP_RENAME = 6
_OP_RESTRICT = 7
_OP_CONSTRAIN = 8
_OP_COFACTOR = 9


class QuantSet:
    """A pre-interned quantification variable set.

    Repeated quantifications over the same variables (every image step of
    a fixpoint, every fold step of a reusable image plan) pay a
    sort/dedup/intern pass per call when handed a plain variable list.
    A ``QuantSet`` performs that pass once and caches the level tuple and
    suffix ids; the cache revalidates itself lazily against the
    manager's ``_order_epoch``, so it stays correct across in-place
    reordering (levels move; the variable *indices* held here do not).

    Obtain instances through :meth:`BddManager.quant_set`; pass them
    anywhere :meth:`~BddManager.exists`, :meth:`~BddManager.forall` or
    :meth:`~BddManager.and_exists` accepts a variable collection.
    """

    __slots__ = ("_epoch", "_levels", "_mgr", "_sids", "vars")

    def __init__(self, mgr: "BddManager", variables: Iterable[int]) -> None:
        self._mgr = mgr
        self.vars = tuple(dict.fromkeys(int(v) for v in variables))
        self._epoch = -1
        self._levels: tuple[int, ...] = ()
        self._sids: list[int] = []

    def _resolve(self) -> tuple[tuple[int, ...], list[int]]:
        mgr = self._mgr
        if self._epoch != mgr._order_epoch:
            self._levels = mgr._levels_key(self.vars)
            self._sids = mgr._suffix_ids(self._levels) if self._levels else []
            self._epoch = mgr._order_epoch
        return self._levels, self._sids

    def __iter__(self) -> Iterator[int]:
        return iter(self.vars)

    def __len__(self) -> int:
        return len(self.vars)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QuantSet vars={self.vars}>"


class RenameMap:
    """A pre-interned variable rename map (``old -> new`` indices).

    :meth:`BddManager.rename` keys its computed-table entries by a small
    map id; handed a plain dict, it must filter, sort and intern the
    pairs on every call, which costs more than the table probe of a hit.
    A ``RenameMap`` carries that id from one :meth:`BddManager.rename_map`
    call.  Unlike a :class:`QuantSet` it never revalidates: a rename
    map names variable indices only, and those do not move when the
    order does.
    """

    __slots__ = ("map_id", "pairs")

    def __init__(self, map_id: int, pairs: dict[int, int]) -> None:
        self.map_id = map_id
        self.pairs = pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RenameMap id={self.map_id} pairs={self.pairs}>"


class BddManager:
    """A shared ROBDD manager with complement edges.

    Parameters
    ----------
    max_nodes:
        Optional budget on *live* nodes.  When the number of live nodes
        would exceed this, :class:`~repro.errors.BddNodeLimit` is raised.
    gc_min_live:
        Live-node floor below which :meth:`should_collect` never triggers
        (shorthand for a static :class:`~repro.bdd.policy.GcPolicy`).
    gc_growth:
        Growth factor over the live count after the previous collection
        that arms :meth:`should_collect`.
    gc_policy:
        Full :class:`~repro.bdd.policy.GcPolicy`; overrides the two
        shorthand knobs.  An ``"adaptive"`` policy tracks per-sweep
        reclaim ratios and backs the collection floor off when sweeps
        stop paying.
    reorder_policy:
        :class:`~repro.bdd.policy.ReorderPolicy` deciding when
        :meth:`collect_garbage` should follow an unprofitable sweep with
        an in-place sift (:func:`repro.bdd.reorder.sift`).  Defaults to
        ``"off"``.
    apply_core:
        ``"auto"`` (default), ``"recursive"`` or ``"iterative"`` — which
        execution core runs the hot operators.  ``"auto"`` uses the
        closure-bound recursive fast paths while ``3 × num_vars`` stays
        clear of ``sys.getrecursionlimit()`` and switches to the
        explicit-frame iterative core beyond that, so deep managers
        never raise ``RecursionError``.  See :meth:`set_apply_core`.

    Examples
    --------
    >>> m = BddManager()
    >>> a, b = m.add_var("a"), m.add_var("b")
    >>> f = m.apply_and(m.var_node(a), m.var_node(b))
    >>> m.eval(f, {"a": True, "b": True})
    True
    """

    __slots__ = (
        "apply_and",
        "apply_xor",
        "ite",
        "_active_core",
        "_andex_core",
        "_apply_core",
        "_cofactor_core",
        "_cores",
        "_counters",
        "_computed",
        "_exists_core",
        "_extref",
        "_free",
        "_gc_baseline",
        "_gc_ratio_sum",
        "_gc_reclaimed",
        "_gc_runs",
        "_hi",
        "_level2var",
        "_levels_intern",
        "_lo",
        "_name_to_var",
        "_nb",
        "_order_epoch",
        "_peak_live",
        "_rename_intern",
        "_split_memo",
        "_split_pairs",
        "_reorder_boundaries",
        "_reorder_runs",
        "_reorder_swaps",
        "_subtables",
        "_suffix_cache",
        "_var",
        "_var2level",
        "_var_names",
        "gc_policy",
        "reorder_policy",
    )

    #: Sentinel budget meaning "unlimited" (kept as an int so the hot
    #: allocation path is a single compare).
    _NO_BUDGET = 1 << 62

    #: Recursion-frame margin reserved for the caller's own stack when
    #: the ``"auto"`` core decides between recursive and iterative.
    _DEEP_MARGIN = 250

    #: Registry name of this backend (see :mod:`repro.bdd.backends`).
    #: The pure-Python kernel is the reference implementation of the
    #: :class:`~repro.bdd.backends.protocol.BddBackend` protocol.
    backend_name = "python"

    def __init__(
        self,
        max_nodes: int | None = None,
        *,
        gc_min_live: int = 100_000,
        gc_growth: float = 2.0,
        gc_policy: GcPolicy | None = None,
        reorder_policy: ReorderPolicy | None = None,
        apply_core: str = "auto",
    ) -> None:
        if apply_core not in ("auto", "recursive", "iterative"):
            raise BddError(
                f"unknown apply core {apply_core!r}; "
                "choose from 'auto', 'recursive', 'iterative'"
            )
        self.gc_policy = (
            gc_policy
            if gc_policy is not None
            else GcPolicy(min_live=gc_min_live, growth=gc_growth)
        )
        self.reorder_policy = (
            reorder_policy if reorder_policy is not None else ReorderPolicy()
        )
        # Edge-indexed node attribute arrays; slots 0/1 are the two
        # polarities of the terminal (var sentinel -1).  Slot 2n holds the
        # children of node n as stored (then-edge regular), slot 2n+1 holds
        # them with the complement bit propagated.
        self._var: list[int] = [-1, -1]
        self._lo: list[int] = [0, 1]
        self._hi: list[int] = [0, 1]
        # Per-variable subtables: _subtables[var] maps the packed child
        # pair ``lo << 38 | hi`` to the node's regular (even) edge.  The
        # level view is reached through _level2var.
        self._subtables: list[dict[int, int]] = []
        # Reclaimed regular edges available for reuse.
        self._free: list[int] = []
        # External reference counts: regular (even) edge -> count.
        self._extref: dict[int, int] = {}
        # Shared allocation cell [live_count, node_budget]: the hot
        # closures bump/compare through this list so the allocation path
        # never touches an attribute.
        self._nb: list[int] = [
            1,
            self._NO_BUDGET if max_nodes is None else max_nodes,
        ]
        self._gc_baseline = 1
        # Unified computed table: packed op-tagged int key -> result edge.
        self._computed: dict[int, int] = {}
        # Interning tables for quantification level-suffixes and rename
        # maps (packed computed keys need small-int operands).
        self._levels_intern: dict[tuple[int, ...], int] = {}
        self._suffix_cache: dict[tuple[int, ...], list[int]] = {}
        self._rename_intern: dict[tuple[tuple[int, int], ...], RenameMap] = {}
        # split_by_vars memo: split-variable set -> node -> class map,
        # plus the number of (node, class) pairs it holds.
        self._split_memo: dict[frozenset[int], dict[int, dict[int, int]]] = {}
        self._split_pairs = 0
        # Variable bookkeeping.
        self._var_names: list[str] = []
        self._name_to_var: dict[str, int] = {}
        self._var2level: list[int] = []
        self._level2var: list[int] = []
        # Bumped on every order change; QuantSet caches revalidate on it.
        self._order_epoch = 0
        # Statistics counters (exposed through the ``stats`` property).
        # The hot closures count into ``_counters`` (a list is a cheap
        # shared cell): [cache_hits, miss_compensation, unique_hits].
        # Cache misses are *derived* — every miss stores exactly one
        # computed-table entry, so ``misses = compensation +
        # len(_computed)`` with the compensation cell absorbing flushes,
        # stat resets and the uncached nodes of a cofactor walk.  That
        # keeps one list-increment off the hot miss path.
        self._counters = [0, 0, 0]
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._gc_ratio_sum = 0.0
        self._peak_live = 1
        # Levels that start a new reorder block (sifting never swaps a
        # variable across a block boundary).
        self._reorder_boundaries: set[int] = set()
        self._reorder_runs = 0
        self._reorder_swaps = 0
        self._apply_core = apply_core
        self._active_core: str | None = None
        self._bind_hot_ops()
        self._select_core()

    # -- back-compat shorthands for the static GC knobs ----------------- #

    @property
    def gc_min_live(self) -> int:
        """Current live-node collection floor (see :class:`GcPolicy`)."""
        return self.gc_policy.floor

    @gc_min_live.setter
    def gc_min_live(self, value: int) -> None:
        self.gc_policy.min_live = value
        self.gc_policy.floor = value

    @property
    def gc_growth(self) -> float:
        """Growth factor arming :meth:`should_collect`."""
        return self.gc_policy.growth

    @gc_growth.setter
    def gc_growth(self, value: float) -> None:
        self.gc_policy.growth = value

    @property
    def max_nodes(self) -> int | None:
        """Live-node budget (``None`` = unlimited)."""
        budget = self._nb[1]
        return None if budget == self._NO_BUDGET else budget

    @max_nodes.setter
    def max_nodes(self, value: int | None) -> None:
        self._nb[1] = self._NO_BUDGET if value is None else value

    @property
    def _live(self) -> int:
        """Live node count (cold-path view of the allocation cell)."""
        return self._nb[0]

    @_live.setter
    def _live(self, value: int) -> None:
        self._nb[0] = value

    @property
    def _node_budget(self) -> int:
        return self._nb[1]

    # ------------------------------------------------------------------ #
    # Variables
    # ------------------------------------------------------------------ #

    def add_var(self, name: str) -> int:
        """Declare a new variable at the bottom of the order.

        Returns the variable *index* (not an edge).  Use :meth:`var_node`
        to obtain the BDD of the variable itself.
        """
        if name in self._name_to_var:
            raise BddError(f"variable {name!r} already declared")
        var = len(self._var_names)
        self._var_names.append(name)
        self._name_to_var[name] = var
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        self._subtables.append({})
        if self._apply_core == "auto":
            self._select_core()
        return var

    def add_vars(self, names: Iterable[str]) -> list[int]:
        """Declare several variables; returns their indices in order."""
        return [self.add_var(name) for name in names]

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._var_names)

    def var_name(self, var: int) -> str:
        """Name of variable index ``var``."""
        return self._var_names[var]

    def var_index(self, name: str) -> int:
        """Variable index of ``name``; raises ``KeyError`` if undeclared."""
        return self._name_to_var[name]

    def has_var(self, name: str) -> bool:
        """Whether a variable called ``name`` has been declared."""
        return name in self._name_to_var

    def var_level(self, var: int) -> int:
        """Current level (position in the order) of variable ``var``."""
        return self._var2level[var]

    def var_at_level(self, level: int) -> int:
        """Variable index currently sitting at ``level``."""
        return self._level2var[level]

    def var_order(self) -> list[str]:
        """Variable names from the top of the order to the bottom."""
        return [self._var_names[v] for v in self._level2var]

    def set_order(self, names: Sequence[str]) -> None:
        """Set a complete variable order by name (top to bottom).

        All declared variables must be listed exactly once.  Only valid
        while the manager holds no internal nodes (use
        :func:`repro.bdd.reorder.reorder` afterwards).
        """
        if self._nb[0] > 1:
            raise BddError("set_order requires an empty manager; use reorder()")
        if sorted(names) != sorted(self._var_names):
            raise BddError("set_order must mention every declared variable once")
        # In place: the operator closures hold this very list.
        self._level2var[:] = [self._name_to_var[n] for n in names]
        for level, var in enumerate(self._level2var):
            self._var2level[var] = level
        self._order_epoch += 1

    def set_reorder_boundaries(self, levels: Iterable[int]) -> None:
        """Freeze reorder-block boundaries at the given levels.

        Each level in ``levels`` starts a new *block*: dynamic reordering
        (:func:`repro.bdd.reorder.sift`) only ever swaps adjacent levels
        inside one block, so variables never migrate across a boundary.
        The solver flows use this to keep the letter variables above all
        state variables — a hard requirement of the cofactor-splitting
        step (:func:`repro.bdd.cube.split_by_vars`) — while still letting
        the state block reorder freely mid-run.
        """
        self._reorder_boundaries = {int(lv) for lv in levels if lv > 0}

    @property
    def reorder_boundaries(self) -> set[int]:
        """Levels starting a new reorder block (empty = one big block)."""
        return set(self._reorder_boundaries)

    def var_node(self, var: int) -> int:
        """Edge for the positive literal of variable index ``var``."""
        return self._mk(var, FALSE, TRUE)

    def nvar_node(self, var: int) -> int:
        """Edge for the negative literal of variable index ``var``."""
        return self._mk(var, TRUE, FALSE)

    def node_var(self, f: int) -> int:
        """Top variable index of edge ``f`` (undefined for terminals)."""
        return self._var[f]

    def node_lo(self, f: int) -> int:
        """Low (else) child edge of ``f`` (complement bit propagated)."""
        return self._lo[f]

    def node_hi(self, f: int) -> int:
        """High (then) child edge of ``f`` (complement bit propagated)."""
        return self._hi[f]

    def level(self, f: int) -> int:
        """Level of the top variable of ``f`` (terminals compare last)."""
        if f < 2:
            return _TERMINAL_LEVEL
        return self._var2level[self._var[f]]

    # ------------------------------------------------------------------ #
    # Node construction
    # ------------------------------------------------------------------ #

    def _mk(self, var: int, lo: int, hi: int) -> int:
        """Find-or-create the edge for ``(var, lo, hi)`` (reduction applied).

        Canonical form: the then-edge is stored uncomplemented; when ``hi``
        carries the sign bit the node is stored with both children flipped
        and the complement moves onto the returned edge.
        """
        if lo == hi:
            return lo
        negate = hi & 1
        if negate:
            lo ^= 1
            hi ^= 1
        sub = self._subtables[var]
        ukey = lo << _EDGE_SHIFT | hi
        edge = sub.get(ukey)
        if edge is not None:
            self._counters[2] += 1
            return edge | negate
        return self._mk_new(var, sub, ukey, lo, hi) | negate

    def _mk_new(
        self, var: int, sub: dict[int, int], ukey: int, lo: int, hi: int
    ) -> int:
        """Allocate the (canonical, not yet present) node; returns its
        regular edge.

        The live count only ever drops at collection points, so peak-live
        tracking happens there (and in the ``stats`` property), keeping
        this path to a bare budget compare.
        """
        nb = self._nb
        live = nb[0]
        if live >= nb[1]:
            raise BddNodeLimit(self.max_nodes)
        free = self._free
        if free:
            edge = free.pop()
            arr = self._var
            arr[edge] = var
            arr[edge + 1] = var
            arr = self._lo
            arr[edge] = lo
            arr[edge + 1] = lo ^ 1
            arr = self._hi
            arr[edge] = hi
            arr[edge + 1] = hi ^ 1
        else:
            arr = self._var
            edge = len(arr)
            arr.append(var)
            arr.append(var)
            arr = self._lo
            arr.append(lo)
            arr.append(lo ^ 1)
            arr = self._hi
            arr.append(hi)
            arr.append(hi ^ 1)
        sub[ukey] = edge
        nb[0] = live + 1
        return edge

    def __len__(self) -> int:
        """Number of live nodes in the manager (including the terminal)."""
        return self._nb[0]

    @property
    def num_nodes(self) -> int:
        """Number of live nodes in the manager (including the terminal)."""
        return self._nb[0]

    @property
    def allocated_nodes(self) -> int:
        """Number of node slots ever allocated (live + reusable free)."""
        return len(self._var) // 2

    # ------------------------------------------------------------------ #
    # The execution cores
    # ------------------------------------------------------------------ #

    def apply_not(self, f: int) -> int:
        """Negation — O(1) with complement edges."""
        return f ^ 1

    def set_apply_core(self, mode: str) -> None:
        """Select the execution core for the hot operators.

        ``"recursive"`` binds the closure-bound recursive fast paths
        (fastest; recursion depth is bounded by ``3 × num_vars``, so it
        is safe whenever that stays below ``sys.getrecursionlimit()``).
        ``"iterative"`` binds the explicit-frame core (safe at any depth,
        a few percent slower on shallow managers).  ``"auto"`` re-decides
        after every :meth:`add_var` against the current recursion limit.
        """
        if mode not in ("auto", "recursive", "iterative"):
            raise BddError(
                f"unknown apply core {mode!r}; "
                "choose from 'auto', 'recursive', 'iterative'"
            )
        self._apply_core = mode
        self._active_core = None
        self._select_core()

    @property
    def apply_core(self) -> str:
        """The currently bound execution core (``recursive``/``iterative``)."""
        return self._active_core or "recursive"

    def _select_core(self) -> None:
        mode = self._apply_core
        if mode == "auto":
            deep = (
                3 * len(self._var_names) + self._DEEP_MARGIN
                >= sys.getrecursionlimit()
            )
            mode = "iterative" if deep else "recursive"
        if mode == self._active_core:
            return
        ops = self._cores[mode]
        self.apply_and = ops[0]
        self.apply_xor = ops[1]
        self._exists_core = ops[2]
        self._andex_core = ops[3]
        self._cofactor_core = ops[4]
        self._active_core = mode

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction — De Morgan over AND, sharing its cache entries."""
        return self.apply_and(f ^ 1, g ^ 1) ^ 1

    def apply_iff(self, f: int, g: int) -> int:
        """Biconditional (XNOR) — used to form ``ns_k ≡ T_k`` partitions."""
        return self.apply_xor(f, g) ^ 1

    def apply_implies(self, f: int, g: int) -> int:
        """Implication ``f → g``."""
        return self.apply_and(f, g ^ 1) ^ 1

    def apply_diff(self, f: int, g: int) -> int:
        """Difference ``f ∧ ¬g``."""
        return self.apply_and(f, g ^ 1)

    def _bind_hot_ops(self) -> None:
        """Build both op families as per-instance closures.

        The hot recursions run tens of thousands of times per image
        step; closing over the kernel state (node arrays, subtables,
        computed table, counter and allocation cells) replaces every
        ``self._x`` attribute load with a cell access and every method
        dispatch with a plain call.  All captured containers are only
        ever mutated *in place* (``clear_caches``, ``collect_garbage``,
        ``compact`` and ``add_var`` update them with
        ``clear``/``update``/``append``/indexed stores), so the closures
        can never go stale.

        Two families are built and stashed in ``self._cores``:

        * ``recursive`` — direct recursion with inlined terminal
          resolution, a three-way top-level split and an inlined
          allocation path.  Recursion depth is bounded by the *level*
          count (every recursive call strictly descends the order), not
          by BDD size.
        * ``iterative`` — explicit-frame loops.  Expand frames are the
          packed computed-table keys themselves; computed-table probes
          are hoisted to push time, so frames are only pushed for cache
          misses; combine frames are small tuples.  No Python recursion
          at any depth.

        :meth:`_select_core` binds the chosen family to ``apply_and`` /
        ``apply_xor`` / ``_exists_core`` / ``_andex_core`` /
        ``_cofactor_core``.  ``ite`` has
        a single iterative implementation (it is far colder than the
        monotone ops) bound unconditionally.
        """
        computed = self._computed
        subtables = self._subtables
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        var2level = self._var2level
        level2var = self._level2var
        free = self._free
        counters = self._counters
        nb = self._nb
        computed_get = computed.get
        mgr = self
        mk = self._mk  # bound once; self._mk is never rebound
        S = _EDGE_SHIFT
        M = _EDGE_MASK

        # ------------------------------------------------------------- #
        # Recursive fast paths
        # ------------------------------------------------------------- #

        def _and_rec(f: int, g: int) -> int:
            """Conjunction core.  Preconditions: ``f, g >= 2``, ``f != g``,
            ``f ^ g != 1`` (callers resolve those inline)."""
            if f > g:
                f, g = g, f
            key = (f << S | g) << 4
            r = computed_get(key)
            if r is not None:
                counters[0] += 1
                return r
            lf = var2level[var_arr[f]]
            lg = var2level[var_arr[g]]
            # Three-way top-level split: each branch only performs the
            # terminal checks its cofactor shapes can actually produce.
            if lf < lg:
                var = var_arr[f]
                f0, f1 = lo_arr[f], hi_arr[f]
                if f0 == g:
                    lo = f0
                elif f0 == 1:
                    lo = g
                elif f0 == 0 or f0 ^ g == 1:
                    lo = 0
                else:
                    lo = _and_rec(f0, g)
                if f1 == g:
                    hi = f1
                elif f1 == 1:
                    hi = g
                elif f1 == 0 or f1 ^ g == 1:
                    hi = 0
                else:
                    hi = _and_rec(f1, g)
            elif lg < lf:
                var = var_arr[g]
                g0, g1 = lo_arr[g], hi_arr[g]
                if g0 == f or g0 == 1:
                    lo = f if g0 == 1 else g0
                elif g0 == 0 or g0 ^ f == 1:
                    lo = 0
                else:
                    lo = _and_rec(f, g0)
                if g1 == f or g1 == 1:
                    hi = f if g1 == 1 else g1
                elif g1 == 0 or g1 ^ f == 1:
                    hi = 0
                else:
                    hi = _and_rec(f, g1)
            else:
                var = var_arr[f]
                f0, f1 = lo_arr[f], hi_arr[f]
                g0, g1 = lo_arr[g], hi_arr[g]
                if f0 == g0 or g0 == 1:
                    lo = f0
                elif f0 == 1:
                    lo = g0
                elif f0 == 0 or g0 == 0 or f0 ^ g0 == 1:
                    lo = 0
                else:
                    lo = _and_rec(f0, g0)
                if f1 == g1 or g1 == 1:
                    hi = f1
                elif f1 == 1:
                    hi = g1
                elif f1 == 0 or g1 == 0 or f1 ^ g1 == 1:
                    hi = 0
                else:
                    hi = _and_rec(f1, g1)
            # Inlined _mk (this is the hottest path in the kernel).
            if lo == hi:
                r = lo
            else:
                negate = hi & 1
                if negate:
                    lo ^= 1
                    hi ^= 1
                sub = subtables[var]
                ukey = lo << S | hi
                edge = sub.get(ukey)
                if edge is not None:
                    counters[2] += 1
                    r = edge | negate
                elif free:
                    # Freed slots exist: take the full (recycling) path.
                    r = mgr._mk_new(var, sub, ukey, lo, hi) | negate
                else:
                    live = nb[0]
                    if live >= nb[1]:
                        raise BddNodeLimit(mgr.max_nodes)
                    edge = len(var_arr)
                    var_arr.append(var)
                    var_arr.append(var)
                    lo_arr.append(lo)
                    lo_arr.append(lo ^ 1)
                    hi_arr.append(hi)
                    hi_arr.append(hi ^ 1)
                    sub[ukey] = edge
                    nb[0] = live + 1
                    r = edge | negate
            computed[key] = r
            return r

        def apply_and_rec(f: int, g: int) -> int:
            """Conjunction (recursive fast path; see ``_bind_hot_ops``)."""
            if f == g:
                return f
            if f < 2 or g < 2:
                if f == 0 or g == 0:
                    return 0
                return g if f == 1 else f
            if f ^ g == 1:
                return 0
            return _and_rec(f, g)

        def _xor_rec(f: int, g: int) -> int:
            """XOR core.  Preconditions: both regular, distinct,
            non-terminal, ``f < g``."""
            key = (f << S | g) << 4 | 1
            r = computed_get(key)
            if r is not None:
                counters[0] += 1
                return r
            lf = var2level[var_arr[f]]
            lg = var2level[var_arr[g]]
            if lf <= lg:
                var = var_arr[f]
                f0, f1 = lo_arr[f], hi_arr[f]
            else:
                var = var_arr[g]
                f0 = f1 = f
            if lg <= lf:
                g0, g1 = lo_arr[g], hi_arr[g]
            else:
                g0 = g1 = g
            # Complement bits are factored out at the call sites, so all
            # four polarities of a pair share one computed-table entry.
            s0 = (f0 ^ g0) & 1
            a = f0 & -2
            b = g0 & -2
            if a == b:
                lo = s0
            elif a == 0:
                lo = b ^ s0
            elif b == 0:
                lo = a ^ s0
            elif a < b:
                lo = _xor_rec(a, b) ^ s0
            else:
                lo = _xor_rec(b, a) ^ s0
            s1 = (f1 ^ g1) & 1
            a = f1 & -2
            b = g1 & -2
            if a == b:
                hi = s1
            elif a == 0:
                hi = b ^ s1
            elif b == 0:
                hi = a ^ s1
            elif a < b:
                hi = _xor_rec(a, b) ^ s1
            else:
                hi = _xor_rec(b, a) ^ s1
            # Inlined _mk (same shape as the AND core's allocation path).
            if lo == hi:
                r = lo
            else:
                negate = hi & 1
                if negate:
                    lo ^= 1
                    hi ^= 1
                sub = subtables[var]
                ukey = lo << S | hi
                edge = sub.get(ukey)
                if edge is not None:
                    counters[2] += 1
                    r = edge | negate
                elif free:
                    r = mgr._mk_new(var, sub, ukey, lo, hi) | negate
                else:
                    live = nb[0]
                    if live >= nb[1]:
                        raise BddNodeLimit(mgr.max_nodes)
                    edge = len(var_arr)
                    var_arr.append(var)
                    var_arr.append(var)
                    lo_arr.append(lo)
                    lo_arr.append(lo ^ 1)
                    hi_arr.append(hi)
                    hi_arr.append(hi ^ 1)
                    sub[ukey] = edge
                    nb[0] = live + 1
                    r = edge | negate
            computed[key] = r
            return r

        def apply_xor_rec(f: int, g: int) -> int:
            """Exclusive or (recursive fast path)."""
            sign = (f ^ g) & 1
            f &= -2
            g &= -2
            if f == g:
                return sign
            if f == 0:
                return g ^ sign
            if g == 0:
                return f ^ sign
            if f > g:
                f, g = g, f
            return _xor_rec(f, g) ^ sign

        def exists_rec(
            f: int, levels: tuple[int, ...], sids: list[int], li: int
        ) -> int:
            """Existential quantification core (recursive fast path)."""
            if f < 2:
                return f
            top = var2level[var_arr[f]]
            # Drop quantified levels strictly above the top of f.
            n = len(levels)
            while li < n and levels[li] < top:
                li += 1
            if li == n:
                return f
            key = (f << S | sids[li]) << 4 | 3
            r = computed_get(key)
            if r is not None:
                counters[0] += 1
                return r
            lo, hi = lo_arr[f], hi_arr[f]
            if levels[li] == top:
                r0 = exists_rec(lo, levels, sids, li + 1)
                if r0 == 1:
                    r = 1
                else:
                    r1 = exists_rec(hi, levels, sids, li + 1)
                    r = apply_and_rec(r0 ^ 1, r1 ^ 1) ^ 1
            else:
                r = mk(
                    var_arr[f],
                    exists_rec(lo, levels, sids, li),
                    exists_rec(hi, levels, sids, li),
                )
            computed[key] = r
            return r

        def andex_rec(
            f: int, g: int, levels: tuple[int, ...], sids: list[int], li: int
        ) -> int:
            """Fused ``∃ . (f ∧ g)`` core (recursive fast path).

            The conjunction is never materialised above the quantified
            levels, and a TRUE else-branch short-circuits the then-branch
            of every quantified node — the monotone-op short-circuit that
            makes the partitioned image fold cheap.
            """
            if f == g:
                return exists_rec(f, levels, sids, li)
            if f < 2 or g < 2:
                if f == 0 or g == 0:
                    return 0
                return exists_rec(g if f == 1 else f, levels, sids, li)
            if f ^ g == 1:
                return 0
            lf = var2level[var_arr[f]]
            lg = var2level[var_arr[g]]
            top = lf if lf < lg else lg
            n = len(levels)
            while li < n and levels[li] < top:
                li += 1
            if li == n:
                return apply_and_rec(f, g)
            if f > g:
                f, g, lf, lg = g, f, lg, lf
            key = ((f << S | g) << S | sids[li]) << 4 | 4
            r = computed_get(key)
            if r is not None:
                counters[0] += 1
                return r
            if lf <= lg:
                f0, f1 = lo_arr[f], hi_arr[f]
            else:
                f0 = f1 = f
            if lg <= lf:
                g0, g1 = lo_arr[g], hi_arr[g]
            else:
                g0 = g1 = g
            if levels[li] == top:
                r0 = andex_rec(f0, g0, levels, sids, li + 1)
                if r0 == 1:
                    r = 1
                else:
                    r1 = andex_rec(f1, g1, levels, sids, li + 1)
                    r = apply_and_rec(r0 ^ 1, r1 ^ 1) ^ 1
            else:
                r = mk(
                    level2var[top],
                    andex_rec(f0, g0, levels, sids, li),
                    andex_rec(f1, g1, levels, sids, li),
                )
            computed[key] = r
            return r

        def _cofactor_entry(walk):
            """Build a cube-cofactor core around ``walk``, the per-call
            node walk of one execution core.  The core's ``c`` is a cube
            edge other than FALSE.

            The entry drops the cube's variables above ``f``'s top (``f``
            does not depend on them) and probes the COFACTOR entry of
            ``f`` and that projected cube: a repeated call is one probe,
            and callers that project the cube onto ``f``'s support share
            the entry across cubes that agree there.  On a miss it reads
            the cube once into ``bound`` (per variable, the child array
            its literal selects) and its bottom level, and hands ``f`` to
            ``walk``.  Within a call the rest of the cube is fixed by a
            node's level, so one dict keyed by the edge memoises the
            walk; only the root result is stored in the computed table.
            Each node the walk rebuilt counts one miss.
            """

            def cofactor(f: int, c: int) -> int:
                if f < 2 or c == 1:
                    return f
                top = var2level[var_arr[f]]
                while c > 1 and var2level[var_arr[c]] < top:
                    lo = lo_arr[c]
                    c = hi_arr[c] if lo == 0 else lo
                if c == 1:
                    return f
                sign = f & 1
                key = ((f ^ sign) << S | c) << 4 | _OP_COFACTOR
                r = computed_get(key)
                if r is not None:
                    counters[0] += 1
                    return r ^ 1 if sign else r
                bound: list = [None] * len(var2level)
                while c > 1:
                    var = var_arr[c]
                    lo = lo_arr[c]
                    if lo == 0:
                        bound[var] = hi_arr
                        c = hi_arr[c]
                    else:
                        bound[var] = lo_arr
                        c = lo
                memo: dict[int, int] = {}
                r = walk(f, bound, var2level[var], memo)
                # The root's computed entry counts its own miss.
                counters[1] += len(memo) - 1
                computed[key] = r ^ 1 if sign else r
                return r

            return cofactor

        def _cof_walk(
            f: int, bound: list, bottom: int, memo: dict[int, int]
        ) -> int:
            """Cofactor walk (recursive).  ``f`` is non-terminal with its
            top at or above the cube's ``bottom`` level.  Children come
            from the edge-indexed arrays, so a complemented ``f`` needs
            no sign handling; a child below ``bottom`` is kept as is."""
            r = memo.get(f)
            if r is not None:
                return r
            var = var_arr[f]
            arr = bound[var]
            if arr is not None:
                r = arr[f]
                if r > 1 and var2level[var_arr[r]] <= bottom:
                    r = _cof_walk(r, bound, bottom, memo)
            else:
                lo = lo_arr[f]
                if lo > 1 and var2level[var_arr[lo]] <= bottom:
                    lo = _cof_walk(lo, bound, bottom, memo)
                hi = hi_arr[f]
                if hi > 1 and var2level[var_arr[hi]] <= bottom:
                    hi = _cof_walk(hi, bound, bottom, memo)
                r = mk(var, lo, hi)
            memo[f] = r
            return r

        cofactor_rec = _cofactor_entry(_cof_walk)

        # ------------------------------------------------------------- #
        # Iterative explicit-frame core
        # ------------------------------------------------------------- #
        #
        # Frame protocol (shared by the binary ops): the work stack holds
        # either a packed computed-table key (int) — an *expand* frame
        # for a pair that missed the cache at push time — or a tuple
        # *combine* frame.  Results travel on a separate result stack;
        # ``-1`` child slots in a combine frame mean "pop from the result
        # stack" (children are pushed hi-first, so lo completes first and
        # pops last).  Probing at push time keeps cache hits frame-free.

        def apply_and_iter(f: int, g: int) -> int:
            """Conjunction (iterative explicit-frame core)."""
            if f == g:
                return f
            if f < 2 or g < 2:
                if f == 0 or g == 0:
                    return 0
                return g if f == 1 else f
            if f ^ g == 1:
                return 0
            if f > g:
                f, g = g, f
            key = (f << S | g) << 4
            r = computed_get(key)
            if r is not None:
                counters[0] += 1
                return r
            stack = [key]
            pop = stack.pop
            push = stack.append
            rstack: list[int] = []
            rpush = rstack.append
            rpop = rstack.pop
            while stack:
                top = pop()
                if type(top) is int:
                    # Expand frame: the packed key itself.  Re-probe — a
                    # sibling subtree may have computed it meanwhile.
                    r = computed_get(top)
                    if r is not None:
                        counters[0] += 1
                        rpush(r)
                        continue
                    f = top >> (S + 4)
                    g = (top >> 4) & M
                    lf = var2level[var_arr[f]]
                    lg = var2level[var_arr[g]]
                    if lf <= lg:
                        var = var_arr[f]
                        f0, f1 = lo_arr[f], hi_arr[f]
                    else:
                        var = var_arr[g]
                        f0 = f1 = f
                    if lg <= lf:
                        g0, g1 = lo_arr[g], hi_arr[g]
                    else:
                        g0 = g1 = g
                    lkey = hkey = 0
                    if f0 == g0 or g0 == 1:
                        lo = f0
                    elif f0 == 1:
                        lo = g0
                    elif f0 == 0 or g0 == 0 or f0 ^ g0 == 1:
                        lo = 0
                    else:
                        if f0 > g0:
                            lkey = (g0 << S | f0) << 4
                        else:
                            lkey = (f0 << S | g0) << 4
                        lo = computed_get(lkey)
                        if lo is None:
                            lo = -1
                        else:
                            counters[0] += 1
                    if f1 == g1 or g1 == 1:
                        hi = f1
                    elif f1 == 1:
                        hi = g1
                    elif f1 == 0 or g1 == 0 or f1 ^ g1 == 1:
                        hi = 0
                    else:
                        if f1 > g1:
                            hkey = (g1 << S | f1) << 4
                        else:
                            hkey = (f1 << S | g1) << 4
                        hi = computed_get(hkey)
                        if hi is None:
                            hi = -1
                        else:
                            counters[0] += 1
                    if lo >= 0 and hi >= 0:
                        r = mk(var, lo, hi)
                        computed[top] = r
                        rpush(r)
                        continue
                    push((top, var, lo, hi))
                    if hi < 0:
                        push(hkey)
                    if lo < 0:
                        push(lkey)
                else:
                    key, var, lo, hi = top
                    if hi < 0:
                        hi = rpop()
                    if lo < 0:
                        lo = rpop()
                    r = mk(var, lo, hi)
                    computed[key] = r
                    rpush(r)
            return rstack[0]

        def apply_xor_iter(f: int, g: int) -> int:
            """Exclusive or (iterative explicit-frame core)."""
            sign = (f ^ g) & 1
            f &= -2
            g &= -2
            if f == g:
                return sign
            if f == 0:
                return g ^ sign
            if g == 0:
                return f ^ sign
            if f > g:
                f, g = g, f
            key = (f << S | g) << 4 | 1
            r = computed_get(key)
            if r is not None:
                counters[0] += 1
                return r ^ sign
            stack: list = [key]
            pop = stack.pop
            push = stack.append
            rstack: list[int] = []
            rpush = rstack.append
            rpop = rstack.pop
            while stack:
                top = pop()
                if type(top) is int:
                    r = computed_get(top)
                    if r is not None:
                        counters[0] += 1
                        rpush(r)
                        continue
                    f = top >> (S + 4)
                    g = (top >> 4) & M
                    lf = var2level[var_arr[f]]
                    lg = var2level[var_arr[g]]
                    if lf <= lg:
                        var = var_arr[f]
                        f0, f1 = lo_arr[f], hi_arr[f]
                    else:
                        var = var_arr[g]
                        f0 = f1 = f
                    if lg <= lf:
                        g0, g1 = lo_arr[g], hi_arr[g]
                    else:
                        g0 = g1 = g
                    lkey = hkey = 0
                    s0 = (f0 ^ g0) & 1
                    a = f0 & -2
                    b = g0 & -2
                    if a == b:
                        lo = s0
                    elif a == 0:
                        lo = b ^ s0
                    elif b == 0:
                        lo = a ^ s0
                    else:
                        if a > b:
                            a, b = b, a
                        lkey = (a << S | b) << 4 | 1
                        lo = computed_get(lkey)
                        if lo is None:
                            lo = -1
                        else:
                            counters[0] += 1
                            lo ^= s0
                    s1 = (f1 ^ g1) & 1
                    a = f1 & -2
                    b = g1 & -2
                    if a == b:
                        hi = s1
                    elif a == 0:
                        hi = b ^ s1
                    elif b == 0:
                        hi = a ^ s1
                    else:
                        if a > b:
                            a, b = b, a
                        hkey = (a << S | b) << 4 | 1
                        hi = computed_get(hkey)
                        if hi is None:
                            hi = -1
                        else:
                            counters[0] += 1
                            hi ^= s1
                    if lo >= 0 and hi >= 0:
                        r = mk(var, lo, hi)
                        computed[top] = r
                        rpush(r)
                        continue
                    push((top, var, lo, hi, s0, s1))
                    if hi < 0:
                        push(hkey)
                    if lo < 0:
                        push(lkey)
                else:
                    key, var, lo, hi, s0, s1 = top
                    if hi < 0:
                        hi = rpop() ^ s1
                    if lo < 0:
                        lo = rpop() ^ s0
                    r = mk(var, lo, hi)
                    computed[key] = r
                    rpush(r)
            return rstack[0] ^ sign

        def exists_iter(
            f: int, levels: tuple[int, ...], sids: list[int], li: int
        ) -> int:
            """Existential quantification (iterative core).

            Frames: ``(0, f, li)`` expand; ``(1, key, f1, li)`` inspect
            the else-result and short-circuit on TRUE before the
            then-branch is even pushed; ``(2, key, var)`` rebuild a
            non-quantified node; ``(3, key, r0)`` OR-combine.
            """
            n = len(levels)
            stack: list[tuple] = [(0, f, li)]
            pop = stack.pop
            push = stack.append
            rstack: list[int] = []
            rpush = rstack.append
            rpop = rstack.pop
            while stack:
                fr = pop()
                tag = fr[0]
                if tag == 0:
                    f = fr[1]
                    li = fr[2]
                    if f < 2:
                        rpush(f)
                        continue
                    top = var2level[var_arr[f]]
                    while li < n and levels[li] < top:
                        li += 1
                    if li == n:
                        rpush(f)
                        continue
                    key = (f << S | sids[li]) << 4 | 3
                    r = computed_get(key)
                    if r is not None:
                        counters[0] += 1
                        rpush(r)
                        continue
                    if levels[li] == top:
                        push((1, key, hi_arr[f], li + 1))
                        push((0, lo_arr[f], li + 1))
                    else:
                        push((2, key, var_arr[f]))
                        push((0, hi_arr[f], li))
                        push((0, lo_arr[f], li))
                elif tag == 1:
                    r0 = rpop()
                    if r0 == 1:
                        computed[fr[1]] = 1
                        rpush(1)
                    else:
                        push((3, fr[1], r0))
                        push((0, fr[2], fr[3]))
                elif tag == 2:
                    hi = rpop()
                    lo = rpop()
                    r = mk(fr[2], lo, hi)
                    computed[fr[1]] = r
                    rpush(r)
                else:
                    r1 = rpop()
                    r = apply_and_iter(fr[2] ^ 1, r1 ^ 1) ^ 1
                    computed[fr[1]] = r
                    rpush(r)
            return rstack[0]

        def andex_iter(
            f: int, g: int, levels: tuple[int, ...], sids: list[int], li: int
        ) -> int:
            """Fused ``∃ . (f ∧ g)`` (iterative core); same frame scheme
            as ``exists_iter`` with pairwise expand frames."""
            n = len(levels)
            stack: list[tuple] = [(0, f, g, li)]
            pop = stack.pop
            push = stack.append
            rstack: list[int] = []
            rpush = rstack.append
            rpop = rstack.pop
            while stack:
                fr = pop()
                tag = fr[0]
                if tag == 0:
                    f = fr[1]
                    g = fr[2]
                    li = fr[3]
                    if f == g:
                        rpush(exists_iter(f, levels, sids, li))
                        continue
                    if f < 2 or g < 2:
                        if f == 0 or g == 0:
                            rpush(0)
                        else:
                            rpush(exists_iter(g if f == 1 else f, levels, sids, li))
                        continue
                    if f ^ g == 1:
                        rpush(0)
                        continue
                    lf = var2level[var_arr[f]]
                    lg = var2level[var_arr[g]]
                    top = lf if lf < lg else lg
                    while li < n and levels[li] < top:
                        li += 1
                    if li == n:
                        rpush(apply_and_iter(f, g))
                        continue
                    if f > g:
                        f, g, lf, lg = g, f, lg, lf
                    key = ((f << S | g) << S | sids[li]) << 4 | 4
                    r = computed_get(key)
                    if r is not None:
                        counters[0] += 1
                        rpush(r)
                        continue
                    if lf <= lg:
                        f0, f1 = lo_arr[f], hi_arr[f]
                    else:
                        f0 = f1 = f
                    if lg <= lf:
                        g0, g1 = lo_arr[g], hi_arr[g]
                    else:
                        g0 = g1 = g
                    if levels[li] == top:
                        push((1, key, f1, g1, li + 1))
                        push((0, f0, g0, li + 1))
                    else:
                        push((2, key, level2var[top]))
                        push((0, f1, g1, li))
                        push((0, f0, g0, li))
                elif tag == 1:
                    r0 = rpop()
                    if r0 == 1:
                        computed[fr[1]] = 1
                        rpush(1)
                    else:
                        push((3, fr[1], r0))
                        push((0, fr[2], fr[3], fr[4]))
                elif tag == 2:
                    hi = rpop()
                    lo = rpop()
                    r = mk(fr[2], lo, hi)
                    computed[fr[1]] = r
                    rpush(r)
                else:
                    r1 = rpop()
                    r = apply_and_iter(fr[2] ^ 1, r1 ^ 1) ^ 1
                    computed[fr[1]] = r
                    rpush(r)
            return rstack[0]

        def ite_iter(f: int, g: int, h: int) -> int:
            """If-then-else ``(f ∧ g) ∨ (¬f ∧ h)`` (iterative; the single
            implementation — ite is far colder than the monotone ops).

            Standard complement-edge normalisation at every expand frame:
            the condition and then-branch are made regular and constant
            branches delegate to AND so they share its cache entries.

            The projection case comes first, as in CUDD's ``ite``: when
            ``f`` is a literal whose variable sits above both branches,
            the result is that variable's node over the branches — one
            unique-table lookup, no frame and no computed-table entry.
            """
            if f >= 2:
                f0 = lo_arr[f]
                if f0 < 2 and hi_arr[f] < 2:
                    var = var_arr[f]
                    lv = var2level[var]
                    if (g < 2 or var2level[var_arr[g]] > lv) and (
                        h < 2 or var2level[var_arr[h]] > lv
                    ):
                        return mk(var, h, g) if f0 == FALSE else mk(var, g, h)
            stack: list[tuple] = [(0, f, g, h)]
            pop = stack.pop
            push = stack.append
            rstack: list[int] = []
            rpush = rstack.append
            rpop = rstack.pop
            apply_and = mgr.apply_and
            while stack:
                fr = pop()
                if fr[0] == 0:
                    f = fr[1]
                    g = fr[2]
                    h = fr[3]
                    if f == TRUE:
                        rpush(g)
                        continue
                    if f == FALSE:
                        rpush(h)
                        continue
                    if g == f:
                        g = TRUE
                    elif g == f ^ 1:
                        g = FALSE
                    if h == f:
                        h = FALSE
                    elif h == f ^ 1:
                        h = TRUE
                    if g == h:
                        rpush(g)
                        continue
                    if g == TRUE:
                        if h == FALSE:
                            rpush(f)
                        else:
                            rpush(apply_and(f ^ 1, h ^ 1) ^ 1)
                        continue
                    if g == FALSE:
                        if h == TRUE:
                            rpush(f ^ 1)
                        else:
                            rpush(apply_and(f ^ 1, h))
                        continue
                    if h == FALSE:
                        rpush(apply_and(f, g))
                        continue
                    if h == TRUE:
                        rpush(apply_and(f, g ^ 1) ^ 1)
                        continue
                    sign = 0
                    if f & 1:
                        f ^= 1
                        g, h = h, g
                    if g & 1:
                        sign = 1
                        g ^= 1
                        h ^= 1
                    key = ((f << S | g) << S | h) << 4 | 2
                    r = computed_get(key)
                    if r is not None:
                        counters[0] += 1
                        rpush(r ^ sign)
                        continue
                    lf = var2level[var_arr[f]]
                    lg = var2level[var_arr[g]]
                    lh = var2level[var_arr[h]]
                    top = lf if lf < lg else lg
                    if lh < top:
                        top = lh
                    if lf == top:
                        f0, f1 = lo_arr[f], hi_arr[f]
                    else:
                        f0 = f1 = f
                    if lg == top:
                        g0, g1 = lo_arr[g], hi_arr[g]
                    else:
                        g0 = g1 = g
                    if lh == top:
                        h0, h1 = lo_arr[h], hi_arr[h]
                    else:
                        h0 = h1 = h
                    push((1, key, level2var[top], sign))
                    push((0, f1, g1, h1))
                    push((0, f0, g0, h0))
                else:
                    hi = rpop()
                    lo = rpop()
                    r = mk(fr[2], lo, hi)
                    computed[fr[1]] = r
                    rpush(r ^ fr[3])
            return rstack[0]

        def _cof_walk_iter(
            f: int, bound: list, bottom: int, memo: dict[int, int]
        ) -> int:
            """Cofactor walk (iterative), same contract as the recursive
            walk.  Expand frames are the edges themselves; ``(f,)``
            stores a bound node's single child result, ``(f, var)``
            rebuilds a node off the cube."""
            stack: list = [f]
            rstack: list[int] = []
            while stack:
                fr = stack.pop()
                if fr.__class__ is int:
                    if fr < 2 or var2level[var_arr[fr]] > bottom:
                        rstack.append(fr)
                        continue
                    r = memo.get(fr)
                    if r is not None:
                        rstack.append(r)
                        continue
                    var = var_arr[fr]
                    arr = bound[var]
                    if arr is not None:
                        stack.append((fr,))
                        stack.append(arr[fr])
                    else:
                        stack.append((fr, var))
                        stack.append(hi_arr[fr])
                        stack.append(lo_arr[fr])
                elif len(fr) == 1:
                    memo[fr[0]] = rstack[-1]
                else:
                    hi = rstack.pop()
                    lo = rstack.pop()
                    r = mk(fr[1], lo, hi)
                    memo[fr[0]] = r
                    rstack.append(r)
            return rstack[0]

        cofactor_iter = _cofactor_entry(_cof_walk_iter)

        self.ite = ite_iter
        self._cores = {
            "recursive": (
                apply_and_rec, apply_xor_rec, exists_rec, andex_rec, cofactor_rec
            ),
            "iterative": (
                apply_and_iter, apply_xor_iter, exists_iter, andex_iter, cofactor_iter
            ),
        }

    # ------------------------------------------------------------------ #
    # Quantification and the relational product
    # ------------------------------------------------------------------ #

    def quant_set(self, variables: Iterable[int]) -> QuantSet:
        """Intern a quantification variable set for repeated use.

        The returned :class:`QuantSet` caches the sorted level tuple and
        interned suffix ids, revalidating lazily when the variable order
        changes.  Image plans and fixpoint loops that quantify the same
        set thousands of times should build one of these once.
        """
        return QuantSet(self, variables)

    def _levels_key(self, variables: Iterable[int]) -> tuple[int, ...]:
        """Canonical (sorted, deduplicated) level tuple for a var set."""
        return tuple(sorted({self._var2level[v] for v in variables}))

    def _suffix_ids(self, levels: tuple[int, ...]) -> list[int]:
        """Interned ids for every suffix of a quantification level tuple.

        Quantification recursions walk suffixes of the level tuple;
        interning them once per distinct set turns the computed-table keys
        into small ints and removes all per-call tuple slicing.  Suffixes
        are interned (not whole tuples), so ``exists(f, {a, b})`` still
        shares its tail work with ``exists(f, {b})``.
        """
        ids = self._suffix_cache.get(levels)
        if ids is None:
            intern = self._levels_intern
            ids = []
            for i in range(len(levels)):
                suffix = levels[i:]
                sid = intern.get(suffix)
                if sid is None:
                    sid = len(intern)
                    intern[suffix] = sid
                ids.append(sid)
            self._suffix_cache[levels] = ids
        return ids

    def _quant_args(
        self, variables: Iterable[int] | QuantSet
    ) -> tuple[tuple[int, ...], list[int]]:
        """Resolve a variable collection to ``(levels, suffix_ids)``."""
        if type(variables) is QuantSet:
            return variables._resolve()
        levels = self._levels_key(variables)
        if not levels:
            return levels, []
        return levels, self._suffix_ids(levels)

    def exists(self, f: int, variables: Iterable[int] | QuantSet) -> int:
        """Existential quantification of ``variables`` (indices) from ``f``.

        ``variables`` may be any iterable of variable indices or a
        pre-interned :meth:`quant_set`.
        """
        levels, sids = self._quant_args(variables)
        if not levels:
            return f
        return self._exists_core(f, levels, sids, 0)

    def forall(self, f: int, variables: Iterable[int] | QuantSet) -> int:
        """Universal quantification of ``variables`` (indices) from ``f``."""
        return self.exists(f ^ 1, variables) ^ 1

    def and_exists(
        self, f: int, g: int, variables: Iterable[int] | QuantSet
    ) -> int:
        """Fused relational product ``∃ variables . (f ∧ g)``.

        This is the core primitive of image computation: the conjunction is
        never materialised above the quantified variables, which is what
        makes partitioned image computation feasible.  ``variables`` may
        be a plain iterable or a pre-interned :meth:`quant_set`.
        """
        levels, sids = self._quant_args(variables)
        if not levels:
            return self.apply_and(f, g)
        return self._andex_core(f, g, levels, sids, 0)

    # ------------------------------------------------------------------ #
    # Cofactor, composition, renaming
    # ------------------------------------------------------------------ #

    def restrict(self, f: int, var: int, value: bool | int) -> int:
        """Cofactor of ``f`` with respect to ``var = value``.

        Iterative (explicit stack): safe at any BDD depth.  Cofactoring
        commutes with negation, so both polarities of every sub-DAG
        share one cache entry (the sign is stripped per frame).
        """
        val = 1 if value else 0
        target = self._var2level[var]
        computed = self._computed
        counters = self._counters
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        var2level = self._var2level
        stack: list[tuple] = [(0, f)]
        rstack: list[int] = []
        while stack:
            fr = stack.pop()
            if fr[0] == 0:
                f = fr[1]
                if f < 2 or var2level[var_arr[f]] > target:
                    rstack.append(f)
                    continue
                sign = f & 1
                f ^= sign
                if var_arr[f] == var:
                    rstack.append((hi_arr[f] if val else lo_arr[f]) ^ sign)
                    continue
                key = ((f << _EDGE_SHIFT | var) << 1 | val) << 4 | _OP_RESTRICT
                r = computed.get(key)
                if r is not None:
                    counters[0] += 1
                    rstack.append(r ^ sign)
                    continue
                stack.append((1, key, var_arr[f], sign))
                stack.append((0, hi_arr[f]))
                stack.append((0, lo_arr[f]))
            else:
                hi = rstack.pop()
                lo = rstack.pop()
                r = self._mk(fr[2], lo, hi)
                computed[fr[1]] = r
                rstack.append(r ^ fr[3])
        return rstack[0]

    def cofactor_cube(self, f: int, cube: int | Mapping[int, bool | int]) -> int:
        """Cofactor of ``f`` by a cube: every variable the cube binds is fixed.

        ``cube`` is a conjunction of literals, given as its edge or as a
        ``var -> value`` mapping (built with :meth:`cube`); TRUE binds
        nothing.  One pass over ``f`` reads the cube once: a node on a
        bound variable is skipped for its bound child, a node below the
        cube's bottom is kept, any other node is rebuilt from its two
        cofactors.  Only the root result is cached, under ``f`` and the
        rest of the cube below ``f``'s top variable, so callers that
        first project the cube onto ``f``'s support share the entry
        across cubes that agree there.  Cofactoring commutes with
        negation, so both polarities of ``f`` share it.  Runs on the
        bound execution core (see :meth:`set_apply_core`).
        """
        if not isinstance(cube, int):
            cube = self.cube(cube)
        if cube == FALSE:
            raise BddError("cofactor by the FALSE cube")
        return self._cofactor_core(f, cube)

    def constrain(self, f: int, c: int) -> int:
        """Generalised cofactor (Coudert-Madre constrain operator).

        Returns a function that agrees with ``f`` everywhere ``c`` holds
        (``constrain(f,c) ∧ c == f ∧ c``) and is typically smaller than
        ``f`` — the classic image-computation simplification: the
        transition parts can be constrained by the current frontier.
        ``c`` must not be FALSE.  Iterative; safe at any depth.
        """
        if c == FALSE:
            raise BddError("constrain by the FALSE function")
        if c == TRUE or f < 2:
            return f
        computed = self._computed
        counters = self._counters
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        var2level = self._var2level
        level2var = self._level2var
        stack: list[tuple] = [(0, f, c)]
        rstack: list[int] = []
        while stack:
            fr = stack.pop()
            tag = fr[0]
            if tag == 0:
                f = fr[1]
                c = fr[2]
                if c == TRUE or f < 2:
                    rstack.append(f)
                    continue
                if f == c:
                    rstack.append(TRUE)
                    continue
                if f == c ^ 1:
                    rstack.append(FALSE)
                    continue
                # Constrain commutes with negation of f (it composes f
                # with a mapping that depends only on c).
                sign = f & 1
                f ^= sign
                key = (f << _EDGE_SHIFT | c) << 4 | _OP_CONSTRAIN
                r = computed.get(key)
                if r is not None:
                    counters[0] += 1
                    rstack.append(r ^ sign)
                    continue
                lf = var2level[var_arr[f]]
                lc = var2level[var_arr[c]]
                top = lf if lf < lc else lc
                if lf == top:
                    f0, f1 = lo_arr[f], hi_arr[f]
                else:
                    f0 = f1 = f
                if lc == top:
                    c0, c1 = lo_arr[c], hi_arr[c]
                else:
                    c0 = c1 = c
                if c0 == FALSE:
                    stack.append((2, key, sign))
                    stack.append((0, f1, c1))
                elif c1 == FALSE:
                    stack.append((2, key, sign))
                    stack.append((0, f0, c0))
                else:
                    stack.append((1, key, level2var[top], sign))
                    stack.append((0, f1, c1))
                    stack.append((0, f0, c0))
            elif tag == 1:
                hi = rstack.pop()
                lo = rstack.pop()
                r = self._mk(fr[2], lo, hi)
                computed[fr[1]] = r
                rstack.append(r ^ fr[3])
            else:
                r = rstack.pop()
                computed[fr[1]] = r
                rstack.append(r ^ fr[2])
        return rstack[0]

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` in ``f``.

        Iterative walk of ``f`` down to ``var``'s level; the recombination
        runs through :meth:`ite` (itself iterative), so composition is
        safe at any depth.
        """
        target = self._var2level[var]
        computed = self._computed
        counters = self._counters
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        var2level = self._var2level
        stack: list[tuple] = [(0, f)]
        rstack: list[int] = []
        while stack:
            fr = stack.pop()
            if fr[0] == 0:
                f = fr[1]
                if f < 2 or var2level[var_arr[f]] > target:
                    rstack.append(f)
                    continue
                sign = f & 1
                f ^= sign
                key = ((f << _EDGE_SHIFT | g) << _EDGE_SHIFT | var) << 4 | _OP_COMPOSE
                r = computed.get(key)
                if r is not None:
                    counters[0] += 1
                    rstack.append(r ^ sign)
                    continue
                if var_arr[f] == var:
                    r = self.ite(g, hi_arr[f], lo_arr[f])
                    computed[key] = r
                    rstack.append(r ^ sign)
                    continue
                stack.append((1, key, var_arr[f], sign))
                stack.append((0, hi_arr[f]))
                stack.append((0, lo_arr[f]))
            else:
                c1 = rstack.pop()
                c0 = rstack.pop()
                r = self.ite(self.var_node(fr[2]), c1, c0)
                computed[fr[1]] = r
                rstack.append(r ^ fr[3])
        return rstack[0]

    def vector_compose(self, f: int, substitution: Mapping[int, int]) -> int:
        """Simultaneously substitute ``substitution[var]`` for each var.

        Implemented by introducing the substitutions bottom-up, which is
        correct because each single :meth:`compose` removes its variable.
        Simultaneity holds when the substituted functions do not mention
        the substituted variables; that is asserted.
        """
        sub_vars = set(substitution)
        for g in substitution.values():
            if self.support(g) & sub_vars:
                raise BddError(
                    "vector_compose requires substitutions independent of substituted vars"
                )
        for var in sorted(sub_vars, key=lambda v: self._var2level[v], reverse=True):
            f = self.compose(f, var, substitution[var])
        return f

    def rename_map(self, var_map: Mapping[int, int] | RenameMap) -> RenameMap:
        """Intern a rename map for repeated use (the rename counterpart of
        :meth:`quant_set`).

        Identity entries are dropped and the rest is interned by its
        sorted pairs, so equal maps share one id and one set of
        computed-table entries.  Passing the result to :meth:`rename`
        makes a computed-table hit one probe; a plain dict pays the
        filter/sort/intern pass on every call.
        """
        if type(var_map) is RenameMap:
            return var_map
        pairs = {int(old): int(new) for old, new in var_map.items() if old != new}
        key = tuple(sorted(pairs.items()))
        intern = self._rename_intern
        interned = intern.get(key)
        if interned is None:
            interned = RenameMap(len(intern), pairs)
            intern[key] = interned
        return interned

    def rename(self, f: int, var_map: Mapping[int, int] | RenameMap) -> int:
        """Rename variables of ``f`` according to ``var_map`` (old -> new).

        ``var_map`` is a dict or a pre-interned :meth:`rename_map`.  One
        iterative structural rebuild of ``f``: each node is rebuilt
        directly under its new variable where that respects the order,
        and through :meth:`ite` on the new variable's literal where it
        does not.  An order-preserving map (the ``ns -> cs`` rename of a
        paired or blocked order) thus costs one pass over ``f``, and a
        map that a reorder has scrambled costs small ``ite`` calls only
        at the nodes it moves.  The substitution is simultaneous, so a
        map may swap variables.
        """
        if type(var_map) is not RenameMap:
            var_map = self.rename_map(var_map)
        if f < 2 or not var_map.pairs:
            return f
        sign = f & 1
        f ^= sign
        key = (f << _EDGE_SHIFT | var_map.map_id) << 4 | _OP_RENAME
        r = self._computed.get(key)
        if r is not None:
            self._counters[0] += 1
            return r ^ sign
        r = self._rename_struct(f, var_map.pairs)
        self._computed[key] = r
        return r ^ sign

    def _rename_struct(self, f: int, var_map: Mapping[int, int]) -> int:
        """Structural rebuild rename (iterative postorder with memo)."""
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        var2level = self._var2level
        mk = self._mk
        memo: dict[int, int] = {}
        stack: list[tuple[int, int]] = [(0, f)]
        rstack: list[int] = []
        while stack:
            tag, e = stack.pop()
            if tag == 0:
                if e < 2:
                    rstack.append(e)
                    continue
                r = memo.get(e)
                if r is not None:
                    rstack.append(r)
                    continue
                stack.append((1, e))
                stack.append((0, hi_arr[e]))
                stack.append((0, lo_arr[e]))
            else:
                hi = rstack.pop()
                lo = rstack.pop()
                var = var_map.get(var_arr[e], var_arr[e])
                level = var2level[var]
                if (lo >= 2 and var2level[var_arr[lo]] <= level) or (
                    hi >= 2 and var2level[var_arr[hi]] <= level
                ):
                    r = self.ite(self.var_node(var), hi, lo)
                else:
                    r = mk(var, lo, hi)
                memo[e] = r
                rstack.append(r)
        return rstack[0]

    def split_by_vars(self, f: int, split_vars: Iterable[int]) -> dict[int, int]:
        """Partition ``f`` into its cofactor classes w.r.t. ``split_vars``.

        Returns ``{leaf: condition}``: each ``leaf`` is a distinct
        cofactor of ``f`` over the split variables (a function of the
        other variables) and its ``condition`` covers exactly the
        split-variable assignments producing it.  The partition is
        complete: the FALSE cofactor is a class like any other, so the
        conditions are pairwise disjoint and OR to TRUE.  Classes come in
        lo-first order: a split node lists the classes of its low child,
        then the classes only its high child reaches.  Every split
        variable must sit above every other variable in the support of
        ``f`` (checked).

        At a split node on ``v`` a class condition is ``ite(v, hi_cond,
        lo_cond)`` over conditions that only mention split variables
        below ``v`` — ``ite``'s projection case — so it is built with an
        inlined unique-table lookup.  Each node's class map is memoised
        across calls, per split-variable set: the subset construction
        splits many relations that share sub-DAGs.  Memoised edges are
        not pinned, so the memo is flushed with the computed table
        (:meth:`clear_caches`: every reclaiming sweep, every reorder,
        the computed-table cap), and by the next call once it holds more
        than :data:`SPLIT_MEMO_BUDGET` pairs.
        :func:`~repro.bdd.backends.protocol.generic_split_by_vars` is the
        protocol-only form of the same algorithm.
        """
        split_set = frozenset(split_vars)
        if self._split_pairs > SPLIT_MEMO_BUDGET:
            self._split_memo.clear()
            self._split_pairs = 0
        memo = self._split_memo.get(split_set)
        if memo is None:
            memo = self._split_memo[split_set] = {}
        memo_get = memo.get
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        var2level = self._var2level
        subtables = self._subtables
        counters = self._counters
        mk_new = self._mk_new
        max_split = max((var2level[v] for v in split_set), default=-1)
        S = _EDGE_SHIFT

        def rec(node: int) -> dict[int, int]:
            result = memo_get(node)
            if result is not None:
                return result
            var = var_arr[node]
            if var not in split_set:
                # A leaf is its own single class; only split nodes are
                # memoised, so the budget goes to the shared sub-DAGs.
                if node >= 2 and var2level[var] < max_split:
                    raise BddError(
                        f"split_by_vars: non-split variable "
                        f"{self._var_names[var]!r} above split vars"
                    )
                return {node: TRUE}
            lo = rec(lo_arr[node])
            hi = rec(hi_arr[node])
            hi_get = hi.get
            result = dict(lo)
            for leaf in hi:
                result.setdefault(leaf, FALSE)
            sub = subtables[var]
            sub_get = sub.get
            for leaf, lc in result.items():
                hc = hi_get(leaf, FALSE)
                # Inlined _mk(var, lc, hc); lc == hc keeps lc.
                if lc == hc:
                    continue
                negate = hc & 1
                if negate:
                    lc ^= 1
                    hc ^= 1
                ukey = lc << S | hc
                edge = sub_get(ukey)
                if edge is not None:
                    counters[2] += 1
                    result[leaf] = edge | negate
                else:
                    result[leaf] = mk_new(var, sub, ukey, lc, hc) | negate
            memo[node] = result
            self._split_pairs += len(result)
            return result

        return dict(rec(f))

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #

    def ref(self, f: int) -> int:
        """Pin ``f`` as an external root; returns ``f`` for chaining.

        Referenced edges (and everything reachable from them) survive
        :meth:`collect_garbage`.  Balance with :meth:`deref`, or use the
        :meth:`protect` context manager.
        """
        n = f & -2
        if n:
            extref = self._extref
            extref[n] = extref.get(n, 0) + 1
        return f

    def deref(self, f: int) -> None:
        """Release one external reference to ``f`` (no-op below zero)."""
        n = f & -2
        if n:
            count = self._extref.get(n, 0)
            if count <= 1:
                self._extref.pop(n, None)
            else:
                self._extref[n] = count - 1

    @contextmanager
    def protect(self, *roots: int) -> Iterator["BddManager"]:
        """Context manager pinning ``roots`` for the duration of a block.

        >>> m = BddManager()
        >>> x = m.var_node(m.add_var("x"))
        >>> with m.protect(x):
        ...     _ = m.collect_garbage()
        """
        for f in roots:
            self.ref(f)
        try:
            yield self
        finally:
            for f in roots:
                self.deref(f)

    def should_collect(self) -> bool:
        """Cheap trigger delegating to :attr:`gc_policy`.

        Static policy: live nodes grew past the floor *and* the growth
        factor since the last collection.  Adaptive policy: same test,
        but the floor backs off after consecutive unprofitable sweeps
        (see :class:`~repro.bdd.policy.GcPolicy`).

        This is the kernel's GC safe point (no operator is on the stack),
        so it also bounds the computed table: once the table holds
        :data:`COMPUTED_TABLE_CAP` entries it is flushed.  Sweeps flush
        it too, but only as often as dead nodes pile up.
        """
        if len(self._computed) >= COMPUTED_TABLE_CAP:
            self.clear_caches()
        return self.gc_policy.should_collect(self._nb[0], self._gc_baseline)

    def collect_garbage(self, roots: Iterable[int] = ()) -> int:
        """Reclaim every node unreachable from refs, ``roots`` or literals.

        Returns the number of reclaimed nodes.  Edges of surviving nodes
        are stable (freed slots are recycled by later ``_mk`` calls), so
        held edges of *live* functions remain valid.  The sweep is
        **level-local**: each per-level subtable is scanned over its live
        entries only (dead slots are never touched), and a sweep that
        reclaims anything flushes the computed table before any slot can
        be reused — stale hits are impossible.  Variable literal nodes are
        always kept, so literal edges held by callers can never dangle.

        Every sweep reports its reclaim ratio to :attr:`gc_policy` (which
        may back off the collection floor) and asks :attr:`reorder_policy`
        whether the live structure should be sifted — an unprofitable
        sweep means the *live* BDDs are what is big, and only a better
        variable order shrinks those.  A triggered sift runs in place
        (:func:`repro.bdd.reorder.sift`), so every edge held by a caller
        — including ``roots`` and all pinned references — remains valid.
        """
        with obs_span("gc_sweep", live_before=self._nb[0]) as sweep_span:
            reclaimed = self._collect_garbage(list(roots))
            sweep_span.set(reclaimed=reclaimed, live=self._nb[0])
        return reclaimed

    def _collect_garbage(self, roots: list[int]) -> int:
        nb = self._nb
        live_before = nb[0]
        if live_before > self._peak_live:
            self._peak_live = live_before
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        marked = bytearray(len(var_arr))
        marked[0] = marked[1] = 1
        stack = list(self._extref)
        stack.extend(roots)
        subtables = self._subtables
        # Literal nodes store canonically as (lo=TRUE, hi=FALSE) — the
        # complement moved onto the returned edge — so their packed
        # subtable key is ``TRUE << _EDGE_SHIFT``.
        lit_key = TRUE << _EDGE_SHIFT
        for sub in subtables:
            lit = sub.get(lit_key)
            if lit is not None:
                stack.append(lit)
        while stack:
            e = stack.pop()
            if marked[e]:
                continue
            e &= -2
            marked[e] = marked[e + 1] = 1
            stack.append(lo_arr[e])
            stack.append(hi_arr[e])
        reclaimed = 0
        free = self._free
        for sub in subtables:
            if not sub:
                continue
            dead = [ukey for ukey, e in sub.items() if not marked[e]]
            if not dead:
                continue
            for ukey in dead:
                e = sub.pop(ukey)
                var_arr[e] = var_arr[e + 1] = _FREE
                free.append(e)
            reclaimed += len(dead)
        if reclaimed:
            nb[0] = live_before - reclaimed
            self.clear_caches()
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        self._gc_baseline = nb[0]
        ratio = self.gc_policy.record(live_before, reclaimed)
        self._gc_ratio_sum += ratio
        if self.reorder_policy.should_reorder(nb[0], ratio):
            from repro.bdd.reorder import sift

            policy = self.reorder_policy
            with obs_span("sift", trigger="gc") as sift_span:
                result = sift(
                    self,
                    roots,
                    max_growth=policy.max_growth,
                    max_vars=policy.max_vars,
                )
                sift_span.set(
                    swaps=result.swaps, size_after=result.size_after
                )
            self._reorder_runs += 1
            self._reorder_swaps += result.swaps
            policy.record_reorder(nb[0])
            self._gc_baseline = nb[0]
        return reclaimed

    def maybe_collect_garbage(self, roots: Iterable[int] = ()) -> int:
        """Run :meth:`collect_garbage` iff :meth:`should_collect` is armed."""
        if self.should_collect():
            return self.collect_garbage(roots)
        return 0

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def support(self, f: int) -> set[int]:
        """Set of variable indices ``f`` depends on."""
        seen: set[int] = set()
        result: set[int] = set()
        stack = [f & -2]
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        while stack:
            n = stack.pop()
            if n == 0 or n in seen:
                continue
            seen.add(n)
            result.add(var_arr[n])
            stack.append(lo_arr[n] & -2)
            stack.append(hi_arr[n] & -2)
        return result

    def size(self, f: int) -> int:
        """Number of internal nodes in the DAG rooted at ``f``.

        With complement edges, a function and its negation share all their
        nodes, so ``size(f) == size(apply_not(f))``.
        """
        return self.size_many([f])

    def size_many(self, roots: Iterable[int]) -> int:
        """Number of distinct internal nodes among several roots."""
        seen: set[int] = set()
        stack = [f & -2 for f in roots]
        lo_arr, hi_arr = self._lo, self._hi
        while stack:
            n = stack.pop()
            if n == 0 or n in seen:
                continue
            seen.add(n)
            stack.append(lo_arr[n] & -2)
            stack.append(hi_arr[n] & -2)
        return len(seen)

    def eval(self, f: int, assignment: Mapping[str, bool | int]) -> bool:
        """Evaluate ``f`` under a name -> value assignment."""
        node = f
        while node >= 2:
            name = self._var_names[self._var[node]]
            node = self._hi[node] if assignment[name] else self._lo[node]
        return node == TRUE

    def eval_vars(self, f: int, assignment: Mapping[int, bool | int]) -> bool:
        """Evaluate ``f`` under a var-index -> value assignment."""
        node = f
        while node >= 2:
            node = self._hi[node] if assignment[self._var[node]] else self._lo[node]
        return node == TRUE

    def cube(self, assignment: Mapping[int, bool | int]) -> int:
        """Build the conjunction of literals given by ``assignment``."""
        f = TRUE
        for var, val in sorted(
            assignment.items(), key=lambda kv: self._var2level[kv[0]], reverse=True
        ):
            f = self._mk(var, FALSE, f) if val else self._mk(var, f, FALSE)
        return f

    # ------------------------------------------------------------------ #
    # Statistics and maintenance
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> dict[str, object]:
        """Counter snapshot: table hits/misses, recursion, GC, reordering
        and per-level occupancy.

        ``cache_misses`` (= ``recursive_calls``) is derived: every miss
        stores exactly one computed-table entry, so the count is the
        live entry count plus a compensation cell fed by sweeps, flushes
        and :meth:`reset_stats`.  A cold ``cofactor_cube`` stores only
        its root entry and adds the other nodes its walk rebuilt to the
        cell, so the count stays a count of work.  ``reclaim_ratio_avg`` is the mean
        reclaim ratio over all sweeps so far (1.0 when no sweep has
        run); ``reorder_runs`` / ``reorder_swaps`` count completed sifts
        and the adjacent-level swaps they performed.
        ``nodes_per_level`` lists live node counts from the top of the
        order to the bottom (the terminal is outside all levels);
        ``subtable_count`` is the number of per-level subtables (one per
        declared variable).
        """
        gc_runs = self._gc_runs
        avg_ratio = self._gc_ratio_sum / gc_runs if gc_runs else 1.0
        misses = self._counters[1] + len(self._computed)
        live = self._nb[0]
        return {
            "unique_hits": self._counters[2],
            "cache_hits": self._counters[0],
            # Every cache miss recurses exactly once, so the two coincide.
            "cache_misses": misses,
            "recursive_calls": misses,
            "gc_runs": gc_runs,
            "gc_reclaimed": self._gc_reclaimed,
            "reclaim_ratio_avg": avg_ratio,
            "reorder_runs": self._reorder_runs,
            "reorder_swaps": self._reorder_swaps,
            # The live count only drops at collection points, where the
            # peak is recorded; between them "now" may be the new peak.
            "peak_live_nodes": max(self._peak_live, live),
            "live_nodes": live,
            "nodes_per_level": [
                len(self._subtables[v]) for v in self._level2var
            ],
            "subtable_count": len(self._subtables),
        }

    def nodes_at_level(self, level: int) -> int:
        """Number of live nodes at ``level`` (free with per-level subtables)."""
        return len(self._subtables[self._level2var[level]])

    def cache_hit_rate(self) -> float:
        """Computed-table hit rate over all lookups so far (0.0 when idle)."""
        hits = self._counters[0]
        lookups = hits + self._counters[1] + len(self._computed)
        if not lookups:
            return 0.0
        return hits / lookups

    def reset_stats(self) -> None:
        """Zero all counters (``peak_live_nodes`` restarts at the current
        live count)."""
        self._counters[0] = 0
        # Derived misses restart at zero: compensate away the live entries.
        self._counters[1] = -len(self._computed)
        self._counters[2] = 0
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._gc_ratio_sum = 0.0
        self._reorder_runs = 0
        self._reorder_swaps = 0
        self._peak_live = self._nb[0]

    def clear_caches(self) -> None:
        """Drop the computed table and the :meth:`split_by_vars` memo (the
        unique subtables are preserved)."""
        self._counters[1] += len(self._computed)
        self._computed.clear()
        self._split_memo.clear()
        self._split_pairs = 0

    def computed_table_size(self) -> int:
        """Number of live computed-table entries."""
        return len(self._computed)

    def sift_now(
        self,
        roots: Iterable[int] = (),
        *,
        max_growth: float = 1.2,
        max_vars: int | None = None,
    ) -> "SiftResult":
        """Run one in-place sifting pass immediately.

        Protocol entry point for explicit reordering (the policy-driven
        path stays inside :meth:`collect_garbage`): delegates to
        :func:`repro.bdd.reorder.sift`, honouring the reorder block
        boundaries and keeping every live edge valid.  Returns the
        :class:`~repro.bdd.reorder.SiftResult`.
        """
        from repro.bdd.reorder import sift

        with obs_span("sift", trigger="explicit") as sift_span:
            result = sift(self, roots, max_growth=max_growth, max_vars=max_vars)
            sift_span.set(swaps=result.swaps, size_after=result.size_after)
        return result

    def dump_nodes(self, roots: Sequence[int]) -> dict:
        """Snapshot the shared DAG of ``roots`` (``repro-bdd-nodes/1``).

        Protocol method delegating to :func:`repro.bdd.io.dump_nodes`;
        every backend emits the same packed-array format, which is what
        makes cross-backend transfer (and the conformance kit's
        edge-for-edge comparison) possible.
        """
        from repro.bdd.io import dump_nodes

        return dump_nodes(self, roots)

    def load_nodes(self, data: Mapping) -> list[int]:
        """Rebuild a snapshot taken by any backend's ``dump_nodes``."""
        from repro.bdd.io import load_nodes

        return load_nodes(self, data)

    def check(self) -> None:
        """Assert the kernel's structural invariants (slow; for tests).

        Verifies, over every live node:

        * canonical form — the stored then-edge is regular (complement
          bits only ever appear on else-edges and external edges);
        * ordering — both children sit at strictly lower levels;
        * reduction — no node has identical children;
        * table consistency — each per-level subtable maps exactly the
          live packed ``(lo, hi)`` pairs of its variable to their edges,
          every live slot appears in its variable's subtable, and the
          mirrored odd slots hold the complement-propagated children;
        * the live count equals the total subtable occupancy + 1.

        Raises :class:`~repro.errors.BddError` on the first violation.
        """
        var_arr, lo_arr, hi_arr = self._var, self._lo, self._hi
        live = 0
        for var, sub in enumerate(self._subtables):
            here = self._var2level[var]
            for ukey, e in sub.items():
                live += 1
                lo = ukey >> _EDGE_SHIFT
                hi = ukey & _EDGE_MASK
                if var_arr[e] != var:
                    raise BddError(f"node {e}: subtable/var mismatch ({var})")
                if hi & 1:
                    raise BddError(f"node {e}: stored then-edge {hi} is complemented")
                if lo == hi:
                    raise BddError(f"node {e}: unreduced (lo == hi == {lo})")
                if lo_arr[e] != lo or hi_arr[e] != hi:
                    raise BddError(f"node {e}: subtable key out of sync")
                for child in (lo, hi):
                    if child >= 2 and self._var2level[var_arr[child & -2]] <= here:
                        raise BddError(f"node {e}: child {child} not below level {here}")
                if var_arr[e + 1] != var or lo_arr[e + 1] != lo ^ 1 or hi_arr[e + 1] != hi ^ 1:
                    raise BddError(f"node {e}: odd-slot mirror out of sync")
        scanned = 0
        for e in range(2, len(var_arr), 2):
            v = var_arr[e]
            if v == _FREE:
                continue
            scanned += 1
            if self._subtables[v].get(lo_arr[e] << _EDGE_SHIFT | hi_arr[e]) != e:
                raise BddError(f"node {e}: missing from its subtable")
        if live != scanned or live + 1 != self._nb[0]:
            raise BddError(
                f"live-count mismatch: subtables {live + 1}, arrays {scanned + 1}, "
                f"tracked {self._nb[0]}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BddManager vars={self.num_vars} nodes={self._nb[0]}>"
