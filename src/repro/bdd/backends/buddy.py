"""ctypes adapter to the native BuDDy BDD library.

:class:`BuddyManager` implements the
:class:`~repro.bdd.backends.protocol.BddBackend` protocol on top of
BuDDy 2.x (``libbdd.so``), the C kernel the reproduced paper's own
toolchain family (VIS/MVSIS) descends from.  The solver stack runs on
it unchanged — and, because every backend must produce canonical BDDs,
it must produce *identical* languages, automata and KISS bytes; the
conformance kit (:mod:`repro.bdd.backends.conformance`) and the
solver-level differential tests enforce that edge for edge.

Differences from the pure-Python reference, hidden behind the protocol:

* **No complement edges.**  Handles are BuDDy node indices; negation is
  ``bdd_not`` (a table operation), not a bit flip.  Terminals are the
  same ``0``/``1``.
* **Reference counting is explicit in C.**  Every operator result is
  immediately ``bdd_addref``'d and tracked by the adapter, mirroring
  the reference kernel's "everything lives until a collection" model;
  :meth:`BuddyManager.collect_garbage` drops the adapter's holds
  (except pins and the given roots) and runs ``bdd_gbc``.
* **One instance per process.**  BuDDy is a global-state library:
  constructing a second live :class:`BuddyManager` in the same process
  raises, :meth:`BuddyManager.close` tears the state down
  (``bdd_done``), and a ``fork``'d shard worker transparently re-owns
  the inherited state by re-initialising it.

Library discovery (:func:`find_buddy_library`) honours the
``REPRO_BUDDY_LIB`` environment variable, then the system linker path
(``libbdd`` / ``libbuddy``).  When nothing is found the registry probe
fails and :func:`repro.bdd.backends.create_manager` falls back to pure
Python with a single warning; nothing in the default install path ever
requires the native library.

Tuning at ``bdd_init`` follows the adapter lineage for solver
workloads: a generous initial node table, ``bdd_setminfreenodes(33)``
(grow when less than a third of the table frees per collection) and a
bounded ``bdd_setmaxincrease`` so growth stays incremental.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import warnings
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager

from repro.bdd.io import NODES_FORMAT
from repro.bdd.manager import ensure_recursion_limit
from repro.errors import BddError, BddNodeLimit

#: BuDDy ``bdd_apply`` operator codes (bdd.h).
_OP_AND = 0
_OP_XOR = 1
_OP_OR = 2
_OP_BIIMP = 6
_OP_DIFF = 7

#: BuDDy error codes mapped to :class:`~repro.errors.BddNodeLimit`
#: (out of memory / node table cannot grow / max node count reached).
_LIMIT_ERRORS = frozenset({-1, -11, -17})

_ERR_HOOK_T = ctypes.CFUNCTYPE(None, ctypes.c_int)
_VOID_HOOK_T = ctypes.c_void_p

#: Loaded-and-typed CDLL per library path (a CDLL is process-global
#: state; loading it twice would not give independent managers anyway).
_LIBS: dict[str, ctypes.CDLL] = {}

#: The single live manager of this process: ``[manager, pid]``.  The
#: pid detects ``fork``'d shard workers, which inherit initialised
#: BuDDy state they must tear down before re-initialising their own.
_ACTIVE: list = [None, 0]


def find_buddy_library() -> str | None:
    """Locate the BuDDy shared library, or ``None``.

    ``REPRO_BUDDY_LIB`` (an explicit path or loader-resolvable name)
    wins; otherwise the system linker path is searched for ``bdd`` and
    ``buddy``.  This doubles as the registry availability probe, so it
    must stay cheap and never raise.
    """
    env = os.environ.get("REPRO_BUDDY_LIB", "").strip()
    if env:
        return env
    for name in ("bdd", "buddy"):
        try:
            path = ctypes.util.find_library(name)
        except Exception:  # pragma: no cover - platform-specific failure
            path = None
        if path:
            return path
    return None


def _load_library(path: str) -> ctypes.CDLL:
    lib = _LIBS.get(path)
    if lib is not None:
        return lib
    from repro.bdd.backends import BackendUnavailable

    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise BackendUnavailable(
            f"could not load BuDDy shared library {path!r}: {exc}"
        ) from exc
    _declare(lib)
    _LIBS[path] = lib
    return lib


def _declare(lib: ctypes.CDLL) -> None:
    """Pin argument/result types for every entry point the adapter uses."""
    c_int, c_void_p = ctypes.c_int, ctypes.c_void_p
    int_p = ctypes.POINTER(c_int)
    sigs: dict[str, tuple[list, object]] = {
        "bdd_init": ([c_int, c_int], c_int),
        "bdd_done": ([], None),
        "bdd_isrunning": ([], c_int),
        "bdd_setvarnum": ([c_int], c_int),
        "bdd_extvarnum": ([c_int], c_int),
        "bdd_varnum": ([], c_int),
        "bdd_setminfreenodes": ([c_int], c_int),
        "bdd_setmaxincrease": ([c_int], c_int),
        "bdd_setmaxnodenum": ([c_int], c_int),
        "bdd_setcacheratio": ([c_int], c_int),
        "bdd_getnodenum": ([], c_int),
        "bdd_ithvar": ([c_int], c_int),
        "bdd_nithvar": ([c_int], c_int),
        "bdd_var": ([c_int], c_int),
        "bdd_low": ([c_int], c_int),
        "bdd_high": ([c_int], c_int),
        "bdd_not": ([c_int], c_int),
        "bdd_apply": ([c_int, c_int, c_int], c_int),
        "bdd_ite": ([c_int, c_int, c_int], c_int),
        "bdd_restrict": ([c_int, c_int], c_int),
        "bdd_replace": ([c_int, c_void_p], c_int),
        "bdd_newpair": ([], c_void_p),
        "bdd_setpair": ([c_void_p, c_int, c_int], c_int),
        "bdd_freepair": ([c_void_p], None),
        "bdd_exist": ([c_int, c_int], c_int),
        "bdd_appex": ([c_int, c_int, c_int, c_int], c_int),
        "bdd_makeset": ([int_p, c_int], c_int),
        "bdd_support": ([c_int], c_int),
        "bdd_satcount": ([c_int], ctypes.c_double),
        "bdd_addref": ([c_int], c_int),
        "bdd_delref": ([c_int], c_int),
        "bdd_gbc": ([], None),
        "bdd_nodecount": ([c_int], c_int),
        "bdd_anodecount": ([int_p, c_int], c_int),
        "bdd_level2var": ([c_int], c_int),
        "bdd_var2level": ([c_int], c_int),
        "bdd_setvarorder": ([int_p], None),
        "bdd_error_hook": ([_ERR_HOOK_T], _VOID_HOOK_T),
        "bdd_gbc_hook": ([_VOID_HOOK_T], _VOID_HOOK_T),
        "bdd_resize_hook": ([_VOID_HOOK_T], _VOID_HOOK_T),
    }
    for name, (argtypes, restype) in sigs.items():
        try:
            fn = getattr(lib, name)
        except AttributeError:
            continue  # optional entry points may be absent in old builds
        fn.argtypes = argtypes
        fn.restype = restype


class BuddyQuantSet:
    """Pre-built quantification cube (the BuDDy analogue of
    :class:`~repro.bdd.manager.QuantSet`): the positive cube of the
    variable set, built once with ``bdd_makeset`` and pinned."""

    __slots__ = ("cube", "vars")

    def __init__(self, mgr: "BuddyManager", variables: Iterable[int]) -> None:
        self.vars = tuple(dict.fromkeys(int(v) for v in variables))
        self.cube = mgr._makeset(self.vars)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vars)

    def __len__(self) -> int:
        return len(self.vars)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BuddyQuantSet vars={self.vars}>"


class BuddyRenameMap:
    """Interned rename map (the BuDDy analogue of
    :class:`~repro.bdd.manager.RenameMap`): the ``bddPair`` is built
    once and lives as long as the library state, which frees every pair
    in ``bdd_done``."""

    __slots__ = ("pair", "pairs")

    def __init__(self, pair, pairs: dict[int, int]) -> None:
        self.pair = pair
        self.pairs = pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BuddyRenameMap pairs={self.pairs}>"


class BuddyManager:
    """BuDDy-backed implementation of the :class:`BddBackend` protocol.

    Constructor keywords mirror :class:`~repro.bdd.manager.BddManager`
    so :func:`~repro.bdd.backends.create_manager` can pass one kwargs
    surface to either backend.  ``nodesize``/``cachesize`` seed
    ``bdd_init`` and only matter for performance, never results.
    """

    backend_name = "buddy"

    def __init__(
        self,
        max_nodes: int | None = None,
        *,
        gc_min_live: int = 100_000,
        gc_growth: float = 2.0,
        nodesize: int = 1_000_000,
        cachesize: int = 100_000,
        lib_path: str | None = None,
    ) -> None:
        path = lib_path or find_buddy_library()
        if path is None:
            from repro.bdd.backends import BackendUnavailable

            raise BackendUnavailable(
                "BuDDy shared library not found "
                "(set REPRO_BUDDY_LIB or install libbdd)"
            )
        lib = _load_library(path)
        active, active_pid = _ACTIVE
        if active is not None:
            if active_pid == os.getpid():
                raise BddError(
                    "BuDDy holds process-global state; close() the "
                    "existing BuddyManager before creating another"
                )
            # A fork()'d worker inherited the parent's initialised
            # library state: tear it down before claiming our own.
            if lib.bdd_isrunning():
                lib.bdd_done()
            _ACTIVE[0] = None
        if lib.bdd_isrunning():
            lib.bdd_done()
        if lib.bdd_init(nodesize, cachesize) < 0:
            raise BddError("bdd_init failed")
        self._lib = lib
        self._closed = False
        # Silence the default stderr chatter and replace the default
        # error handler (which calls abort()) with a latch the adapter
        # checks after every operation.
        self._err_code: int | None = None

        def _on_error(code: int) -> None:
            self._err_code = code

        self._err_hook = _ERR_HOOK_T(_on_error)  # keep the callback alive
        lib.bdd_error_hook(self._err_hook)
        lib.bdd_gbc_hook(None)
        lib.bdd_resize_hook(None)
        lib.bdd_setminfreenodes(33)
        lib.bdd_setmaxincrease(max(nodesize, 100_000))
        self._max_nodes = max_nodes
        if max_nodes is not None:
            lib.bdd_setmaxnodenum(max(int(max_nodes), nodesize))
        self.gc_min_live = gc_min_live
        self.gc_growth = gc_growth
        self._var_names: list[str] = []
        self._name_to_var: dict[str, int] = {}
        self._owned: dict[int, int] = {}
        self._extref: dict[int, int] = {}
        self._quant_cubes: dict[tuple[int, ...], int] = {}
        self._rename_maps: dict[tuple[tuple[int, int], ...], BuddyRenameMap] = {}
        self._gc_baseline = 1
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._gc_ratio_sum = 0.0
        self._peak_live = 0
        _ACTIVE[0] = self
        _ACTIVE[1] = os.getpid()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Tear down the process-global BuDDy state (``bdd_done``)."""
        if self._closed:
            return
        self._closed = True
        self._rename_maps.clear()  # bdd_done frees their pairs
        if _ACTIVE[0] is self:
            _ACTIVE[0] = None
            if self._lib.bdd_isrunning():
                self._lib.bdd_done()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"vars={self.num_vars}"
        return f"<BuddyManager {state}>"

    # ------------------------------------------------------------------ #
    # Error latch
    # ------------------------------------------------------------------ #

    def _check(self, r: int) -> int:
        code = self._err_code
        if code is not None:
            self._err_code = None
            if code in _LIMIT_ERRORS:
                raise BddNodeLimit(
                    f"BuDDy node/memory limit reached (error {code})"
                )
            raise BddError(f"BuDDy error {code}")
        return r

    def _own(self, r: int) -> int:
        """addref an operator result and track the hold for GC."""
        r = self._check(r)
        self._lib.bdd_addref(r)
        owned = self._owned
        owned[r] = owned.get(r, 0) + 1
        return r

    # ------------------------------------------------------------------ #
    # Variables and the order
    # ------------------------------------------------------------------ #

    def add_var(self, name: str) -> int:
        if name in self._name_to_var:
            raise BddError(f"variable {name!r} already declared")
        var = len(self._var_names)
        lib = self._lib
        if var == 0:
            self._check(lib.bdd_setvarnum(1))
        else:
            self._check(lib.bdd_extvarnum(1))
        self._var_names.append(name)
        self._name_to_var[name] = var
        # The protocol-level recursions (split, cube enumeration) run in
        # Python on this backend too.
        ensure_recursion_limit(var + 1)
        return var

    def add_vars(self, names: Iterable[str]) -> list[int]:
        return [self.add_var(n) for n in names]

    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    def has_var(self, name: str) -> bool:
        return name in self._name_to_var

    def var_name(self, var: int) -> str:
        return self._var_names[var]

    def var_index(self, name: str) -> int:
        return self._name_to_var[name]

    def var_level(self, var: int) -> int:
        return self._check(self._lib.bdd_var2level(var))

    def var_at_level(self, level: int) -> int:
        return self._check(self._lib.bdd_level2var(level))

    def var_order(self) -> list[str]:
        return [
            self._var_names[self.var_at_level(level)]
            for level in range(len(self._var_names))
        ]

    def set_order(self, names: Sequence[str]) -> None:
        if self._owned or self._extref:
            raise BddError(
                "set_order requires an empty manager; transfer() the "
                "functions into a fresh manager instead"
            )
        if sorted(names) != sorted(self._var_names):
            raise BddError("set_order must mention every declared variable once")
        level_of = {self._name_to_var[n]: lv for lv, n in enumerate(names)}
        arr = (ctypes.c_int * len(names))(
            *[level_of[v] for v in range(len(names))]
        )
        self._lib.bdd_setvarorder(arr)
        self._check(0)

    # ------------------------------------------------------------------ #
    # Edge handles
    # ------------------------------------------------------------------ #

    def var_node(self, var: int) -> int:
        return self._check(self._lib.bdd_ithvar(var))

    def nvar_node(self, var: int) -> int:
        return self._check(self._lib.bdd_nithvar(var))

    def node_var(self, f: int) -> int:
        return self._check(self._lib.bdd_var(f))

    def node_lo(self, f: int) -> int:
        return self._check(self._lib.bdd_low(f))

    def node_hi(self, f: int) -> int:
        return self._check(self._lib.bdd_high(f))

    def level(self, f: int) -> int:
        if f < 2:
            return 1 << 60  # terminals sit below every variable level
        return self.var_level(self.node_var(f))

    # ------------------------------------------------------------------ #
    # Operators
    # ------------------------------------------------------------------ #

    def apply_not(self, f: int) -> int:
        return self._own(self._lib.bdd_not(f))

    def apply_and(self, f: int, g: int) -> int:
        return self._own(self._lib.bdd_apply(f, g, _OP_AND))

    def apply_or(self, f: int, g: int) -> int:
        return self._own(self._lib.bdd_apply(f, g, _OP_OR))

    def apply_xor(self, f: int, g: int) -> int:
        return self._own(self._lib.bdd_apply(f, g, _OP_XOR))

    def apply_iff(self, f: int, g: int) -> int:
        return self._own(self._lib.bdd_apply(f, g, _OP_BIIMP))

    def apply_diff(self, f: int, g: int) -> int:
        return self._own(self._lib.bdd_apply(f, g, _OP_DIFF))

    def ite(self, f: int, g: int, h: int) -> int:
        return self._own(self._lib.bdd_ite(f, g, h))

    # ------------------------------------------------------------------ #
    # Quantification, cofactors and renaming
    # ------------------------------------------------------------------ #

    def _makeset(self, variables: tuple[int, ...]) -> int:
        cube = self._quant_cubes.get(variables)
        if cube is None:
            arr = (ctypes.c_int * max(len(variables), 1))(*variables)
            cube = self._check(self._lib.bdd_makeset(arr, len(variables)))
            self._lib.bdd_addref(cube)  # interned: pinned for the lifetime
            self._quant_cubes[variables] = cube
        return cube

    def quant_set(self, variables: Iterable[int]) -> BuddyQuantSet:
        return BuddyQuantSet(self, variables)

    def _cube_of(self, variables) -> int:
        if isinstance(variables, BuddyQuantSet):
            return variables.cube
        return self._makeset(tuple(dict.fromkeys(int(v) for v in variables)))

    def exists(self, f: int, variables) -> int:
        cube = self._cube_of(variables)
        if cube == 1:
            return f
        return self._own(self._lib.bdd_exist(f, cube))

    def and_exists(self, f: int, g: int, variables) -> int:
        cube = self._cube_of(variables)
        if cube == 1:
            return self.apply_and(f, g)
        return self._own(self._lib.bdd_appex(f, g, _OP_AND, cube))

    def cofactor_cube(self, f: int, cube: int | Mapping[int, bool | int]) -> int:
        if not isinstance(cube, int):
            cube = self.cube(cube)
        if cube == 0:
            raise BddError("cofactor by the FALSE cube")
        return self._own(self._lib.bdd_restrict(f, cube))

    def rename_map(self, var_map) -> BuddyRenameMap:
        if isinstance(var_map, BuddyRenameMap):
            return var_map
        pairs = {int(old): int(new) for old, new in var_map.items() if old != new}
        key = tuple(sorted(pairs.items()))
        interned = self._rename_maps.get(key)
        if interned is None:
            pair = None
            if pairs:
                lib = self._lib
                pair = lib.bdd_newpair()
                try:
                    for old, new in pairs.items():
                        self._check(lib.bdd_setpair(pair, old, new))
                except BaseException:
                    lib.bdd_freepair(pair)
                    raise
            interned = BuddyRenameMap(pair, pairs)
            self._rename_maps[key] = interned
        return interned

    def rename(self, f: int, var_map) -> int:
        rmap = self.rename_map(var_map)
        if not rmap.pairs or f < 2:
            return f
        return self._own(self._lib.bdd_replace(f, rmap.pair))

    # ------------------------------------------------------------------ #
    # Lifetime
    # ------------------------------------------------------------------ #

    def ref(self, f: int) -> int:
        if f >= 2:
            self._lib.bdd_addref(f)
            self._extref[f] = self._extref.get(f, 0) + 1
        return f

    def deref(self, f: int) -> None:
        if f >= 2 and self._extref.get(f, 0) > 0:
            self._lib.bdd_delref(f)
            count = self._extref[f]
            if count <= 1:
                del self._extref[f]
            else:
                self._extref[f] = count - 1

    @contextmanager
    def protect(self, *roots: int) -> Iterator["BuddyManager"]:
        for f in roots:
            self.ref(f)
        try:
            yield self
        finally:
            for f in roots:
                self.deref(f)

    def should_collect(self) -> bool:
        live = self._lib.bdd_getnodenum()
        return live >= self.gc_min_live and live >= self.gc_growth * self._gc_baseline

    def collect_garbage(self, roots: Iterable[int] = ()) -> int:
        """Drop the adapter's operator-result holds and run ``bdd_gbc``.

        Mirrors the reference contract: externally :meth:`ref`'d edges,
        the given ``roots`` and variable literals survive; everything
        else becomes reclaimable.  Returns the number of nodes freed.
        """
        lib = self._lib
        live_before = lib.bdd_getnodenum()
        if live_before > self._peak_live:
            self._peak_live = live_before
        keep: dict[int, int] = {}
        for f in roots:
            if f >= 2:
                lib.bdd_addref(f)
                keep[f] = keep.get(f, 0) + 1
        for node, count in self._owned.items():
            for _ in range(count):
                lib.bdd_delref(node)
        self._owned = keep
        lib.bdd_gbc()
        live_after = lib.bdd_getnodenum()
        reclaimed = max(live_before - live_after, 0)
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        if live_before > 0:
            self._gc_ratio_sum += reclaimed / live_before
        self._gc_baseline = max(live_after, 1)
        return reclaimed

    def maybe_collect_garbage(self, roots: Iterable[int] = ()) -> int:
        if self.should_collect():
            return self.collect_garbage(roots)
        return 0

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def support(self, f: int) -> set[int]:
        if f < 2:
            return set()
        cube = self._own(self._lib.bdd_support(f))
        result: set[int] = set()
        while cube >= 2:
            result.add(self.node_var(cube))
            cube = self.node_hi(cube)
        return result

    def size(self, f: int) -> int:
        return self._check(self._lib.bdd_nodecount(f))

    def size_many(self, roots: Iterable[int]) -> int:
        roots = list(roots)
        if not roots:
            return 0
        arr = (ctypes.c_int * len(roots))(*roots)
        return self._check(self._lib.bdd_anodecount(arr, len(roots)))

    def eval(self, f: int, assignment: Mapping[str, bool | int]) -> bool:
        node = f
        while node >= 2:
            name = self._var_names[self.node_var(node)]
            node = self.node_hi(node) if assignment[name] else self.node_lo(node)
        return node == 1

    def eval_vars(self, f: int, assignment: Mapping[int, bool | int]) -> bool:
        node = f
        while node >= 2:
            node = (
                self.node_hi(node)
                if assignment[self.node_var(node)]
                else self.node_lo(node)
            )
        return node == 1

    def cube(self, assignment: Mapping[int, bool | int]) -> int:
        f = 1
        for var, val in sorted(assignment.items(), reverse=True):
            lit = self.var_node(var) if val else self.nvar_node(var)
            f = self.apply_and(lit, f)
        return f

    @property
    def stats(self) -> dict[str, object]:
        """Reference-shaped counter snapshot.

        BuDDy does not expose the per-operator counters the reference
        kernel tracks; untracked entries read 0 (never ``None``, so
        downstream arithmetic works unchanged).
        """
        live = self._lib.bdd_getnodenum() if not self._closed else 0
        gc_runs = self._gc_runs
        nvars = len(self._var_names)
        return {
            "unique_hits": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "recursive_calls": 0,
            "gc_runs": gc_runs,
            "gc_reclaimed": self._gc_reclaimed,
            "reclaim_ratio_avg": (
                self._gc_ratio_sum / gc_runs if gc_runs else 1.0
            ),
            "peak_live_nodes": max(self._peak_live, live),
            "live_nodes": live,
            "nodes_per_level": [0] * nvars,
            "subtable_count": nvars,
        }

    @property
    def max_nodes(self) -> int | None:
        return self._max_nodes

    def cache_hit_rate(self) -> float:
        return 0.0

    def reset_stats(self) -> None:
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._gc_ratio_sum = 0.0
        self._peak_live = self._lib.bdd_getnodenum()

    def clear_caches(self) -> None:
        """No-op: BuDDy manages its operator caches internally."""

    def check(self) -> None:
        """No structural invariants to verify from outside the C kernel.

        The reference kernel walks its own subtables; BuDDy's node table
        is not introspectable at that granularity, so this explicitly
        no-ops with a :class:`~repro.bdd.backends.BackendCheckWarning`
        (once per process, per the default warning filter) instead of
        pretending to have checked something.
        """
        from repro.bdd.backends import BackendCheckWarning

        warnings.warn(
            "BuddyManager.check(): structural invariants are internal to "
            "the native kernel; nothing was verified",
            BackendCheckWarning,
            stacklevel=2,
        )

    # ------------------------------------------------------------------ #
    # Transfer
    # ------------------------------------------------------------------ #

    def dump_nodes(self, roots: Sequence[int]) -> dict:
        """Snapshot ``roots`` in the ``repro-bdd-nodes/1`` wire format.

        BuDDy has no complement edges, so every packed ref carries sign
        bit 0; the loader (any backend's) recombines children with ITE
        and recovers its own canonical form.  Children-first and fully
        iterative, exactly like the reference implementation.
        """
        index: dict[int, int] = {}
        var_col = array("q")
        lo_col = array("q")
        hi_col = array("q")
        name_ids: dict[int, int] = {}
        names: list[str] = []

        def pack(n: int) -> int:
            if n < 2:
                return n
            return (index[n] + 1) << 1

        for root in roots:
            stack = [root]
            while stack:
                node = stack.pop()
                if node < 2 or node in index:
                    continue
                lo = self.node_lo(node)
                hi = self.node_hi(node)
                if (lo < 2 or lo in index) and (hi < 2 or hi in index):
                    var = self.node_var(node)
                    vid = name_ids.get(var)
                    if vid is None:
                        vid = len(names)
                        name_ids[var] = vid
                        names.append(self._var_names[var])
                    index[node] = len(var_col)
                    var_col.append(vid)
                    lo_col.append(pack(lo))
                    hi_col.append(pack(hi))
                else:
                    stack.append(node)  # revisit once children are placed
                    if hi >= 2 and hi not in index:
                        stack.append(hi)
                    if lo >= 2 and lo not in index:
                        stack.append(lo)
        return {
            "format": NODES_FORMAT,
            "names": names,
            "var": var_col,
            "lo": lo_col,
            "hi": hi_col,
            "roots": array("q", [pack(r) for r in roots]),
        }

    def load_nodes(self, data: Mapping) -> list[int]:
        from repro.bdd.backends.protocol import generic_load_nodes

        return generic_load_nodes(self, data)

    def split_by_vars(self, f: int, split_vars: Iterable[int]) -> dict[int, int]:
        from repro.bdd.backends.protocol import generic_split_by_vars

        return generic_split_by_vars(self, f, split_vars)
