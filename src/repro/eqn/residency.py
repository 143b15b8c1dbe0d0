"""Bounded-memory residency: LRU spill of resident subset states.

The subset driver pins every discovered ψ for the whole solve (the
``ids`` table is how successor candidates deduplicate against already
seen subsets), so peak memory — not time — is what caps latch counts.
This module bounds that working set:

* :class:`SpillStore` is a content-addressed blob store over the
  single-function spill format
  (:func:`~repro.bdd.io.dump_function_packed`): blobs are keyed by
  their SHA-256, so identical sibling ψ — common exactly where the
  completion memo already shows >60 % sharing — cost one file.
* :class:`ResidencyManager` is the coordinator-side policy object: an
  LRU over *expanded* subset states with a node-count budget.  States
  still in the frontier are never evicted (their raw edge identity is
  what the frontier holds), so eviction can never invalidate pending
  work.  Evicting a ψ dumps it to the store, forgets its pin and drops
  it from the driver's table; deduplication against evicted states then
  runs by content key instead of by edge identity — sound because the
  packed blob is canonical per (function, variable order).

Variable-order epochs
---------------------

A packed blob depends on the variable order it was dumped under, so an
in-place sift (``--reorder auto``) silently invalidates every stored
content key.  The manager tracks an *order token* (the kernel's
``_order_epoch`` where available, the literal variable order otherwise)
and transparently re-keys all evicted entries when it changes — reload
under the new order is always sound (children recombine with ITE), only
the dedup hashes need refreshing.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

from repro.bdd.io import dump_function_packed, load_function_packed
from repro.eqn.stats import SubsetStats
from repro.errors import EquationError
from repro.obs.trace import span as obs_span


def content_key(mgr, f: int) -> tuple[str, bytes]:
    """``(sha256 hex, blob)`` of ``f`` under the manager's current order."""
    blob = dump_function_packed(mgr, f)
    return hashlib.sha256(blob).hexdigest(), blob


class SpillStore:
    """A content-addressed directory of packed-function blobs.

    Layout is ``root/<key[:2]>/<key>.bin`` with atomic ``os.replace``
    writes, so any number of processes may share one store: a second
    writer of the same content either finds the file already present or
    replaces it with identical bytes.  A store constructed without a
    ``root`` owns a fresh temporary directory and removes it on
    :meth:`close`; a store pointed at a caller-provided directory never
    deletes anything.
    """

    def __init__(self, root: str | None = None) -> None:
        if root is None:
            self.root = tempfile.mkdtemp(prefix="repro-spill-")
            self._owned = True
        else:
            os.makedirs(root, exist_ok=True)
            self.root = root
            self._owned = False
        #: Blobs actually written (content-dedup hits do not count).
        self.puts = 0
        #: Bytes actually written.
        self.put_bytes = 0
        #: Writes skipped because the content was already present.
        self.dedup_hits = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key[2:] + ".bin")

    def put(self, blob: bytes) -> tuple[str, bool]:
        """Store ``blob``; returns ``(key, written)``."""
        key = hashlib.sha256(blob).hexdigest()
        path = self._path(key)
        if os.path.exists(path):
            self.dedup_hits += 1
            return key, False
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - cleanup best effort
                pass
            raise
        self.puts += 1
        self.put_bytes += len(blob)
        return key, True

    def get(self, key: str) -> bytes:
        """Read a blob back by its content key.

        The bytes are hashed again on the way out: a truncated or
        bit-flipped blob raises :class:`EquationError` instead of
        loading as some other function.
        """
        with open(self._path(key), "rb") as fh:
            blob = fh.read()
        if hashlib.sha256(blob).hexdigest() != key:
            raise EquationError(
                f"spill blob {key[:12]} in {self.root} is corrupt "
                f"({len(blob)} bytes do not hash to their key)"
            )
        return blob

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def close(self) -> None:
        """Remove the store directory if this instance owns it."""
        if self._owned:
            shutil.rmtree(self.root, ignore_errors=True)
            self._owned = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpillStore root={self.root!r} puts={self.puts}>"


def _order_token(mgr) -> object:
    """A value that changes whenever the manager's variable order does."""
    epoch = getattr(mgr, "_order_epoch", None)
    if epoch is not None:
        return epoch
    return tuple(mgr.var_order())


class ResidencyManager:
    """LRU spill policy over the subset driver's resident ψ table.

    The driver owns the actual table (``ids``) and the GC pins; this
    object decides *which* states stay materialized.  Protocol, in the
    order the driver calls it:

    * :meth:`admit` — a new subset state was created (it enters the
      frontier, so it is not yet evictable).
    * :meth:`touch` — a successor candidate deduplicated against a
      resident state (moves it to the MRU end).
    * :meth:`lookup` — a candidate missed the resident table; check the
      evicted states by content key.
    * :meth:`mark_expanded` — a state left the frontier; it is now
      eviction-eligible.
    * :meth:`enforce` — batch boundary: evict least-recently-touched
      expanded states until the resident node estimate fits the budget.
      Returns the evicted edges so the driver can drop its pins.
    * :meth:`sweep_if_due` — after dropping the pins of what
      :meth:`enforce` returned: collect once the ψ evicted since the
      last sweep reach a budget's worth of nodes.
    * :meth:`restore_all` — reload every evicted ψ (a checkpoint
      snapshot needs the full table); the driver re-admits them.

    The budget is an *estimate*: per-ψ node counts are measured at admit
    time and summed, so shared structure between subsets is counted once
    per subset.  That is deliberate — the estimate is what the unbounded
    run would also report as its per-ψ footprint, and a stable
    overestimate makes eviction behaviour reproducible.
    """

    def __init__(
        self,
        mgr,
        budget: int,
        *,
        store: SpillStore | None = None,
        spill_dir: str | None = None,
    ) -> None:
        if budget < 1:
            raise EquationError(
                f"resident budget must be a positive node count, got {budget}"
            )
        self.mgr = mgr
        self.budget = budget
        self.store = store if store is not None else SpillStore(spill_dir)
        self._owns_store = store is None
        # Eviction-eligible resident states, LRU first (dict order).
        self._lru: dict[int, int] = {}  # ψ edge -> sid
        self._sid: dict[int, int] = {}  # every resident ψ edge -> sid
        self._sizes: dict[int, int] = {}  # ψ edge -> admit-time node count
        self._resident_nodes = 0
        # Admit-time sizes of the ψ evicted since the last explicit sweep.
        self._unswept_nodes = 0
        self._evicted: dict[int, str] = {}  # sid -> content key
        self._evicted_by_key: dict[str, int] = {}
        self._token = _order_token(mgr)
        self.spills = 0
        self.reloads = 0
        self.evictions = 0
        self.rehashes = 0
        self.resident_nodes_peak = 0
        self.evicted_peak = 0

    # -- bookkeeping ---------------------------------------------------- #

    def admit(self, psi: int, sid: int) -> None:
        """Track a newly created (frontier) subset state."""
        size = self.mgr.size(psi)
        self._sid[psi] = sid
        self._sizes[psi] = size
        self._resident_nodes += size
        self.resident_nodes_peak = max(
            self.resident_nodes_peak, self._resident_nodes
        )

    def touch(self, psi: int) -> None:
        """A dedup hit on a resident state: move it to the MRU end."""
        sid = self._lru.pop(psi, None)
        if sid is not None:
            self._lru[psi] = sid

    def mark_expanded(self, psi: int) -> None:
        """A state left the frontier; it becomes eviction-eligible."""
        sid = self._sid.get(psi)
        if sid is not None and psi not in self._lru:
            self._lru[psi] = sid

    @property
    def resident_nodes(self) -> int:
        """Current resident-ψ node estimate."""
        return self._resident_nodes

    @property
    def evicted_count(self) -> int:
        return len(self._evicted)

    # -- dedup against evicted states ----------------------------------- #

    def lookup(self, psi: int) -> int | None:
        """The sid of an evicted state equal to ``psi``, if any.

        Resident dedup is the caller's edge-keyed table; this only
        answers for states that were spilled out of it.  Costs one
        ``dump_function_packed`` of the candidate — skipped entirely
        while nothing is evicted.
        """
        if not self._evicted_by_key:
            return None
        self._sync_order()
        key, _ = content_key(self.mgr, psi)
        return self._evicted_by_key.get(key)

    def _sync_order(self) -> None:
        """Re-key evicted blobs after an in-place reorder (see module doc)."""
        token = _order_token(self.mgr)
        if token == self._token:
            return
        self._token = token
        if not self._evicted:
            return
        mgr = self.mgr
        remap: dict[int, str] = {}
        for sid, key in self._evicted.items():
            psi = load_function_packed(mgr, self.store.get(key))
            mgr.ref(psi)
            try:
                new_key, blob = content_key(mgr, psi)
                self.store.put(blob)
            finally:
                mgr.deref(psi)
            remap[sid] = new_key
            self.rehashes += 1
        self._evicted = remap
        self._evicted_by_key = {key: sid for sid, key in remap.items()}

    # -- the policy ----------------------------------------------------- #

    def enforce(self) -> list[int]:
        """Evict cold expanded ψ until the estimate fits the budget.

        Returns the evicted ψ edges; the caller drops its table entries
        and GC pins for them (the blobs are already on disk when this
        returns, so the next collection may reclaim the nodes).
        """
        if self._resident_nodes <= self.budget or not self._lru:
            return []
        self._sync_order()
        mgr = self.mgr
        evicted: list[int] = []
        while self._resident_nodes > self.budget and self._lru:
            psi = next(iter(self._lru))
            sid = self._lru.pop(psi)
            with obs_span("psi_spill", sid=sid) as spill_span:
                key, blob = content_key(mgr, psi)
                _, written = self.store.put(blob)
                spill_span.set(bytes=len(blob), written=written)
            if written:
                self.spills += 1
            self._evicted[sid] = key
            self._evicted_by_key[key] = sid
            size = self._sizes.pop(psi)
            self._resident_nodes -= size
            self._unswept_nodes += size
            del self._sid[psi]
            evicted.append(psi)
        self.evictions += len(evicted)
        self.evicted_peak = max(self.evicted_peak, len(self._evicted))
        return evicted

    def sweep_if_due(self) -> bool:
        """Collect once the evicted-but-unswept ψ reach the budget.

        Eviction only pays off if the nodes actually go away, and the
        adaptive GC policy's growth floors may never arm at budget-sized
        scales.  A sweep per evicting batch would be a full
        mark-and-sweep (and a computed-table flush) for a handful of ψ;
        sweeping once their admit-time sizes sum to the budget keeps
        resident ψ within the budget and unswept evicted ψ below it.
        Returns whether a sweep ran.
        """
        if self._unswept_nodes < self.budget:
            return False
        self._unswept_nodes = 0
        self.mgr.collect_garbage()
        return True

    def restore_all(self) -> list[tuple[int, int]]:
        """Reload every evicted ψ; returns ``(psi, sid)`` pairs.

        Used before a checkpoint snapshot (which must carry the full
        subset table).  The caller re-admits the pairs — they come back
        eviction-eligible, so the next :meth:`enforce` re-bounds the
        working set.
        """
        out: list[tuple[int, int]] = []
        mgr = self.mgr
        for sid, key in self._evicted.items():
            with obs_span("psi_reload", sid=sid):
                psi = load_function_packed(mgr, self.store.get(key))
            self.reloads += 1
            out.append((psi, sid))
        self._evicted.clear()
        self._evicted_by_key.clear()
        return out

    def record_stats(self, stats: SubsetStats) -> None:
        """Set the residency counters on the solve's record."""
        stats.resident_budget = self.budget
        stats.psi_spills = self.spills
        stats.psi_reloads = self.reloads
        stats.resident_evictions = self.evictions
        stats.resident_nodes_peak = self.resident_nodes_peak
        stats.evicted_peak = self.evicted_peak
        stats.spill_bytes = self.store.put_bytes
        stats.spill_rehashes = self.rehashes

    def close(self) -> None:
        """Drop the spill store if this manager owns it (idempotent)."""
        if self._owns_store:
            self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResidencyManager budget={self.budget} "
            f"resident={self._resident_nodes} evicted={len(self._evicted)}>"
        )
