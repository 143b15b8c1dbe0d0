"""Adaptive runtime policies for the BDD kernel.

The manager's two runtime levers — *when to collect garbage* and *when to
reorder variables* — were static knobs after the kernel overhaul
(``gc_min_live`` / ``gc_growth``).  This module turns both into small
policy objects that observe the stream of collections and adapt:

* :class:`GcPolicy` — the collection trigger.  In ``"static"`` mode it
  reproduces the historical behaviour exactly (collect once the live
  count passes a floor *and* a growth factor over the post-collection
  baseline).  In ``"adaptive"`` mode it also tracks the *reclaim ratio*
  of every sweep (``reclaimed / live_before``) and, after ``window``
  consecutive unprofitable sweeps, backs the floor off multiplicatively —
  a collection that reclaims almost nothing costs a full O(live) sweep
  plus the computed-table scan, so repeating it at the same heap size is
  pure overhead.  Profitable sweeps decay the floor back toward its
  configured minimum.

* :class:`ReorderPolicy` — the dynamic-reordering trigger.  Collections
  that stop paying are the kernel's signal that the *live* structure
  itself is too big, which (per the paper's CNC analysis) usually means a
  bad variable order.  In ``"auto"`` mode the policy fires an in-place
  sift (:func:`repro.bdd.reorder.sift`) after ``window`` consecutive
  sweeps whose reclaim ratio is below ``reclaim_threshold`` (``window=1``
  fires on every unprofitable sweep); ``"off"`` never fires.  A
  growth-based cooldown prevents back-to-back sifts: after a reorder,
  the next one is allowed only once the live count exceeds
  ``cooldown_growth ×`` the post-reorder size.

Both policies are pure observers — they never touch the manager — so they
are trivially unit-testable and the manager stays the single owner of all
mutation (see :meth:`repro.bdd.manager.BddManager.collect_garbage` for
the integration point).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Accepted :class:`GcPolicy` modes.
GC_MODES = ("static", "adaptive")
#: Accepted :class:`ReorderPolicy` modes.
REORDER_MODES = ("off", "auto")


@dataclass
class GcPolicy:
    """Self-tuning garbage-collection trigger.

    Parameters
    ----------
    mode:
        ``"static"`` (fixed floor/growth, the pre-adaptive behaviour) or
        ``"adaptive"`` (reclaim-ratio-driven floor back-off).
    min_live:
        Initial live-node floor below which collection never triggers.
    growth:
        Growth factor over the post-collection baseline that arms the
        trigger.
    reclaim_threshold:
        A sweep reclaiming less than this fraction of the pre-sweep live
        count is *unprofitable*.
    window:
        Number of consecutive unprofitable sweeps after which the
        adaptive floor backs off.
    backoff:
        Multiplier applied to the post-sweep live count when backing off:
        the floor jumps to ``backoff × live``, so no collection runs
        until the heap has genuinely grown past the size that was not
        worth sweeping.
    recovery:
        After a *profitable* sweep the floor decays by this factor back
        toward ``min_live`` (the heap shape changed; cheap collections
        may pay again).
    """

    mode: str = "static"
    min_live: int = 100_000
    growth: float = 2.0
    reclaim_threshold: float = 0.2
    window: int = 3
    backoff: float = 2.0
    recovery: float = 0.5
    # -- runtime state ------------------------------------------------- #
    floor: int = field(init=False)
    bad_streak: int = field(init=False, default=0)
    backoffs: int = field(init=False, default=0)
    last_ratio: float = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        if self.mode not in GC_MODES:
            raise ValueError(f"unknown GC mode {self.mode!r}; choose from {GC_MODES}")
        self.floor = self.min_live

    def should_collect(self, live: int, baseline: int) -> bool:
        """Whether a collection should run at ``live`` nodes now.

        ``baseline`` is the live count right after the previous
        collection.  Never true below the (possibly backed-off) floor, so
        after :meth:`record` has seen ``window`` consecutive unprofitable
        sweeps, no collection triggers until the heap exceeds
        ``backoff ×`` the size those sweeps failed to shrink.
        """
        return live >= self.floor and live >= self.growth * baseline

    def record(self, live_before: int, reclaimed: int) -> float:
        """Feed the outcome of one sweep; returns its reclaim ratio."""
        ratio = reclaimed / live_before if live_before > 0 else 0.0
        self.last_ratio = ratio
        if self.mode != "adaptive":
            return ratio
        live_after = live_before - reclaimed
        if ratio < self.reclaim_threshold:
            self.bad_streak += 1
            if self.bad_streak >= self.window:
                # Collections stopped paying at this heap size: require
                # substantially more growth before sweeping again.
                self.floor = max(self.floor, int(self.backoff * max(live_after, 1)))
                self.backoffs += 1
                self.bad_streak = 0
        else:
            self.bad_streak = 0
            if self.floor > self.min_live:
                decayed = int(self.floor * self.recovery)
                self.floor = max(self.min_live, decayed)
        return ratio


@dataclass
class ReorderPolicy:
    """GC-coupled dynamic variable-reordering trigger.

    Decides, after every completed garbage collection, whether the
    manager should run an in-place sift.  The signal is the same reclaim
    ratio :class:`GcPolicy` adapts on: when sweeps stop reclaiming,
    the live BDDs themselves are the problem and only a better variable
    order can shrink them.

    Parameters
    ----------
    mode:
        ``"off"`` (never reorder) or ``"auto"`` (reorder after
        ``window`` consecutive unprofitable sweeps).
    reclaim_threshold:
        Sweeps below this reclaim ratio count toward the trigger.
    window:
        Consecutive-unprofitable-sweep count that arms ``"auto"`` mode.
    min_live:
        Do not bother reordering managers smaller than this (sifting a
        tiny table costs more than it saves).
    cooldown_growth:
        After a reorder finishing at ``n`` live nodes, the next reorder
        is allowed only once the live count exceeds
        ``cooldown_growth × n``.
    max_growth:
        Passed to :func:`repro.bdd.reorder.sift`: abort sifting a
        variable in a direction once the table grows past this factor of
        its starting size.
    max_vars:
        Optional cap on how many variables each sift pass moves (the
        largest-bucket variables are sifted first); ``None`` sifts all.
    """

    mode: str = "off"
    reclaim_threshold: float = 0.2
    window: int = 2
    min_live: int = 2_000
    cooldown_growth: float = 1.5
    max_growth: float = 1.2
    max_vars: int | None = None
    # -- runtime state ------------------------------------------------- #
    bad_streak: int = field(init=False, default=0)
    cooldown_until: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.mode not in REORDER_MODES:
            raise ValueError(
                f"unknown reorder mode {self.mode!r}; choose from {REORDER_MODES}"
            )

    def should_reorder(self, live: int, reclaim_ratio: float) -> bool:
        """Whether to sift right after a sweep with ``reclaim_ratio``."""
        if self.mode == "off":
            return False
        if reclaim_ratio >= self.reclaim_threshold:
            self.bad_streak = 0
            return False
        self.bad_streak += 1
        if live < self.min_live or live < self.cooldown_until:
            return False
        return self.bad_streak >= self.window

    def record_reorder(self, live_after: int) -> None:
        """Note a completed reorder; arms the growth cooldown."""
        self.bad_streak = 0
        self.cooldown_until = int(self.cooldown_growth * live_after)
