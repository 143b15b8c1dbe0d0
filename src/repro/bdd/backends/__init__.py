"""Pluggable BDD backends behind one construction point.

The solver stack never constructs :class:`~repro.bdd.manager.BddManager`
directly any more — it asks :func:`create_manager` for a manager
implementing the :class:`~repro.bdd.backends.protocol.BddBackend`
protocol.  Backends register themselves here:

* ``"python"`` — the pure-Python reference kernel (always available);
* ``"buddy"`` — a ctypes adapter to the native BuDDy library
  (:mod:`repro.bdd.backends.buddy`), available when the shared library
  is installed (``REPRO_BUDDY_LIB`` or the system linker path).

Degradation is graceful by design: requesting an unavailable backend
falls back to the pure-Python one with a single
:class:`BackendFallbackWarning` per backend per process — a ``--backend
buddy`` run on a box without the library still solves, identically,
just slower.  Requesting an *unknown* backend raises
(:class:`~repro.errors.BddError`): a typo must not silently alias onto
the default.

Third-party adapters call :func:`register_backend` and can validate
themselves with :func:`~repro.bdd.backends.protocol.missing_ops` plus
the conformance kit in :mod:`repro.bdd.backends.conformance`.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable

from repro.bdd.backends.protocol import (
    BddBackend,
    generic_load_nodes,
    generic_split_by_vars,
    missing_ops,
)
from repro.eqn.config import BACKEND_CHOICES
from repro.errors import BddError

#: Name of the always-available reference backend.
DEFAULT_BACKEND = "python"


class BackendFallbackWarning(UserWarning):
    """A requested native backend is unavailable; pure Python is used.

    Emitted exactly once per backend per process by
    :func:`create_manager`.  Results are unaffected — every backend must
    produce identical BDDs — only speed differs, which is why this is a
    warning and not an error.
    """


class BackendCheckWarning(UserWarning):
    """``check()`` has no structural invariants to verify on this backend."""


class BackendUnavailable(BddError):
    """A backend factory could not come up (missing/unloadable library).

    Raised by adapter constructors; :func:`create_manager` turns it into
    the graceful pure-Python fallback.
    """


class _Backend:
    """Registry entry: a factory plus a cheap availability probe."""

    __slots__ = ("factory", "name", "probe")

    def __init__(
        self,
        name: str,
        factory: Callable[..., BddBackend],
        probe: Callable[[], bool],
    ) -> None:
        self.name = name
        self.factory = factory
        self.probe = probe


_REGISTRY: dict[str, _Backend] = {}
_FALLBACK_WARNED: set[str] = set()


def register_backend(
    name: str,
    factory: Callable[..., BddBackend],
    *,
    probe: Callable[[], bool] | None = None,
) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``factory`` must accept the reference constructor's keyword surface
    (``max_nodes``, ``gc_min_live``, ``gc_growth``) and return a
    :class:`~repro.bdd.backends.protocol.BddBackend`.
    ``probe`` is a cheap availability check (e.g. "can the shared
    library be found?"); it defaults to always-available.
    """
    _REGISTRY[name] = _Backend(name, factory, probe or (lambda: True))


def registered_backends() -> list[str]:
    """Every registered backend name, available or not."""
    return sorted(_REGISTRY)


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and its availability probe passes."""
    entry = _REGISTRY.get(name)
    return entry is not None and bool(entry.probe())


def available_backends() -> list[str]:
    """Names of registered backends whose probes pass right now."""
    return [name for name in sorted(_REGISTRY) if backend_available(name)]


def create_manager(backend: str = DEFAULT_BACKEND, **kwargs) -> BddBackend:
    """Construct a manager on ``backend``, falling back gracefully.

    * unknown name → :class:`~repro.errors.BddError` (typos must not
      silently solve on the default backend);
    * known but unavailable (probe fails, or construction raises an
      availability error) → the pure-Python reference manager, with one
      :class:`BackendFallbackWarning` per backend per process;
    * ``kwargs`` are the reference constructor's keywords and are passed
      through unchanged — a fallback therefore behaves bit-identically
      to asking for ``"python"`` in the first place.
    """
    entry = _REGISTRY.get(backend)
    if entry is None:
        raise BddError(
            f"unknown BDD backend {backend!r}; "
            f"registered: {', '.join(registered_backends())}"
        )
    if entry.name != DEFAULT_BACKEND:
        if not entry.probe():
            _warn_fallback(entry.name)
            entry = _REGISTRY[DEFAULT_BACKEND]
        else:
            try:
                return entry.factory(**kwargs)
            except BackendUnavailable:
                # The probe passed but the library would not load (e.g. a
                # stale REPRO_BUDDY_LIB path): same graceful fallback.
                _warn_fallback(entry.name)
                entry = _REGISTRY[DEFAULT_BACKEND]
    return entry.factory(**kwargs)


def _warn_fallback(name: str) -> None:
    if name in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(name)
    warnings.warn(
        f"BDD backend {name!r} is unavailable (shared library not found); "
        f"falling back to the pure-Python reference backend. Results are "
        f"identical; only speed differs. Set REPRO_BUDDY_LIB or install "
        f"the library to enable it.",
        BackendFallbackWarning,
        stacklevel=3,
    )


def _reset_fallback_warnings() -> None:
    """Re-arm the warn-once latch (test helper)."""
    _FALLBACK_WARNED.clear()


def _register_builtin_backends() -> None:
    # The reference backend registers eagerly (it is the fallback target
    # and must always exist); the native adapters register lazily — the
    # factory import happens per call, the probe only touches the
    # filesystem/linker.
    from repro.bdd.manager import BddManager

    register_backend("python", BddManager)

    def _buddy_probe() -> bool:
        from repro.bdd.backends.buddy import find_buddy_library

        return find_buddy_library() is not None

    def _buddy_factory(**kwargs) -> BddBackend:
        from repro.bdd.backends.buddy import BuddyManager

        return BuddyManager(**kwargs)

    register_backend("buddy", _buddy_factory, probe=_buddy_probe)


_register_builtin_backends()

__all__ = [
    "BACKEND_CHOICES",
    "DEFAULT_BACKEND",
    "BackendCheckWarning",
    "BackendFallbackWarning",
    "BackendUnavailable",
    "BddBackend",
    "available_backends",
    "backend_available",
    "create_manager",
    "generic_load_nodes",
    "generic_split_by_vars",
    "missing_ops",
    "register_backend",
    "registered_backends",
]
