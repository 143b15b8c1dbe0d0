"""Exception hierarchy for the :mod:`repro` package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class BddError(ReproError):
    """Base class for BDD engine errors."""


class BddNodeLimit(BddError):
    """Raised when a manager exceeds its configured node budget.

    The Table 1 harness uses this (together with :class:`TimeLimit`) to
    emulate the paper's "CNC" (could not complete) outcomes in a
    deterministic, testable way.
    """

    def __init__(self, limit: int) -> None:
        super().__init__(f"BDD node budget exceeded (limit={limit})")
        self.limit = limit


class TimeLimit(ReproError):
    """Raised when a computation exceeds its wall-clock budget."""

    def __init__(self, seconds: float) -> None:
        super().__init__(f"time budget exceeded ({seconds:.3g}s)")
        self.seconds = seconds


class SolveCancelled(ReproError):
    """Raised when a solve is cancelled through its cancellation hook.

    The job server (:mod:`repro.serve`) sets a per-job cancel flag that
    the subset driver polls at every batch boundary; like the resource
    budgets, cancellation unwinds through the normal exception path so
    ``finally`` blocks (oracle close, pool release) always run.
    """


class ServeError(ReproError):
    """Raised for invalid job specs or server-side failures in :mod:`repro.serve`."""


class NetworkError(ReproError):
    """Raised for malformed or inconsistent sequential networks."""


class BlifError(NetworkError):
    """Raised for syntax or semantic errors in BLIF input."""


class AutomatonError(ReproError):
    """Raised for malformed automata or invalid automaton operations."""


class EquationError(ReproError):
    """Raised for ill-posed language-equation problems."""


class VerificationError(ReproError):
    """Raised when a computed solution fails its formal checks."""
