"""Job objects and the thread-safe registry behind the server.

A job is one submitted solve: its canonical spec and cache key, a
lifecycle status, a monotonically numbered event stream (what the
client polls with ``?since=N``) and a cancellation flag the subset
driver checks at every batch boundary.

Lifecycle::

    queued ──▶ running ──▶ done
                  │  ╲──▶ failed      (budget exceeded, bad input, ...)
                  ╰─────▶ cancelled   (client asked; solver unwound)

A cache hit skips the whole pipeline: the job is born ``done`` with
``cached=True`` and never reaches the executor — which is what makes
the "zero shard operations on a repeat solve" guarantee trivially
auditable.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.eqn.config import SolveConfig
from repro.errors import ServeError

#: Legal job states.
STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: States a job can never leave.
TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One submitted solve and everything observable about it."""

    id: str
    spec: dict
    key: str
    config: SolveConfig = field(default_factory=SolveConfig)
    options: dict = field(default_factory=dict)  # budgets, checkpointing
    status: str = "queued"
    cached: bool = False
    resumed: bool = False
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    summary: dict | None = None  # csf_states / seconds / ... once done
    metrics: dict | None = None  # per-job counter snapshot once done
    events: list[dict] = field(default_factory=list)
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def summary_dict(self) -> dict:
        """JSON-safe view for the jobs listing and status endpoint."""
        return {
            "id": self.id,
            "status": self.status,
            "cache_key": self.key,
            "cached": self.cached,
            "resumed": self.resumed,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
            "result": self.summary,
            "metrics": self.metrics,
        }


class JobRegistry:
    """Thread-safe id -> :class:`Job` map with an event stream per job.

    The HTTP handler threads read from it while the single executor
    thread writes; one lock covers both (operations are tiny — there is
    never BDD work under the lock).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._counter = itertools.count(1)

    def create(self, spec: dict, key: str, **init) -> Job:
        with self._lock:
            job = Job(id=f"job-{next(self._counter)}", spec=spec, key=key, **init)
            self._jobs[job.id] = job
            return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job {job_id!r}")
        return job

    def list(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    # -- state transitions (executor side) ----------------------------- #

    def set_status(self, job: Job, status: str, *, error: str | None = None) -> None:
        if status not in STATUSES:
            raise ServeError(f"unknown job status {status!r}")
        with self._lock:
            job.status = status
            if status == "running":
                job.started_at = time.time()
            if status in TERMINAL:
                job.finished_at = time.time()
            if error is not None:
                job.error = error
        self.add_event(job, {"type": "status", "status": status, "error": error})

    def add_event(self, job: Job, event: dict) -> dict:
        """Append an event, stamping its sequence number and timestamps.

        Events carry both clocks: ``ts`` (wall, ``time.time()``) for
        display, and ``mono`` (``time.perf_counter()``) so event-stream
        deltas can be compared against solver timings without wall-clock
        drift/adjustment skew.
        """
        with self._lock:
            stamped = {
                "seq": len(job.events) + 1,
                "ts": time.time(),
                "mono": time.perf_counter(),
                **event,
            }
            job.events.append(stamped)
        return stamped

    def events_since(self, job_id: str, since: int = 0) -> tuple[list[dict], int]:
        """Events with ``seq > since`` plus the new cursor."""
        job = self.get(job_id)
        with self._lock:
            fresh = [e for e in job.events if e["seq"] > since]
            cursor = job.events[-1]["seq"] if job.events else since
        return fresh, max(since, cursor)

    def counts(self) -> dict:
        """Jobs per status (the health endpoint's payload)."""
        with self._lock:
            out = dict.fromkeys(STATUSES, 0)
            for job in self._jobs.values():
                out[job.status] += 1
        return out
