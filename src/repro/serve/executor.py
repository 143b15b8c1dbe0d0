"""The single solver thread behind the job server.

BDD managers are not thread-safe, so solves are strictly serialised:
one daemon thread drains a queue of jobs and runs them through
:func:`repro.eqn.solver.solve_equation` one at a time.  The HTTP layer
stays fully concurrent — status, event polling, cancellation and cache
hits never wait on the solver.

The executor owns the **warm shard pool**: the first sharded job forks
the worker processes, and every later job with the same ``--shards``
reuses them through :meth:`~repro.shard.pool.ShardPool.reset` (worker
managers are rebuilt in-process; no fork, no re-import).  Jobs with a
different shard count close and re-fork the pool; in-process jobs
(``shards=1``) leave it untouched.
"""

from __future__ import annotations

import queue
import threading
import traceback

from repro.eqn.stats import METRIC_FIELDS, SubsetStats
from repro.errors import ReproError, SolveCancelled
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as obs_span
from repro.serve.jobs import Job, JobRegistry
from repro.serve.payload import dump_result
from repro.serve.store import ResultStore

_log = get_logger("repro.serve.executor")


def register_serve_metrics(metrics: MetricsRegistry) -> MetricsRegistry:
    """Pre-register the server's metric families (so ``/metrics`` shows
    every family at 0 before the first job) and return the registry."""
    metrics.counter(
        "repro_solves_total", "Solve jobs finished, by terminal status."
    )
    metrics.histogram(
        "repro_solve_seconds", "Wall-clock solver time per completed job."
    )
    metrics.counter(
        "repro_cache_hits_total", "Submits answered from the result cache."
    )
    metrics.counter(
        "repro_cache_misses_total", "Submits that had to run the solver."
    )
    for _name, family, _label, help in METRIC_FIELDS:
        metrics.counter(family, help)
    metrics.gauge("repro_queue_depth", "Jobs waiting for the executor thread.")
    metrics.gauge("repro_cache_entries", "Entries in the result cache store.")
    metrics.gauge("repro_uptime_seconds", "Seconds since the server started.")
    return metrics


class SolveExecutor:
    """Serialised job runner with a reusable shard pool."""

    def __init__(
        self,
        registry: JobRegistry,
        store: ResultStore,
        *,
        batch_hook=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry
        self.store = store
        #: Test seam: called as ``batch_hook(job, event)`` after every
        #: progress event, from the solver thread.  The e2e cancellation
        #: test blocks here mid-solve, cancels over HTTP, then releases.
        self.batch_hook = batch_hook
        self.metrics = register_serve_metrics(
            metrics if metrics is not None else MetricsRegistry()
        )
        self._queue: "queue.Queue[Job | None]" = queue.Queue()
        self._pool = None
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-executor", daemon=True
        )
        self._started = False

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain-stop: finish queued jobs, close the pool, join."""
        if self._started:
            self._queue.put(None)
            self._thread.join(timeout=timeout)
        self._close_pool()

    def enqueue(self, job: Job) -> None:
        self._queue.put(job)

    @property
    def pool(self):
        """The warm pool (tests assert on its ``op_counts``)."""
        return self._pool

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for the executor thread (health endpoint)."""
        return self._queue.qsize()

    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                break
            try:
                self._run(job)
            except BaseException:  # pragma: no cover - belt and braces
                _log.exception("executor loop error", job=job.id)
                self.registry.set_status(
                    job, "failed", error=traceback.format_exc()
                )

    def _run(self, job: Job) -> None:
        solves = self.metrics.counter("repro_solves_total", "")
        if job.cancel_event.is_set():
            _log.info("job cancelled before start", job=job.id)
            self.registry.set_status(job, "cancelled")
            solves.inc(status="cancelled")
            return
        cached = self.store.get(job.key)
        if cached is not None:
            # A twin of this job finished while it sat in the queue.
            job.cached = True
            job.summary = _result_summary(cached, cached=True)
            self.registry.set_status(job, "done")
            self.metrics.counter("repro_cache_hits_total", "").inc()
            return
        self.registry.set_status(job, "running")
        try:
            payload = self._solve(job)
        except SolveCancelled:
            _log.info("job cancelled mid-solve", job=job.id)
            self.registry.set_status(job, "cancelled")
            solves.inc(status="cancelled")
            return
        except ReproError as exc:
            _log.warning(
                "job failed",
                job=job.id,
                error=f"{type(exc).__name__}: {exc}",
            )
            self.registry.set_status(
                job, "failed", error=f"{type(exc).__name__}: {exc}"
            )
            solves.inc(status="failed")
            return
        except Exception:
            _log.exception("job crashed", job=job.id)
            self.registry.set_status(job, "failed", error=traceback.format_exc())
            solves.inc(status="failed")
            return
        self.store.put(job.key, payload)
        self.store.drop_checkpoint(job.key)
        job.summary = _result_summary(payload, cached=False)
        job.metrics = _job_metrics(payload)
        self._record_metrics(payload)
        self.registry.set_status(job, "done")
        _log.info(
            "job done",
            job=job.id,
            seconds=payload["seconds"],
            csf_states=payload["csf_states"],
        )

    def _record_metrics(self, payload: dict) -> None:
        """Federate one finished solve's stats into the registry."""
        m = self.metrics
        m.counter("repro_solves_total", "").inc(status="done")
        m.histogram("repro_solve_seconds", "").observe(payload["seconds"])
        m.counter("repro_cache_misses_total", "").inc()
        stats = SubsetStats.from_payload(payload.get("stats") or {})
        for name, family, label, _help in METRIC_FIELDS:
            value = getattr(stats, name)
            if label is not None:
                for key, count in value.items():
                    m.counter(family, "").inc(count, **{label: key})
            elif value:
                m.counter(family, "").inc(value)

    # ------------------------------------------------------------------ #

    def _solve(self, job: Job) -> dict:
        from repro.eqn.problem import build_problem
        from repro.eqn.solver import solve_equation
        from repro.network.blif import parse_blif
        from repro.network.transform import latch_split
        from repro.util.limits import ResourceLimit

        spec, config, options = job.spec, job.config, job.options
        net = parse_blif(spec["blif"])
        split = latch_split(net, spec["x_latches"], u_signals=spec["u_signals"])
        max_nodes = options.get("max_nodes")
        with obs_span("build_problem", network=net.name, job=job.id):
            problem = build_problem(split, config, max_nodes=max_nodes)
        limit = None
        if options.get("max_seconds") is not None or max_nodes is not None:
            limit = ResourceLimit(
                max_seconds=options.get("max_seconds"), max_nodes=max_nodes
            )

        def on_progress(event: dict) -> None:
            self.registry.add_event(job, {"type": "progress", **event})
            if self.batch_hook is not None:
                self.batch_hook(job, event)

        def on_checkpoint(snapshot: dict) -> None:
            self.store.put_checkpoint(job.key, snapshot)
            self.registry.add_event(
                job,
                {
                    "type": "checkpoint",
                    **snapshot["stats"],
                    "frontier": len(snapshot["frontier"]),
                },
            )

        resume = None
        if options.get("resume", True):
            resume = self.store.get_checkpoint(job.key)
            if resume is not None:
                job.resumed = True
                self.registry.add_event(job, {"type": "resume", **resume["stats"]})
        pool = None
        if config.shards > 1:
            pool = self._ensure_pool(problem.manager, config)
        result = solve_equation(
            problem,
            config,
            limit=limit,
            pool=pool,
            progress=on_progress,
            cancel=job.cancel_event.is_set,
            checkpoint=(
                on_checkpoint
                if options.get("checkpoint_every")
                or options.get("checkpoint_seconds")
                else None
            ),
            checkpoint_every=int(options.get("checkpoint_every") or 0),
            checkpoint_seconds=float(options.get("checkpoint_seconds") or 0.0),
            resume=resume,
        )
        return dump_result(result, cache_key=job.key)

    def _ensure_pool(self, mgr, config):
        """Reset the warm pool for this problem, re-forking when needed.

        The workers take the problem manager's node budget and runtime
        policies; a job's ``resident_budget`` bounds only the
        coordinator's ψ table.
        """
        from repro.shard.pool import ShardError, ShardPool, pool_opts

        shards = config.shards
        opts = pool_opts(mgr)
        if self._pool is not None and self._pool.num_shards == shards:
            try:
                self._pool.reset(mgr.var_order(), **opts)
                return self._pool
            except ShardError:
                # A worker died since the last job; fall through and
                # re-fork the whole pool.
                self._close_pool()
        else:
            self._close_pool()
        self._pool = ShardPool(shards, mgr.var_order(), **opts)
        return self._pool

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None


def _result_summary(payload: dict, *, cached: bool) -> dict:
    """The small JSON block the status endpoint shows for a done job."""
    return {
        "csf_states": payload["csf_states"],
        "seconds": payload["seconds"],
        "cached": cached,
        "method": payload["method"],
        "cache_key": payload["cache_key"],
    }


def _job_metrics(payload: dict) -> dict:
    """Per-job counter snapshot shown in job status and ``repro jobs``."""
    stats = SubsetStats.from_payload(payload.get("stats") or {})
    return {"solve_seconds": payload["seconds"], **stats.job_status()}
