"""Observability layer: span tracing, metrics, structured logging.

Three small stdlib-only modules that make the runtime's behaviour
visible without changing it:

:mod:`repro.obs.trace`
    Context-manager spans with a thread-local stack, exported as Chrome
    trace-event JSON (``repro solve --trace out.json``; open the file in
    ``chrome://tracing`` or Perfetto).  Shard workers stamp per-command
    timing records into their replies and the pool merges them into the
    coordinator trace as pid-tagged per-worker tracks, so work stealing
    is visible end-to-end.

:mod:`repro.obs.metrics`
    Counters, gauges and histograms federating the runtime's previously
    fragmented statistics (GC reclaim ratios, memo hits, psi
    serializations, steal counts, cache hits), rendered in
    Prometheus text exposition format — ``GET /metrics`` on the job
    server and a per-job ``metrics`` snapshot in job status.

:mod:`repro.obs.log`
    Structured logging on top of the stdlib :mod:`logging` module, with
    an optional JSON-lines formatter and a ``--log-level`` CLI flag,
    replacing the previously silent failure paths in worker and
    executor error handling.

Tracing is off unless a :class:`~repro.obs.trace.Tracer` is installed;
the disabled path is a module-global ``None`` check returning a shared
null context manager, so instrumented code pays no measurable cost.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, current_tracer, install_tracer, span

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "span",
]
