"""The HTTP face of the job server.

Plain-stdlib serving: a :class:`http.server.ThreadingHTTPServer` whose
handler threads do only JSON plumbing — every solve runs on the single
:class:`~repro.serve.executor.SolveExecutor` thread, and cache hits are
answered synchronously in the submit path (a repeat solve never touches
the executor, the pool or a BDD: the BLIF's canonical form is memoised
and the reply comes from the store entry's header).

API (all bodies and replies are JSON, except ``/metrics`` which is
Prometheus text exposition format 0.0.4):

====== ========================== =======================================
Method Path                       Meaning
====== ========================== =======================================
GET    ``/healthz``               liveness, version, uptime, queue depth
GET    ``/metrics``               Prometheus text exposition (counters,
                                  gauges, histograms; see repro.obs)
GET    ``/cache``                 store entry count / bytes / checkpoints
POST   ``/jobs``                  submit a job spec; replies id + status
GET    ``/jobs``                  all job summaries
GET    ``/jobs/<id>``             one job summary
GET    ``/jobs/<id>/events``      events after ``?since=N`` + new cursor
GET    ``/jobs/<id>/result``      result of a done job (incl. KISS text)
POST   ``/jobs/<id>/cancel``      flip the job's cancel flag
POST   ``/shutdown``              graceful stop (drain executor, exit)
====== ========================== =======================================
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro._version import __version__
from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve.executor import SolveExecutor, _result_summary
from repro.serve.jobs import JobRegistry
from repro.eqn.config import FIELD_NAMES, ConfigError, SolveConfig
from repro.serve.keys import cache_key, job_spec
from repro.serve.payload import load_result, result_kiss
from repro.serve.store import ResultStore
from repro.util.timer import Stopwatch

#: Default bind for ``repro serve`` and the client tools.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Per-job runtime options accepted alongside the split and the
#: :class:`~repro.eqn.config.SolveConfig` fields (none of these
#: participate in the cache key).
OPTION_FIELDS = (
    "max_seconds",
    "max_nodes",
    "checkpoint_every",
    "checkpoint_seconds",
    "resume",
)


class ServeApp:
    """Registry + store + executor, wired together behind the handler."""

    def __init__(
        self,
        cache_dir: str,
        *,
        max_entries: int | None = None,
        batch_hook=None,
    ) -> None:
        self.store = ResultStore(cache_dir, max_entries=max_entries)
        self.registry = JobRegistry()
        self.metrics = MetricsRegistry()
        self.uptime = Stopwatch()
        self.executor = SolveExecutor(
            self.registry, self.store, batch_hook=batch_hook, metrics=self.metrics
        )
        self.executor.start()

    def close(self) -> None:
        """Drain the executor and close the shard pool."""
        self.executor.stop()

    # ------------------------------------------------------------------ #

    def submit(self, body: dict):
        """Validate a submit body, consult the cache, enqueue on a miss."""
        if not isinstance(body, dict):
            raise ServeError("submit body must be a JSON object")
        for required in ("blif", "x_latches"):
            if required not in body:
                raise ServeError(f"submit body is missing {required!r}")
        if not isinstance(body["blif"], str):
            raise ServeError("malformed BLIF: 'blif' must be BLIF text")
        known = {"blif", "x_latches", "u_signals", *FIELD_NAMES, *OPTION_FIELDS}
        unknown = set(body) - known
        if unknown:
            # A typo'd flag must not silently alias onto its default.
            raise ServeError(f"unknown solver flags in job spec: {sorted(unknown)}")
        # Validated here, in the submit path: a malformed config is a
        # 400 with no job registered, never a queued job that fails.
        config = SolveConfig.from_mapping(
            {k: body[k] for k in FIELD_NAMES if k in body}
        )
        spec = job_spec(
            body["blif"],
            body["x_latches"],
            u_signals=body.get("u_signals"),
            config=config,
        )
        key = cache_key(spec)
        options = {k: body[k] for k in OPTION_FIELDS if k in body}
        cached = self.store.get(key, body=False)
        if cached is not None:
            job = self.registry.create(
                spec, key, config=config, options=options, cached=True
            )
            job.summary = _result_summary(cached, cached=True)
            self.registry.add_event(job, {"type": "cache_hit", "cache_key": key})
            self.registry.set_status(job, "done")
            self.metrics.counter("repro_cache_hits_total", "").inc()
            return job
        job = self.registry.create(spec, key, config=config, options=options)
        self.registry.add_event(job, {"type": "queued", "cache_key": key})
        self.executor.enqueue(job)
        return job

    def result(self, job_id: str) -> dict:
        """JSON-safe result of a done job (decoded from the store)."""
        job = self.registry.get(job_id)
        if job.status != "done":
            raise ServeError(f"job {job_id} is {job.status}, not done")
        payload = self.store.get(job.key)
        if payload is None:
            raise ServeError(f"result of job {job_id} was evicted from the cache")
        decoded = load_result(payload)
        return {
            "cache_key": payload["cache_key"],
            "method": payload["method"],
            "options": payload["options"],
            "seconds": payload["seconds"],
            "csf_states": payload["csf_states"],
            "stats": payload["stats"],
            "cached": job.cached,
            "resumed": job.resumed,
            "kiss": result_kiss(payload),
            "csf_state_names": decoded["csf"].state_names,
        }

    def cancel(self, job_id: str) -> dict:
        job = self.registry.get(job_id)
        job.cancel_event.set()
        self.registry.add_event(job, {"type": "cancel_requested"})
        return job.summary_dict()

    def health(self) -> dict:
        """Liveness payload: version, uptime and load, plus job counts."""
        return {
            "ok": True,
            "version": __version__,
            "uptime_seconds": round(self.uptime.elapsed(), 3),
            "queue_depth": self.executor.queue_depth,
            "cache_entries": self.store.stats()["entries"],
            "jobs": self.registry.counts(),
        }

    def render_metrics(self) -> str:
        """The registry in exposition format, gauges refreshed first."""
        self.metrics.gauge("repro_queue_depth", "").set(self.executor.queue_depth)
        self.metrics.gauge("repro_cache_entries", "").set(
            self.store.stats()["entries"]
        )
        self.metrics.gauge("repro_uptime_seconds", "").set(self.uptime.elapsed())
        return self.metrics.render()


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the :class:`ServeApp` on the server object."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------ #

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, text: str, content_type: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if method == "GET" and parts == ["metrics"]:
                # Prometheus scrapes expect the text exposition format,
                # not JSON — the one non-JSON endpoint.
                self._reply_text(
                    self.app.render_metrics(), "text/plain; version=0.0.4"
                )
                return
            if method == "POST" and parts == ["shutdown"]:
                self._shutdown()
                return
            handler = self._route(method, parts)
            if handler is None:
                self._reply({"error": f"no route {method} {url.path}"}, 404)
                return
            self._reply(handler(parse_qs(url.query)))
        except (ServeError, ConfigError) as exc:
            self._reply({"error": str(exc)}, 400)
        except Exception as exc:  # pragma: no cover - handler bug
            self._reply({"error": f"{type(exc).__name__}: {exc}"}, 500)

    def _shutdown(self) -> None:
        """Reply to ``POST /shutdown``, then stop the server.

        The stop is triggered only after the reply is flushed: handler
        threads are daemonic, so once ``serve_forever`` returns the
        process may exit before an unsent reply reaches the client.
        """
        self.close_connection = True
        try:
            self._reply({"ok": True, "shutting_down": True})
            self.wfile.flush()
        finally:
            self.server.shutdown()

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    # -- routing ------------------------------------------------------- #

    def _route(self, method: str, parts: list[str]):
        app = self.app
        if method == "GET":
            if parts == ["healthz"]:
                return lambda q: app.health()
            if parts == ["cache"]:
                return lambda q: app.store.stats()
            if parts == ["jobs"]:
                return lambda q: {
                    "jobs": [j.summary_dict() for j in app.registry.list()]
                }
            if len(parts) == 2 and parts[0] == "jobs":
                return lambda q: app.registry.get(parts[1]).summary_dict()
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                def events(q):
                    since = int(q.get("since", ["0"])[0])
                    fresh, cursor = app.registry.events_since(parts[1], since)
                    return {"events": fresh, "next": cursor}

                return events
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                return lambda q: app.result(parts[1])
        if method == "POST":
            if parts == ["jobs"]:
                body = self._body()
                return lambda q: app.submit(body).summary_dict()
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                return lambda q: app.cancel(parts[1])
        return None


def make_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    app: ServeApp,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Bind a server around an app (caller drives ``serve_forever``)."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.app = app  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    cache_dir: str,
    max_entries: int | None = None,
    verbose: bool = False,
) -> int:
    """Run the server until ``POST /shutdown`` or Ctrl-C.  Returns 0."""
    app = ServeApp(cache_dir, max_entries=max_entries)
    server = make_server(host, port, app=app, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro serve listening on http://{bound_host}:{bound_port}")
    print(f"  cache: {app.store.root} ({app.store.stats()['entries']} entries)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
        app.close()
    print("repro serve stopped")
    return 0
