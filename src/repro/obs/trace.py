"""Span tracing exported as Chrome trace-event JSON.

A :class:`Tracer` records *spans* — named, timed intervals opened as
context managers::

    from repro.obs import trace

    tracer = trace.install_tracer()
    with trace.span("frontier_batch", batch=3, size=8):
        ...
    tracer.export("out.json")

Spans nest through a thread-local stack, so a ``plan_image`` span opened
inside a ``frontier_batch`` span renders as its child in the viewer.
The export is the Chrome trace-event format (a ``{"traceEvents": [...]}``
object of ``"X"`` complete events plus ``"M"`` metadata events naming
the tracks); open it in ``chrome://tracing`` or https://ui.perfetto.dev.

**Disabled cost.**  Tracing is off unless a tracer is installed.  The
module-level :func:`span` checks one global and returns a shared null
context manager when tracing is off, so instrumentation sites in hot
loops (GC sweeps, image calls) cost a function call and an ``is None``
test — nothing is allocated and no clock is read.

**Cross-process relay.**  Shard workers cannot share the coordinator's
tracer object, but on platforms where :func:`time.perf_counter` is a
system-wide monotonic clock (``CLOCK_MONOTONIC`` on Linux — the only
platform the fork-based pool targets) the *timebase* is shared.  Workers
therefore stamp ``{"op", "pid", "t0", "t1"}`` records into every reply;
:meth:`ShardPool.collect <repro.shard.pool.ShardPool.collect>` feeds
them to :meth:`Tracer.add_worker_event`, which lands each command on a
pid-tagged per-worker track in the same timeline as the coordinator's
spans.  Idle shards and uneven deals become visible as gaps and
overlaps between the worker tracks.

:func:`validate_trace` is the schema checker used by the tests and the
CI trace-smoke step (``python -m repro.obs.trace out.json``): it checks
event shape, non-negative timestamps, and proper per-track nesting.
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = [
    "Tracer",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
    "span",
    "instant",
    "validate_trace",
    "worker_pids",
]

#: Category stamped on every event (lets viewers filter repro traces).
_CATEGORY = "repro"

#: Nesting tolerance in microseconds — sibling spans produced by
#: back-to-back ``perf_counter`` reads can disagree by sub-ns rounding.
_NEST_EPS_US = 0.01


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        """Ignore late-bound span arguments."""


_NULL_SPAN = _NullSpan()

#: The installed tracer (``None`` = tracing disabled).  Module-global on
#: purpose: the fast path of :func:`span` is one load and one ``is``.
_TRACER: "Tracer | None" = None


class _Span:
    """One live span: records its interval on ``__exit__``."""

    __slots__ = ("_tracer", "name", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args

    def set(self, **args) -> None:
        """Attach result arguments discovered while the span is open."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self._tracer._stack().append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        tracer.add_complete(
            self.name, self._start, end, args=self.args or None
        )
        return False


class Tracer:
    """Collects trace events and exports Chrome trace-event JSON.

    All timestamps are :func:`time.perf_counter` seconds, converted to
    microseconds relative to the tracer's creation instant (``t0``) at
    export.  The wall-clock creation time is recorded in the export's
    ``metadata`` block so a trace can be correlated with logs.

    The tracer is thread-safe: spans may be opened from any coordinator
    thread (each gets its own track via its thread id), and
    :meth:`add_worker_event` may be called while spans are open.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.t0 = time.perf_counter()
        self.wall0 = time.time()
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._track_names: dict[int, str] = {
            self.pid: "coordinator",
        }
        self._tid_names: dict[tuple[int, int], str] = {}

    # -- span recording ------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **args) -> _Span:
        """Open a coordinator span (use as a context manager)."""
        return _Span(self, name, args)

    def add_complete(
        self,
        name: str,
        t0: float,
        t1: float,
        *,
        pid: int | None = None,
        tid: int | None = None,
        args: dict | None = None,
    ) -> None:
        """Record a finished interval (``perf_counter`` seconds)."""
        event = {
            "name": name,
            "cat": _CATEGORY,
            "ph": "X",
            "ts": self._us(t0),
            "dur": max(0.0, round((t1 - t0) * 1e6, 3)),
            "pid": self.pid if pid is None else pid,
            "tid": threading.get_ident() if tid is None else tid,
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)

    def add_instant(self, name: str, *, args: dict | None = None) -> None:
        """Record a zero-duration marker at the current instant."""
        event = {
            "name": name,
            "cat": _CATEGORY,
            "ph": "i",
            "s": "p",
            "ts": self._us(time.perf_counter()),
            "pid": self.pid,
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)

    def add_worker_event(self, meta: dict) -> None:
        """Merge one worker-stamped command record into the trace.

        ``meta`` is the ``{"op", "pid", "t0", "t1"}`` dict a shard
        worker attaches to its reply (see
        :func:`repro.shard.worker.worker_main`).  The event lands on a
        per-worker track named after the worker's pid; the shared
        ``perf_counter`` timebase makes it line up with the
        coordinator's spans.
        """
        pid = meta["pid"]
        if pid not in self._track_names:
            self.set_track_name(pid, f"shard-worker-{pid}")
        self.add_complete(
            f"shard:{meta['op']}",
            meta["t0"],
            meta["t1"],
            pid=pid,
            tid=0,
            args={k: v for k, v in meta.items() if k not in ("t0", "t1")},
        )

    def set_track_name(self, pid: int, name: str) -> None:
        """Label a process track (rendered as the row title)."""
        with self._lock:
            self._track_names[pid] = name

    def _us(self, t: float) -> float:
        """Convert ``perf_counter`` seconds to trace µs (clamped ≥ 0)."""
        return max(0.0, round((t - self.t0) * 1e6, 3))

    # -- export -------------------------------------------------------- #

    def to_dict(self) -> dict:
        """Build the Chrome trace-event JSON object."""
        with self._lock:
            meta_events = [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
                for pid, name in sorted(self._track_names.items())
            ]
            return {
                "traceEvents": meta_events + list(self._events),
                "displayTimeUnit": "ms",
                "metadata": {
                    "tool": "repro.obs.trace",
                    "wall_start": self.wall0,
                    "coordinator_pid": self.pid,
                },
            }

    def export(self, path: str) -> None:
        """Write the trace to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    def events(self, start: int = 0) -> list[dict]:
        """Raw events recorded since index ``start`` (no metadata events).

        With ``start = len(tracer)`` taken before a region, this is the
        window the bench driver aggregates into per-phase breakdowns.
        """
        with self._lock:
            return list(self._events[start:])

    def __len__(self) -> int:
        return len(self._events)


# -- module-level API (what instrumentation sites call) ---------------- #


def install_tracer(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (a fresh one by default) as the process tracer."""
    global _TRACER
    if tracer is None:
        tracer = Tracer()
    _TRACER = tracer
    return tracer


def uninstall_tracer() -> None:
    """Disable tracing (the installed tracer keeps its events)."""
    global _TRACER
    _TRACER = None


def current_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _TRACER


def span(name: str, **args):
    """Open a span on the installed tracer; a shared no-op when disabled.

    This is *the* instrumentation entry point::

        with obs_span("gc_sweep", live_before=n):
            ...

    When no tracer is installed the same ``_NullSpan`` singleton is
    returned every time — no allocation, no clock read.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer, name, args)


def instant(name: str, **args) -> None:
    """Record an instant marker on the installed tracer (no-op when off)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.add_instant(name, args=args or None)


# -- schema validation (tests + CI trace-smoke) ------------------------ #


def worker_pids(data: dict) -> set[int]:
    """Pids of the per-worker tracks announced by metadata events."""
    pids = set()
    for event in data.get("traceEvents", ()):
        if (
            event.get("ph") == "M"
            and event.get("name") == "process_name"
            and str(event.get("args", {}).get("name", "")).startswith(
                "shard-worker"
            )
        ):
            pids.add(event["pid"])
    return pids


def validate_trace(data: dict, *, require_workers: bool = False) -> list[str]:
    """Check ``data`` against the Chrome trace-event schema.

    Returns a list of human-readable problems (empty = valid):

    - the top level must be an object with a ``traceEvents`` list;
    - every ``"X"`` event needs a string ``name``, numeric ``ts ≥ 0``
      and ``dur ≥ 0``, and integer ``pid``/``tid``;
    - per ``(pid, tid)`` track, spans must properly nest — a span may
      contain or follow a sibling but never partially overlap it;
    - with ``require_workers=True``, at least one pid-tagged
      ``shard-worker-*`` track must exist and carry at least one span.
    """
    problems: list[str] = []
    if not isinstance(data, dict) or not isinstance(
        data.get("traceEvents"), list
    ):
        return ["top level must be an object with a 'traceEvents' list"]
    tracks: dict[tuple, list[tuple[float, float, str]]] = {}
    for i, event in enumerate(data["traceEvents"]):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                problems.append(f"event {i}: unknown metadata {event.get('name')!r}")
            continue
        if ph == "i":
            continue
        if ph != "X":
            problems.append(f"event {i}: unsupported phase {ph!r}")
            continue
        name = event.get("name")
        ts = event.get("ts")
        dur = event.get("dur")
        if not isinstance(name, str) or not name:
            problems.append(f"event {i}: missing span name")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} ({name!r}): bad ts {ts!r}")
            continue
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"event {i} ({name!r}): bad dur {dur!r}")
            continue
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            problems.append(f"event {i} ({name!r}): pid/tid must be ints")
            continue
        tracks.setdefault((event["pid"], event["tid"]), []).append(
            (float(ts), float(ts) + float(dur), str(name))
        )
    for (pid, tid), spans in tracks.items():
        # Chronological, outermost-first for equal starts.
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack: list[tuple[float, float, str]] = []
        for start, end, name in spans:
            while stack and start >= stack[-1][1] - _NEST_EPS_US:
                stack.pop()
            if stack and end > stack[-1][1] + _NEST_EPS_US:
                problems.append(
                    f"track {pid}/{tid}: span {name!r} [{start}, {end}] "
                    f"partially overlaps {stack[-1][2]!r} "
                    f"[{stack[-1][0]}, {stack[-1][1]}]"
                )
                continue
            stack.append((start, end, name))
    if require_workers:
        pids = worker_pids(data)
        if not pids:
            problems.append("no shard-worker tracks in trace")
        else:
            spanned = {
                event["pid"]
                for event in data["traceEvents"]
                if event.get("ph") == "X" and event.get("pid") in pids
            }
            if not spanned:
                problems.append("shard-worker tracks carry no spans")
    return problems


def _main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.trace FILE`` — validate a trace file."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Validate a Chrome trace-event JSON file.",
    )
    parser.add_argument("file", help="trace JSON produced by --trace")
    parser.add_argument(
        "--require-workers",
        action="store_true",
        help="fail unless pid-tagged shard-worker tracks carry spans",
    )
    opts = parser.parse_args(argv)
    with open(opts.file, encoding="utf-8") as fh:
        data = json.load(fh)
    problems = validate_trace(data, require_workers=opts.require_workers)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    events = [e for e in data["traceEvents"] if e.get("ph") == "X"]
    print(
        f"ok: {len(events)} spans across "
        f"{len({(e['pid'], e['tid']) for e in events})} tracks "
        f"({len(worker_pids(data))} worker tracks)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(_main())
