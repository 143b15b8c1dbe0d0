"""Stdlib-only metrics: counters, gauges, histograms, Prometheus text.

The runtime already *measures* a lot — GC reclaim ratios,
completion-memo hits, psi serializations, steal counts, cache
hits — in the kernel's ``mgr.stats``, the per-solve
:class:`~repro.eqn.stats.SubsetStats` and ``ShardPool.op_counts``.  A
:class:`MetricsRegistry` federates them behind one interface and one
wire format: the Prometheus text exposition format served at
``GET /metrics`` by :mod:`repro.serve.server`::

    registry = MetricsRegistry()
    solves = registry.counter("repro_solves_total", "Completed solves.")
    solves.inc()
    print(registry.render())
    # HELP repro_solves_total Completed solves.
    # TYPE repro_solves_total counter
    # repro_solves_total 1

Metric constructors are get-or-create: asking twice for the same name
returns the same object (with a :class:`ValueError` on a kind
mismatch), so independent call sites can share families without
plumbing.  All mutation is lock-protected — the executor thread and the
HTTP threads touch the same registry.

:func:`parse_exposition` is the matching mini-parser used by the tests
(grammar round-trip) and available for scripting against ``/metrics``.
"""

from __future__ import annotations

import math
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets — seconds-oriented, spanning the sub-ms
#: shard commands up to multi-minute Table 1 solves.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 25.0, 100.0, 500.0,
)


def _fmt(value: float) -> str:
    """Render a sample value (ints without a trailing ``.0``)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _label_key(labels: dict) -> tuple:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"bad label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + inner + "}"


class _Metric:
    """Shared naming/locking scaffolding of the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: dict[tuple, float] = {}

    def value(self, **labels) -> float:
        """Current value of one label combination (0 when unseen)."""
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[str, tuple, float]]:
        """Flat ``(sample_name, label_key, value)`` triples to render."""
        with self._lock:
            items = sorted(self._values.items())
        if not items:
            items = [((), 0.0)]
        return [(self.name, key, value) for key, value in items]


class Counter(_Metric):
    """A monotonically increasing count (name should end ``_total``)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_to(self, value: float, **labels) -> None:
        """Raise the counter to an absolute value (for federating an
        already-cumulative source counter); never moves backwards."""
        key = _label_key(labels)
        with self._lock:
            self._values[key] = max(self._values.get(key, 0.0), float(value))


class Gauge(_Metric):
    """A value that can go up and down (queue depth, live nodes)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)


class Histogram(_Metric):
    """Cumulative-bucket histogram (``_bucket``/``_sum``/``_count``)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str, buckets: tuple = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        # Per label key: [per-bucket counts..., +Inf count], sum.
        self._data: dict[tuple, tuple[list, list]] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            counts, total = self._data.setdefault(
                key, ([0] * (len(self.buckets) + 1), [0.0])
            )
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            total[0] += float(value)
            self._values[key] = self._values.get(key, 0.0) + 1

    def samples(self) -> list[tuple[str, tuple, float]]:
        with self._lock:
            data = {k: (list(c), t[0]) for k, (c, t) in self._data.items()}
        if not data:
            data = {(): ([0] * (len(self.buckets) + 1), 0.0)}
        out: list[tuple[str, tuple, float]] = []
        for key in sorted(data):
            counts, total = data[key]
            running = 0
            for bound, n in zip(self.buckets, counts):
                running += n
                out.append(
                    (
                        f"{self.name}_bucket",
                        key + (("le", _fmt(bound)),),
                        float(running),
                    )
                )
            running += counts[-1]
            out.append(
                (f"{self.name}_bucket", key + (("le", "+Inf"),), float(running))
            )
            out.append((f"{self.name}_sum", key, total))
            out.append((f"{self.name}_count", key, float(running)))
        return out


class MetricsRegistry:
    """A named family of metrics rendered in one exposition document."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str) -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str) -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str, buckets: tuple = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def render(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            help_text = metric.help.replace("\\", r"\\").replace("\n", r"\n")
            lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, key, value in metric.samples():
                lines.append(f"{sample_name}{_label_str(key)} {_fmt(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """Plain-dict view (per-job ``metrics`` field, ``repro jobs``).

        Label-free metrics map to their value; labelled ones map to a
        ``{"k=v": value}`` dict; histograms to ``{"count", "sum"}``.
        """
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        out: dict = {}
        for metric in metrics:
            if isinstance(metric, Histogram):
                with metric._lock:
                    count = sum(metric._values.values())
                    total = sum(t[0] for _, t in metric._data.values())
                out[metric.name] = {"count": count, "sum": total}
                continue
            with metric._lock:
                values = dict(metric._values)
            if not values:
                out[metric.name] = 0.0
            elif len(values) == 1 and () in values:
                out[metric.name] = values[()]
            else:
                out[metric.name] = {
                    ",".join(f"{k}={v}" for k, v in key) or "": value
                    for key, value in sorted(values.items())
                }
        return out


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def parse_exposition(text: str) -> dict:
    """Parse Prometheus exposition text back into families.

    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value), ...]}}`` and raises :class:`ValueError` on any line that
    does not match the grammar — this is the round-trip check used by
    the tests against :meth:`MetricsRegistry.render`.
    """
    families: dict = {}

    def family_for(sample_name: str) -> dict:
        for suffix in ("_bucket", "_sum", "_count", ""):
            if suffix and sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
            else:
                base = sample_name
            if base in families:
                return families[base]
        return families.setdefault(
            sample_name, {"type": "untyped", "help": "", "samples": []}
        )

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "untyped"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["type"] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: bad sample line {line!r}")
        labels = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw):
                labels[pair.group("key")] = (
                    pair.group("value")
                    .replace(r"\"", '"')
                    .replace(r"\n", "\n")
                    .replace(r"\\", "\\")
                )
                consumed = pair.end()
            if consumed != len(raw):
                raise ValueError(f"line {lineno}: bad labels {raw!r}")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad value {match.group('value')!r}"
            ) from exc
        family_for(match.group("name"))["samples"].append(
            (match.group("name"), labels, value)
        )
    return families
