"""The process-local telemetry hub: spans, metrics, worker merge.

One :class:`Telemetry` instance owns everything a tuning process records
about *itself*: nested wall-clock **spans** (context managers; parentage
follows the runtime call stack), a **metrics registry** (counters,
gauges, fixed-bucket histograms), and an in-memory ring buffer of closed
:class:`SpanRecord` objects that pluggable sinks (JSONL, Chrome trace)
drain or export.

The default hub is :data:`~repro.telemetry.NULL`, a
:class:`NullTelemetry` whose every operation is a shared no-op — call
sites stay zero-cost when telemetry is disabled, and instrumented code
never needs an ``if``.  Timing uses ``time.perf_counter`` exclusively;
on Linux that clock is shared across ``fork``, so worker snapshots
(:meth:`Telemetry.snapshot`) merge back into the parent hub
(:meth:`Telemetry.merge_worker`) on a common timeline.

Telemetry never touches random state and never feeds back into tuning
decisions: a run with telemetry enabled is bit-identical to one without.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NullTelemetry",
    "SpanRecord",
    "Telemetry",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Default histogram buckets for durations in seconds.
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


@dataclass
class SpanRecord:
    """One closed span: a named wall-clock interval with attributes.

    ``start``/``end`` are raw ``time.perf_counter`` readings; exporters
    rebase them against the owning hub's ``epoch``.  ``worker`` is the
    fan-out task index the span was recorded under (``None`` for the
    parent process), giving merged traces per-worker attribution.
    """

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start: float
    end: float
    attributes: dict = field(default_factory=dict)
    worker: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(**data)


# -- metrics ------------------------------------------------------------------


class Counter:
    """A monotonically increasing sum (e.g. ``runs_measured``)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "name": self.name, "value": self.value}

    def merge(self, snap: dict) -> None:
        self.value += snap["value"]


class Gauge:
    """A last-written value; merges take the maximum.

    The gauges this codebase records are peaks (event-heap high-water
    marks), so cross-worker merging keeps the largest observation —
    which is also deterministic regardless of merge order.
    """

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if self.value is None or value > self.value:
            self.value = value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "name": self.name, "value": self.value}

    def merge(self, snap: dict) -> None:
        if snap["value"] is not None:
            self.set_max(snap["value"])


class Histogram:
    """Fixed-bucket histogram (upper bounds; one overflow bucket)."""

    kind = "histogram"
    __slots__ = ("name", "buckets", "counts", "total", "count")

    def __init__(self, name: str, buckets=DEFAULT_SECONDS_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }

    def merge(self, snap: dict) -> None:
        if tuple(snap["buckets"]) != self.buckets:
            raise ValueError(
                f"histogram {self.name!r} bucket mismatch: "
                f"{snap['buckets']} vs {list(self.buckets)}"
            )
        self.counts = [a + b for a, b in zip(self.counts, snap["counts"])]
        self.total += snap["total"]
        self.count += snap["count"]


_METRIC_TYPES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


# -- spans --------------------------------------------------------------------


class _ActiveSpan:
    """A span in flight; ``with hub.span(...) as sp: sp.set(k=v)``."""

    __slots__ = ("_hub", "name", "category", "attributes", "_start", "_id",
                 "_parent")

    def __init__(self, hub: "Telemetry", name: str, category: str,
                 attributes: dict):
        self._hub = hub
        self.name = name
        self.category = category
        self.attributes = attributes

    def set(self, **attributes) -> None:
        """Attach attributes after the span has started."""
        self.attributes.update(attributes)

    def __enter__(self) -> "_ActiveSpan":
        hub = self._hub
        stack = hub._stack()
        self._parent = stack[-1] if stack else None
        self._id = hub._allocate_id()
        stack.append(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        stack = self._hub._stack()
        if stack and stack[-1] == self._id:
            stack.pop()
        self._hub._record(
            SpanRecord(
                span_id=self._id,
                parent_id=self._parent,
                name=self.name,
                category=self.category,
                start=self._start,
                end=end,
                attributes=self.attributes,
            )
        )
        return False


class _NullSpan:
    """Shared no-op span returned by :class:`NullTelemetry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes) -> None:
        pass


class _NullMetric:
    """Shared no-op metric returned by :class:`NullTelemetry`."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_METRIC = _NullMetric()

#: Snapshot payload format version (worker merge + JSONL sink schema).
SNAPSHOT_VERSION = 1


# -- hubs ---------------------------------------------------------------------


class Telemetry:
    """A live telemetry hub recording spans and metrics.

    Parameters
    ----------
    sinks:
        Objects with ``emit_span(record, epoch)`` / ``emit_metrics(list)``
        / ``close()`` (see :mod:`repro.telemetry.sinks`); every closed
        span is forwarded as it completes, metric snapshots on
        :meth:`close`.
    ring_capacity:
        Size of the in-memory ring buffer of closed spans (oldest
        records are dropped beyond it, and counted on the
        ``telemetry.spans_dropped`` counter).
    """

    enabled = True

    def __init__(self, sinks=(), ring_capacity: int = 65536):
        self.epoch = time.perf_counter()
        self.spans: deque[SpanRecord] = deque(maxlen=ring_capacity)
        self.sinks = list(sinks)
        #: Chrome-ready events bridged from simulated-time timelines
        #: (see :meth:`record_simulated` and ``RunTracer``).
        self.simulated: list[dict] = []
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, *, category: str = "repro", **attributes):
        """Open a nested span; use as a context manager."""
        return _ActiveSpan(self, name, category, attributes)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            dropped = len(self.spans) == self.spans.maxlen
            self.spans.append(record)
        if dropped:
            # Outside the lock: ``counter`` takes it.
            self.counter("telemetry.spans_dropped").inc()
        for sink in self.sinks:
            sink.emit_span(record, self.epoch)

    # -- metrics --------------------------------------------------------------

    def _metric(self, cls, name: str, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, *args)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._metric(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._metric(Gauge, name)

    def histogram(
        self, name: str, buckets=DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        return self._metric(Histogram, name, buckets)

    def metrics_snapshot(self) -> list[dict]:
        """Picklable metric states, sorted by name (deterministic)."""
        with self._lock:
            return [
                self._metrics[name].snapshot()
                for name in sorted(self._metrics)
            ]

    # -- simulated-time bridge ------------------------------------------------

    def record_simulated(self, events) -> None:
        """Attach Chrome-ready events on a simulated-time track.

        ``events`` are complete ("X") Chrome trace event dicts, e.g.
        from :meth:`repro.insitu.tracing.RunTracer.to_chrome_trace`;
        the exporter includes them verbatim under their own pid.
        """
        with self._lock:
            self.simulated.extend(events)

    # -- worker snapshot/merge ------------------------------------------------

    def snapshot(self) -> dict:
        """Everything this hub recorded, as one picklable payload."""
        with self._lock:
            return {
                "version": SNAPSHOT_VERSION,
                "epoch": self.epoch,
                "spans": [record.as_dict() for record in self.spans],
                "metrics": [
                    self._metrics[name].snapshot()
                    for name in sorted(self._metrics)
                ],
                "simulated": list(self.simulated),
            }

    def merge_worker(self, payload: dict | None, worker: int | None = None):
        """Merge a worker hub's :meth:`snapshot` into this hub.

        Span ids are remapped into this hub's id space (nesting is
        preserved), records without a worker are attributed to
        ``worker``, counters/histograms add, gauges keep the maximum.
        Merging payloads in a fixed order (fan-out task order) makes
        the combined telemetry deterministic across ``--jobs`` settings
        in every non-timing field.
        """
        if payload is None:
            return
        if payload.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"telemetry snapshot version {payload.get('version')!r} "
                f"is not supported (expected {SNAPSHOT_VERSION})"
            )
        records = [SpanRecord.from_dict(data) for data in payload["spans"]]
        # Spans arrive in close order, so a child precedes its parent;
        # allocate every new id first or parent links would be dropped.
        id_map = {record.span_id: self._allocate_id() for record in records}
        for record in records:
            record.span_id = id_map[record.span_id]
            record.parent_id = id_map.get(record.parent_id)
            if record.worker is None:
                record.worker = worker
            self._record(record)
        with self._lock:
            for snap in payload["metrics"]:
                metric = self._metrics.get(snap["name"])
                if metric is None:
                    cls = _METRIC_TYPES[snap["kind"]]
                    if snap["kind"] == "histogram":
                        metric = cls(snap["name"], snap["buckets"])
                    else:
                        metric = cls(snap["name"])
                    self._metrics[snap["name"]] = metric
                metric.merge(snap)
            self.simulated.extend(payload["simulated"])

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Flush metric snapshots to every sink and close them."""
        snapshots = self.metrics_snapshot()
        for sink in self.sinks:
            sink.emit_metrics(snapshots)
            sink.close()


class NullTelemetry:
    """The disabled hub: every operation is a shared no-op.

    Instrumented call sites do ``telemetry.get().span(...)`` without
    checking a flag; with this hub installed that costs one attribute
    lookup and a couple of no-op calls.  Sites that would compute
    attribute values should still guard on :attr:`enabled`.
    """

    enabled = False
    spans = ()
    simulated = ()

    def span(self, name: str, *, category: str = "repro", **attributes):
        return _NULL_SPAN

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, buckets=None) -> _NullMetric:
        return _NULL_METRIC

    def metrics_snapshot(self) -> list:
        return []

    def record_simulated(self, events) -> None:
        pass

    def snapshot(self) -> None:
        return None

    def merge_worker(self, payload, worker=None) -> None:
        pass

    def close(self) -> None:
        pass
