"""Optional event tracing of coupled runs.

A :class:`RunTracer` passed to :func:`repro.insitu.coupled.run_coupled`
records a timeline of component activity — step compute intervals,
publishes, drains, and blocking waits — without perturbing the
simulation.  Useful for understanding *why* a configuration is slow
(e.g. producer back-pressure vs consumer starvation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TraceEvent", "RunTracer"]

#: Event kinds recorded by the tracer.
KINDS = ("startup", "compute", "publish", "drain", "wait_get", "wait_put")


@dataclass(frozen=True)
class TraceEvent:
    """One interval of component activity.

    Attributes
    ----------
    component:
        Component label.
    kind:
        One of :data:`KINDS`.
    step:
        Step index (−1 for startup).
    start, end:
        Simulated-time interval.
    """

    component: str
    kind: str
    step: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")
        if self.end < self.start:
            raise ValueError("event ends before it starts")


@dataclass
class RunTracer:
    """Collects :class:`TraceEvent` records during a coupled run."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(
        self, component: str, kind: str, step: int, start: float, end: float
    ) -> None:
        """Append one interval (called by the coupled runner)."""
        self.events.append(TraceEvent(component, kind, step, start, end))

    # -- queries -------------------------------------------------------------

    def of(self, component: str, kind: str | None = None) -> list[TraceEvent]:
        """Events of one component, optionally filtered by kind."""
        return [
            e
            for e in self.events
            if e.component == component and (kind is None or e.kind == kind)
        ]

    def total(self, component: str, kind: str) -> float:
        """Summed duration of one activity kind for a component."""
        return sum(e.duration for e in self.of(component, kind))

    def blocked_seconds(self, component: str) -> float:
        """Time spent blocked on couplings (empty gets + full puts)."""
        return self.total(component, "wait_get") + self.total(
            component, "wait_put"
        )

    def timeline(self, component: str) -> list[TraceEvent]:
        """Component events in chronological order."""
        return sorted(self.of(component), key=lambda e: (e.start, e.end))

    def summary(self) -> dict:
        """Per-component totals by kind (seconds)."""
        out: dict = {}
        for event in self.events:
            by_kind = out.setdefault(event.component, {})
            by_kind[event.kind] = by_kind.get(event.kind, 0.0) + event.duration
        return out

    # -- chrome-trace export --------------------------------------------------

    def chrome_events(self, pid: int | None = None) -> list[dict]:
        """This timeline as Chrome trace events (one tid per component).

        Simulated seconds map to trace microseconds.  Suitable for
        :meth:`repro.telemetry.Telemetry.record_simulated`, which folds
        a coupled-run timeline into the same trace file as the tuner's
        wall-clock spans (under the simulated-time pid).
        """
        from repro.telemetry.chrome import SIMULATED_PID, complete_event

        if pid is None:
            pid = SIMULATED_PID
        tids: dict[str, int] = {}
        events: list[dict] = []
        for e in self.events:
            tid = tids.setdefault(e.component, len(tids))
            # Round both endpoints the same way (as the exporter does for
            # wall-clock spans): rounding is monotone, so back-to-back
            # intervals cannot overlap at microsecond resolution.
            ts = max(0.0, round(e.start * 1e6, 3))
            end = max(ts, round(e.end * 1e6, 3))
            events.append(
                complete_event(
                    e.kind,
                    ts,
                    end - ts,
                    category="insitu",
                    pid=pid,
                    tid=tid,
                    args={"component": e.component, "step": e.step},
                )
            )
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"name": component},
            }
            for component, tid in tids.items()
        ]
        return meta + events

    def to_chrome_trace(self) -> dict:
        """A standalone Chrome trace object of this run's timeline.

        Validated by
        :func:`repro.telemetry.chrome.validate_chrome_trace`; loads
        directly in Perfetto / ``chrome://tracing``.
        """
        from repro.telemetry.chrome import SIMULATED_PID

        process_meta = {
            "name": "process_name",
            "ph": "M",
            "pid": SIMULATED_PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": "coupled run (simulated time)"},
        }
        return {
            "traceEvents": [process_meta] + self.chrome_events(),
            "displayTimeUnit": "ms",
        }
