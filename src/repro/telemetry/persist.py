"""Store-backed telemetry: write, read and render one run.

A :class:`~repro.telemetry.hub.Telemetry` hub evaporates at process
exit.  :func:`flush_run` persists one *aggregated* snapshot of a
finished run — per-span-name self-time totals and percentiles,
counter/gauge totals, histogram percentile estimates, plus provenance
(git revision, machine, session/suite identity) — into the
:class:`~repro.store.db.MeasurementStore` telemetry tables;
:func:`load_run` reads one back.  One renderer prints a live hub
(``telemetry.summarize``, the CLI's ``-v`` summary) and a stored run
(``repro telemetry report``): both pass the same span and metric rows to
:func:`_render_rows`, so the two reports cannot drift apart.

Aggregation happens *after* the runner's deterministic
``merge_worker`` pass, so a ``--jobs N`` run persists exactly the same
span names, call counts, and metric totals as its serial twin — only
the wall-clock columns differ.  Payload rows are schema-versioned
(:data:`TELEMETRY_SCHEMA_VERSION`): a reader facing a newer version
skips the run with a note instead of misreading it.

Persistence is observe-only.  It reads a closed hub and writes a store;
it never touches random state, so runs with persistence enabled are
bit-identical to runs without.
"""

from __future__ import annotations

import os
import platform
import subprocess
import uuid
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from repro.telemetry.hub import NullTelemetry, Telemetry

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "RunSnapshot",
    "aggregate_spans",
    "flush_run",
    "git_revision",
    "histogram_percentiles",
    "load_run",
    "render_hub",
    "render_run",
    "run_provenance",
]

#: Version of the persisted telemetry payload (span/metric row shapes).
#: Bump on breaking changes; readers skip rows with versions they do
#: not support instead of raising.
TELEMETRY_SCHEMA_VERSION = 1

#: Percentiles estimated for persisted histograms.
HISTOGRAM_PERCENTILES = (50, 90, 99)


def aggregate_spans(hub: Telemetry | NullTelemetry) -> list[dict]:
    """Per-span-name aggregates of one hub: count, total, self time.

    Self time is each record's duration minus its direct children's;
    ``self_p50_s``/``self_p90_s`` are percentiles of the *per-record*
    self times (a mean hides a stretched tail).  Rows are sorted by
    descending self time, name-tiebroken — the store's read order.  A
    disabled or empty hub aggregates to ``[]`` — reporting on nothing is
    clean, never an error.
    """
    records = list(getattr(hub, "spans", ()) or ())
    if not records:
        return []
    child_total: dict[int, float] = {}
    for record in records:
        if record.parent_id is not None:
            child_total[record.parent_id] = (
                child_total.get(record.parent_id, 0.0) + record.duration
            )
    by_name: dict[str, dict] = {}
    for record in records:
        agg = by_name.setdefault(
            record.name,
            {"name": record.name, "count": 0, "total_s": 0.0, "selves": []},
        )
        agg["count"] += 1
        agg["total_s"] += record.duration
        agg["selves"].append(
            max(0.0, record.duration - child_total.get(record.span_id, 0.0))
        )
    out = []
    for agg in by_name.values():
        selves = np.asarray(agg.pop("selves"), dtype=np.float64)
        agg["self_s"] = float(selves.sum())
        agg["self_p50_s"] = float(np.percentile(selves, 50))
        agg["self_p90_s"] = float(np.percentile(selves, 90))
        out.append(agg)
    out.sort(key=lambda a: (-a["self_s"], a["name"]))
    return out


def histogram_percentiles(snap: dict, percentiles=HISTOGRAM_PERCENTILES):
    """Bucket-boundary percentile estimates of one histogram snapshot.

    Returns ``{"p50": bound, ...}`` where each value is the upper bound
    of the first bucket whose cumulative count reaches the requested
    fraction — ``None`` for observations past the last bound (the
    overflow bucket has no finite upper edge) and for zero-sample
    histograms (there is nothing to estimate; reporting stays clean).
    """
    count = int(snap.get("count") or 0)
    buckets = list(snap.get("buckets") or ())
    counts = list(snap.get("counts") or ())
    if count <= 0 or not buckets or len(counts) != len(buckets) + 1:
        return {f"p{p}": None for p in percentiles}
    out = {}
    for p in percentiles:
        target = count * (p / 100.0)
        cumulative = 0
        estimate = None
        for bound, bucket_count in zip(buckets, counts):
            cumulative += bucket_count
            if cumulative >= target:
                estimate = float(bound)
                break
        out[f"p{p}"] = estimate
    return out


def _metric_rows(hub: Telemetry | NullTelemetry) -> list[dict]:
    """Persistable rows of every metric snapshot (name-sorted)."""
    rows = []
    for snap in hub.metrics_snapshot():
        kind = snap.get("kind", "counter")
        if kind == "histogram":
            count = int(snap.get("count") or 0)
            total = float(snap.get("total") or 0.0)
            payload = {
                "count": count,
                "total": total,
                "mean": total / count if count else 0.0,
                **histogram_percentiles(snap),
            }
            rows.append(
                {
                    "kind": kind,
                    "name": snap["name"],
                    "value": float(count),
                    "payload": payload,
                }
            )
        else:
            value = snap.get("value")
            rows.append(
                {
                    "kind": kind,
                    "name": snap["name"],
                    "value": None if value is None else float(value),
                    "payload": {},
                }
            )
    return rows


def git_revision() -> str:
    """Best-effort code revision: CI env var first, then ``git``."""
    for var in ("GITHUB_SHA", "CI_COMMIT_SHA", "REPRO_GIT_REV"):
        rev = os.environ.get(var)
        if rev:
            return rev[:12]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def run_provenance(
    label: str = "", session: str = "", suite: str = ""
) -> dict:
    """The run-level row of one persisted snapshot."""
    return {
        "run_key": uuid.uuid4().hex[:12],
        "label": label,
        "session": session,
        "suite": suite,
        "git_rev": git_revision(),
        "machine": platform.node(),
        "schema_version": TELEMETRY_SCHEMA_VERSION,
    }


def flush_run(
    store,
    hub: Telemetry | NullTelemetry | None = None,
    *,
    label: str = "",
    session: str = "",
    suite: str = "",
) -> str | None:
    """Persist one hub's aggregated telemetry as a new store run.

    ``store`` is a :class:`~repro.store.db.MeasurementStore` or a path;
    ``hub`` defaults to the process-current hub.  Returns the new run's
    ``run_key``, or ``None`` for a disabled hub (flushing nothing is a
    clean no-op, mirroring :class:`~repro.telemetry.hub.NullTelemetry`).
    An enabled-but-empty hub still records a run row — an empty profile
    is a fact worth reporting, not an error.

    The hub is aggregated before the store is touched, and the store is
    opened and written under a disabled process hub, so neither the
    stored run nor the live hub lists the cost of persisting it; flush
    once the run's work is done.  A store opened here from a path is
    closed here.
    """
    from repro import telemetry

    if hub is None:
        hub = telemetry.get()
    if not getattr(hub, "enabled", False):
        return None
    from repro.store.db import MeasurementStore

    spans, metrics = aggregate_spans(hub), _metric_rows(hub)
    run = run_provenance(label=label, session=session, suite=suite)
    opened = not isinstance(store, MeasurementStore)
    with telemetry.use(None):
        if opened:
            store = MeasurementStore(store)
        try:
            store.record_telemetry_run(run, spans, metrics)
        finally:
            if opened:
                store.close()
    return run["run_key"]


# -- reading -------------------------------------------------------------------


@dataclass(frozen=True)
class RunSnapshot:
    """One persisted telemetry run, fully loaded."""

    run: dict
    spans: tuple = ()
    metrics: tuple = ()
    #: Set when the stored payload version is unsupported; ``spans`` and
    #: ``metrics`` are then empty and reports must say so, not raise.
    skipped_reason: str | None = None

    @property
    def run_key(self) -> str:
        return self.run["run_key"]

    @property
    def name(self) -> str:
        label = self.run.get("label") or ""
        return f"{self.run_key} ({label})" if label else self.run_key


def load_run(store, ref: str | int | None = None) -> RunSnapshot:
    """Load one run: the newest, or by run key, label or numeric id.

    ``store`` is a :class:`~repro.store.db.MeasurementStore` or a path
    (opened and closed here).  Raises ``LookupError`` when nothing
    matches; an unsupported payload version loads as a skipped snapshot
    instead of raising.
    """
    from repro.store.db import MeasurementStore

    if not isinstance(store, MeasurementStore):
        with closing(MeasurementStore(store)) as opened:
            return load_run(opened, ref)
    row = store.find_telemetry_run(ref)
    if row is None:
        known = ", ".join(r["run_key"] for r in store.telemetry_runs()[-5:])
        raise LookupError(
            f"no telemetry run matches {ref!r}"
            + (f" (recent runs: {known})" if known else " (store has none)")
        )
    if int(row["schema_version"]) > TELEMETRY_SCHEMA_VERSION:
        return RunSnapshot(
            run=row,
            skipped_reason=(
                f"payload schema {row['schema_version']} is newer than "
                f"supported {TELEMETRY_SCHEMA_VERSION}; spans/metrics "
                "not loaded"
            ),
        )
    return RunSnapshot(
        run=row,
        spans=tuple(store.telemetry_spans(row["id"])),
        metrics=tuple(store.telemetry_metrics(row["id"])),
    )


# -- rendering -----------------------------------------------------------------


def _render_rows(spans, metrics, top: int) -> list[str]:
    """The span table and metric list of one run, live or stored.

    ``spans`` are :func:`aggregate_spans` rows and ``metrics``
    :func:`_metric_rows` rows; the store reads both back in the order
    they were written, so a hub and its flushed run print alike.
    """
    if spans:
        lines = [
            f"{'span':32s} {'count':>7s} {'total s':>10s} {'self s':>10s} "
            f"{'p50 ms':>9s} {'p90 ms':>9s}"
        ]
        for span in spans[:top]:
            lines.append(
                f"{span['name']:32s} {span['count']:7d} "
                f"{span['total_s']:10.3f} {span['self_s']:10.3f} "
                f"{span['self_p50_s'] * 1e3:9.2f} "
                f"{span['self_p90_s'] * 1e3:9.2f}"
            )
        if len(spans) > top:
            lines.append(f"... and {len(spans) - top} more span names")
    else:
        lines = ["no spans recorded"]
    if metrics:
        lines.extend(["", "metrics"])
        for metric in metrics:
            payload = metric["payload"]
            value = (
                f"count={payload['count']} mean={payload['mean']:.4f}"
                if metric["kind"] == "histogram"
                else metric["value"]
            )
            lines.append(f"  {metric['name']:30s} {value}")
    return lines


def render_hub(hub: Telemetry | NullTelemetry, top: int = 15) -> str:
    """Human-readable summary of one live hub's spans and metrics."""
    if not hub.enabled:
        return "telemetry disabled"
    rows = _render_rows(aggregate_spans(hub), _metric_rows(hub), top)
    return "\n".join(["telemetry summary", "-----------------", *rows])


def render_run(snapshot: RunSnapshot, top: int = 15) -> str:
    """Human-readable report of one stored run, provenance first."""
    run = snapshot.run
    lines = [
        f"telemetry run {snapshot.name}",
        f"  recorded {run['created_at']}  machine={run['machine'] or '?'}"
        f"  rev={run['git_rev'] or '?'}  schema={run['schema_version']}",
    ]
    if run.get("session"):
        lines.append(f"  session {run['session']}")
    if run.get("suite"):
        lines.append(f"  suite {run['suite']}")
    if snapshot.skipped_reason:
        lines.append(f"  SKIPPED: {snapshot.skipped_reason}")
    else:
        lines.extend(_render_rows(snapshot.spans, snapshot.metrics, top))
    return "\n".join(lines)
