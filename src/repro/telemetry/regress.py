"""Perf-regression layer over persisted telemetry runs.

Once :mod:`repro.telemetry.persist` has flushed runs into a store, this
module answers the question every perf PR in this repo has asked by
hand so far: *did it get slower?*  Three operations, mirrored by the
``repro telemetry {report,diff,baseline}`` CLI:

* :func:`load_run` / :func:`render_run` — fetch one run (newest, by
  run key, by label, or by a named baseline) and render its top
  self-time spans and metric totals;
* :func:`set_baseline` — give a run a durable name (``main``,
  ``pre-refactor``…) stored as a metadata row, so later sessions can
  diff against it without knowing its run key;
* :func:`diff_runs` / :func:`render_diff` — compare a run against a
  baseline: for the baseline's top-N spans by self-time, flag any whose
  p50/p90 per-record self time regressed beyond a threshold.  The CLI
  exits non-zero on a flagged regression, which is the CI gate.

Runs whose payload ``schema_version`` is newer than this code
understands are *skipped with a note*, never misread and never an
exception — the same forward-compatibility stance as the store's own
schema guard.

The committed ``BENCH_*.json`` perf floors ride the same path:
:func:`check_floors` walks any benchmark JSON for ``floor``/``speedup``
pairs and reports violations through the same report/exit-code shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RunSnapshot",
    "check_floors",
    "diff_runs",
    "load_run",
    "render_diff",
    "render_floors",
    "render_run",
    "set_baseline",
]

#: Metadata-key prefix of named baselines in a measurement store.
_BASELINE_PREFIX = "telemetry/baseline/"

#: Default regression gate: flag a top span whose p90 self time grew by
#: more than this fraction over the baseline.
DEFAULT_THRESHOLD = 0.20

#: Default number of top-self-time baseline spans the gate watches.
DEFAULT_TOP = 10

#: Spans whose baseline p90 self time is below this are ignored by the
#: gate: at sub-millisecond scale, scheduler jitter dwarfs any real
#: regression and the gate would flap.
MIN_GATE_SECONDS = 0.0005


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


def _open_store(store):
    from repro.store.db import MeasurementStore

    if isinstance(store, MeasurementStore):
        return store
    return MeasurementStore(store)


def load_run(store, ref: str | int | None = None) -> RunSnapshot:
    """Load one run by reference (see ``find_telemetry_run``).

    ``ref`` additionally resolves through named baselines
    (:func:`set_baseline`).  Raises ``LookupError`` when nothing
    matches; an unsupported payload version loads as a skipped snapshot
    instead of raising.
    """
    store = _open_store(store)
    row = None
    if ref is not None:
        marker = store.get_metadata(_BASELINE_PREFIX + str(ref))
        if marker is not None:
            row = store.find_telemetry_run(marker["run_key"])
    if row is None:
        row = store.find_telemetry_run(ref)
    if row is None:
        known = ", ".join(r["run_key"] for r in store.telemetry_runs()[-5:])
        raise LookupError(
            f"no telemetry run matches {ref!r}"
            + (f" (recent runs: {known})" if known else " (store has none)")
        )
    from repro.telemetry.persist import TELEMETRY_SCHEMA_VERSION

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


def set_baseline(store, name: str, ref: str | int | None = None) -> dict:
    """Durably name a run (default: the newest) as baseline ``name``."""
    store = _open_store(store)
    snapshot = load_run(store, ref)
    marker = {"run_key": snapshot.run_key, "label": snapshot.run.get("label")}
    store.set_metadata(_BASELINE_PREFIX + str(name), marker)
    return marker


# -- diffing -------------------------------------------------------------------


@dataclass
class _SpanDelta:
    name: str
    base: dict | None
    current: dict | None
    regressed: bool = False
    fields: dict = field(default_factory=dict)


def _relative(base: float, current: float) -> float:
    if base <= 0.0:
        return 0.0 if current <= 0.0 else float("inf")
    return current / base - 1.0


def diff_runs(
    baseline: RunSnapshot,
    current: RunSnapshot,
    threshold: float = DEFAULT_THRESHOLD,
    top: int = DEFAULT_TOP,
    min_seconds: float = MIN_GATE_SECONDS,
) -> dict:
    """Compare ``current`` against ``baseline``; the CI regression gate.

    Watches the baseline's ``top`` spans by total self time and flags
    any whose p50 or p90 per-record self time grew by more than
    ``threshold`` (fractional).  Spans below ``min_seconds`` baseline
    p90 are compared but never flagged (jitter).  A span present in the
    baseline but absent from the current run is reported as removed —
    informational, not a regression.  Skipped (unsupported-schema) runs
    produce an inconclusive report with ``ok=True`` and a note: an
    unreadable run must not fail CI with a phantom regression.
    """
    notes = []
    for side, snap in (("baseline", baseline), ("current", current)):
        if snap.skipped_reason:
            notes.append(f"{side} run {snap.run_key}: {snap.skipped_reason}")
    if notes:
        return {
            "baseline": baseline.run,
            "current": current.run,
            "threshold": threshold,
            "top": top,
            "ok": True,
            "inconclusive": True,
            "notes": notes,
            "spans": [],
            "regressions": [],
        }
    current_by_name = {s["name"]: s for s in current.spans}
    watched = sorted(
        baseline.spans, key=lambda s: (-s["self_s"], s["name"])
    )[: max(0, top)]
    rows = []
    regressions = []
    for base in watched:
        cur = current_by_name.get(base["name"])
        delta = _SpanDelta(name=base["name"], base=base, current=cur)
        if cur is None:
            delta.fields["status"] = "removed"
        else:
            for metric in ("self_p50_s", "self_p90_s"):
                delta.fields[metric] = {
                    "base": base[metric],
                    "current": cur[metric],
                    "relative": _relative(base[metric], cur[metric]),
                }
            gated = base["self_p90_s"] >= min_seconds
            delta.regressed = gated and any(
                delta.fields[m]["relative"] > threshold
                for m in ("self_p50_s", "self_p90_s")
            )
        rows.append(
            {
                "name": delta.name,
                "regressed": delta.regressed,
                **delta.fields,
            }
        )
        if delta.regressed:
            regressions.append(delta.name)
    new_names = [
        s["name"]
        for s in current.spans
        if s["name"] not in {b["name"] for b in baseline.spans}
    ]
    if new_names:
        notes.append(f"spans only in current run: {', '.join(new_names)}")
    return {
        "baseline": baseline.run,
        "current": current.run,
        "threshold": threshold,
        "top": top,
        "ok": not regressions,
        "inconclusive": False,
        "notes": notes,
        "spans": rows,
        "regressions": regressions,
    }


# -- BENCH_*.json floors -------------------------------------------------------


def check_floors(paths) -> dict:
    """Validate committed benchmark floors (``BENCH_*.json``) as a diff.

    Walks each JSON document for mappings carrying both ``floor`` and
    ``speedup`` (``BENCH_ml.json`` nests them per kernel) and for
    top-level ``floor`` keys guarding sibling ``speedup`` entries
    (``BENCH_des.json`` has one floor over per-workflow speedups).
    Returns the same ``ok``/``regressions`` report shape as
    :func:`diff_runs`, so CI wires both through one exit-code path.
    """
    checks = []
    for path in paths:
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            checks.append(
                {
                    "name": str(path),
                    "ok": False,
                    "note": f"unreadable: {exc}",
                }
            )
            continue
        checks.extend(_floor_checks(data, str(path.name)))
    failures = [c["name"] for c in checks if not c["ok"]]
    return {
        "checks": checks,
        "ok": not failures,
        "regressions": failures,
    }


def _floor_checks(data, prefix: str) -> list[dict]:
    out = []
    if not isinstance(data, dict):
        return out
    floor = data.get("floor")
    if isinstance(floor, (int, float)):
        for key, value in data.items():
            speedup = None
            if isinstance(value, dict):
                speedup = value.get("speedup")
            elif key == "speedup":
                speedup = value
            if isinstance(speedup, (int, float)):
                out.append(
                    {
                        "name": f"{prefix}/{key}" if key != "speedup" else prefix,
                        "floor": float(floor),
                        "speedup": float(speedup),
                        "ok": float(speedup) >= float(floor),
                    }
                )
    for key, value in data.items():
        if isinstance(value, dict) and "floor" in value:
            inner_floor = value.get("floor")
            inner_speedup = value.get("speedup")
            if isinstance(inner_floor, (int, float)) and isinstance(
                inner_speedup, (int, float)
            ):
                out.append(
                    {
                        "name": f"{prefix}/{key}",
                        "floor": float(inner_floor),
                        "speedup": float(inner_speedup),
                        "ok": float(inner_speedup) >= float(inner_floor),
                    }
                )
    return out


# -- rendering -----------------------------------------------------------------


def render_run(snapshot: RunSnapshot, top: int = 15) -> str:
    """Human-readable report of one persisted run."""
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
        return "\n".join(lines)
    if snapshot.spans:
        lines.append(
            f"  {'span':32s} {'count':>7s} {'self s':>10s} "
            f"{'p50 ms':>9s} {'p90 ms':>9s}"
        )
        for span in snapshot.spans[:top]:
            lines.append(
                f"  {span['name']:32s} {span['count']:7d} "
                f"{span['self_s']:10.3f} {span['self_p50_s'] * 1e3:9.2f} "
                f"{span['self_p90_s'] * 1e3:9.2f}"
            )
        if len(snapshot.spans) > top:
            lines.append(f"  ... and {len(snapshot.spans) - top} more spans")
    else:
        lines.append("  no spans recorded")
    counters = [m for m in snapshot.metrics if m["kind"] != "histogram"]
    if counters:
        lines.append("  metrics")
        for m in counters:
            lines.append(f"    {m['name']:30s} {m['value']}")
    return "\n".join(lines)


def render_diff(report: dict) -> str:
    """Human-readable regression diff (the CI log artifact)."""
    lines = [
        "telemetry diff: "
        f"{report['current']['run_key']} vs baseline "
        f"{report['baseline']['run_key']} "
        f"(threshold +{report['threshold']:.0%}, top {report['top']})"
    ]
    for note in report["notes"]:
        lines.append(f"  note: {note}")
    if report.get("inconclusive"):
        lines.append("  inconclusive: diff skipped")
        return "\n".join(lines)
    if report["spans"]:
        lines.append(
            f"  {'span':32s} {'p90 base ms':>12s} {'p90 cur ms':>12s} "
            f"{'delta':>8s}"
        )
    for row in report["spans"]:
        if row.get("status") == "removed":
            lines.append(f"  {row['name']:32s} (removed in current run)")
            continue
        p90 = row["self_p90_s"]
        rel = p90["relative"]
        delta = "inf" if rel == float("inf") else f"{rel:+.1%}"
        flag = "  << REGRESSION" if row["regressed"] else ""
        lines.append(
            f"  {row['name']:32s} {p90['base'] * 1e3:12.2f} "
            f"{p90['current'] * 1e3:12.2f} {delta:>8s}{flag}"
        )
    lines.append(
        "  PASS: no spans regressed"
        if report["ok"]
        else f"  FAIL: {len(report['regressions'])} span(s) regressed: "
        + ", ".join(report["regressions"])
    )
    return "\n".join(lines)


def render_floors(report: dict) -> str:
    """Human-readable floor check (``BENCH_*.json``)."""
    lines = ["benchmark floors"]
    for check in report["checks"]:
        if "floor" in check:
            status = "ok" if check["ok"] else "BELOW FLOOR"
            lines.append(
                f"  {check['name']:40s} speedup {check['speedup']:6.2f}x "
                f"(floor {check['floor']:.1f}x) {status}"
            )
        else:
            lines.append(f"  {check['name']:40s} {check['note']}")
    lines.append(
        "  PASS: all floors hold"
        if report["ok"]
        else f"  FAIL: {len(report['regressions'])} check(s) failed"
    )
    return "\n".join(lines)
