"""Persistent telemetry: store round-trips, one renderer, progress.

Three contracts under test:

* **Round-trip** — a hub flushed through
  :func:`repro.telemetry.persist.flush_run` reads back from the store
  with identical deterministic fields, and a parallel (``jobs=2``)
  fan-out aggregates to the same span names/counts/metric totals as
  its serial twin (wall-clock columns excepted).
* **One renderer** — ``telemetry.summarize`` of a live hub and
  ``repro telemetry report`` of its flushed run print the same rows,
  and an unreadable (newer-schema) run reports as skipped, not fatal.
* **Progress** — heartbeat sinks throttle, flush their last event on
  close, and never touch tuning state (bit-identity is pinned in
  ``test_regression_pinned.py``).
"""

import io
import json
import time

import pytest

from repro import telemetry
from repro.experiments.runner import fanout
from repro.store.db import MeasurementStore
from repro.telemetry import progress
from repro.telemetry.hub import NullTelemetry, Telemetry
from repro.telemetry.persist import (
    TELEMETRY_SCHEMA_VERSION,
    aggregate_spans,
    flush_run,
    histogram_percentiles,
    load_run,
    render_run,
    run_provenance,
)
from repro.telemetry.sinks import JsonlSink, load_jsonl


def _busy_hub() -> Telemetry:
    """A hub with nested spans, a counter, and a histogram."""
    hub = Telemetry()
    with hub.span("outer", category="t"):
        with hub.span("inner", category="t"):
            pass
        with hub.span("inner", category="t"):
            pass
    hub.counter("widgets").inc(3)
    hub.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
    hub.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
    return hub


# -- aggregation ---------------------------------------------------------------


def test_aggregate_spans_empty_and_disabled():
    assert aggregate_spans(Telemetry()) == []
    assert aggregate_spans(NullTelemetry()) == []


def test_aggregate_spans_self_time_and_order():
    hub = _busy_hub()
    rows = aggregate_spans(hub)
    by_name = {r["name"]: r for r in rows}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["inner"]["count"] == 2
    outer = by_name["outer"]
    # Self time excludes the two direct children.
    assert outer["self_s"] <= outer["total_s"]
    assert outer["self_p90_s"] >= outer["self_p50_s"] >= 0.0
    # Sorted by descending self time, name-tiebroken — deterministic.
    assert rows == sorted(rows, key=lambda r: (-r["self_s"], r["name"]))


def test_histogram_percentiles_zero_sample_and_overflow():
    empty = {"count": 0, "buckets": [0.1, 1.0], "counts": [0, 0, 0]}
    assert histogram_percentiles(empty) == {"p50": None, "p90": None, "p99": None}
    # Every observation past the last bound: no finite estimate.
    overflow = {"count": 4, "buckets": [0.1, 1.0], "counts": [0, 0, 4]}
    assert histogram_percentiles(overflow) == {
        "p50": None, "p90": None, "p99": None,
    }
    mixed = {"count": 4, "buckets": [0.1, 1.0], "counts": [2, 2, 0]}
    assert histogram_percentiles(mixed)["p50"] == 0.1
    assert histogram_percentiles(mixed)["p90"] == 1.0


# -- store round-trip ----------------------------------------------------------


def test_flush_run_roundtrip(tmp_path):
    store = MeasurementStore(tmp_path / "t.db")
    hub = _busy_hub()
    key = flush_run(store, hub, label="first", session="test", suite="s1")
    assert key
    snap = load_run(store, key)
    assert snap.run["label"] == "first"
    assert snap.run["session"] == "test"
    assert snap.run["suite"] == "s1"
    assert snap.run["schema_version"] == TELEMETRY_SCHEMA_VERSION
    assert {s["name"] for s in snap.spans} == {"outer", "inner"}
    metrics = {m["name"]: m for m in snap.metrics}
    assert metrics["widgets"]["value"] == 3.0
    hist = metrics["lat"]
    assert hist["kind"] == "histogram"
    assert hist["payload"]["count"] == 2
    assert hist["payload"]["p50"] == 0.1
    store.close()


def test_ring_overflow_counts_dropped_spans(tmp_path):
    hub = Telemetry(ring_capacity=2)
    for _ in range(3):
        with hub.span("s", category="t"):
            pass
    assert len(hub.spans) == 2
    store = MeasurementStore(tmp_path / "t.db")
    snap = load_run(store, flush_run(store, hub))
    metrics = {m["name"]: m["value"] for m in snap.metrics}
    assert metrics["telemetry.spans_dropped"] == 1.0
    store.close()


def test_flush_run_disabled_hub_is_noop(tmp_path):
    store = MeasurementStore(tmp_path / "t.db")
    assert flush_run(store, NullTelemetry()) is None
    assert store.telemetry_runs() == []
    store.close()


def test_flush_run_empty_hub_records_row(tmp_path):
    store = MeasurementStore(tmp_path / "t.db")
    key = flush_run(store, Telemetry(), label="empty")
    snap = load_run(store, key)
    assert snap.spans == ()
    assert "no spans recorded" in render_run(snap)
    store.close()


def test_load_run_resolution_and_missing(tmp_path):
    store = MeasurementStore(tmp_path / "t.db")
    k1 = flush_run(store, _busy_hub(), label="one")
    k2 = flush_run(store, _busy_hub(), label="two")
    assert load_run(store, None).run_key == k2  # newest
    assert load_run(store, "one").run_key == k1  # by label
    assert load_run(store, k1).run_key == k1  # by key
    with pytest.raises(LookupError, match="no telemetry run"):
        load_run(store, "nonesuch")
    store.close()


def _span_worker(context, index):
    hub = telemetry.get()
    with hub.span("task", category="t"):
        hub.counter("tasks").inc()
    return index


@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_flush_matches_serial(tmp_path, jobs):
    """Serial and ``--jobs 2`` persist identical deterministic columns."""
    store = MeasurementStore(tmp_path / "t.db")
    hub = Telemetry()
    with telemetry.use(hub):
        fanout(_span_worker, None, 4, jobs=jobs)
    key = flush_run(store, hub, label=f"jobs{jobs}")
    snap = load_run(store, key)
    # The runner wraps each task in its own span; both aggregate
    # identically across jobs settings.
    assert sorted((s["name"], s["count"]) for s in snap.spans) == [
        ("runner.task", 4),
        ("task", 4),
    ]
    assert {m["name"]: m["value"] for m in snap.metrics} == {"tasks": 4.0}
    store.close()


# -- one renderer --------------------------------------------------------------


def _span(name, p50, p90, self_s=1.0):
    return {
        "name": name, "count": 10, "total_s": self_s, "self_s": self_s,
        "self_p50_s": p50, "self_p90_s": p90,
    }


def test_summary_and_report_print_the_same_rows(tmp_path):
    """A live hub and its flushed run print through one renderer."""
    hub = _busy_hub()
    store_path = str(tmp_path / "t.db")
    flush_run(store_path, hub)
    rc, text = _cli(["telemetry", "report", store_path])
    assert rc == 0
    live = telemetry.summarize(hub).splitlines()
    stored = text.splitlines()
    # Two header lines each: the summary's title, the run's provenance.
    assert live[:2] == ["telemetry summary", "-----------------"]
    assert stored[0].startswith("telemetry run ")
    assert stored[1].startswith("  recorded ")
    assert live[2:] == stored[2:]
    # The shared rows: spans, a counter by value, a histogram by count
    # and mean.
    body = "\n".join(live[2:])
    for name in ("outer", "inner", "widgets", "lat"):
        assert name in body
    assert "count=2 mean=0.2750" in body


def test_newer_schema_run_is_inconclusive_not_fatal(tmp_path):
    store = MeasurementStore(tmp_path / "t.db")
    run = run_provenance(label="future")
    run["schema_version"] = TELEMETRY_SCHEMA_VERSION + 1
    store.record_telemetry_run(run, [_span("fit", 0.01, 0.02)], [])
    snap = load_run(store, run["run_key"])
    assert snap.skipped_reason and snap.spans == ()
    assert "SKIPPED" in render_run(snap)
    store.close()


# -- progress sinks ------------------------------------------------------------


def test_jsonl_progress_emits_parseable_heartbeats():
    buf = io.StringIO()
    sink = progress.JsonlProgress(stream=buf, min_interval=0.0)
    sink.driver_cycle(algorithm="CEAL", workflow="LV", iteration=2,
                      runs_used=4, budget=8, best_value=1.5, fit_seconds=0.25)
    sink.suite_cell(suite="s", done=1, total=2, cached=0)
    sink.close()
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines[0]["type"] == "meta"
    assert lines[0]["schema"] == "repro-progress"
    assert lines[1]["type"] == "driver" and lines[1]["runs_used"] == 4
    assert lines[2]["type"] == "suite" and lines[2]["done"] == 1


def test_progress_throttle_and_close_flush():
    buf = io.StringIO()
    sink = progress.JsonlProgress(stream=buf, min_interval=3600.0)
    sink.suite_cell(suite="s", done=0, total=10)  # first: renders
    sink.suite_cell(suite="s", done=1, total=10)  # throttled
    sink.suite_cell(suite="s", done=2, total=10)  # throttled
    payloads = [json.loads(x) for x in buf.getvalue().splitlines()]
    assert [p["done"] for p in payloads if p["type"] == "suite"] == [0]
    sink.close()  # flushes the freshest throttled event, once
    payloads = [json.loads(x) for x in buf.getvalue().splitlines()]
    assert [p["done"] for p in payloads if p["type"] == "suite"] == [0, 2]
    sink.close()  # idempotent: nothing left to flush
    assert len(buf.getvalue().splitlines()) == len(payloads)


def test_progress_terminal_event_bypasses_throttle():
    buf = io.StringIO()
    sink = progress.JsonlProgress(stream=buf, min_interval=3600.0)
    sink.suite_cell(suite="s", done=9, total=10)
    sink.suite_cell(suite="s", done=10, total=10)  # final: bypasses
    dones = [
        json.loads(x)["done"]
        for x in buf.getvalue().splitlines()
        if json.loads(x)["type"] == "suite"
    ]
    assert dones == [9, 10]


def test_suite_eta_estimate(monkeypatch):
    buf = io.StringIO()
    sink = progress.JsonlProgress(stream=buf, min_interval=0.0)
    clock = iter([0.0, 0.0, 10.0, 10.0])
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    sink.suite_cell(suite="s", done=2, total=6, cached=2)  # baseline: 2 cached
    sink.suite_cell(suite="s", done=4, total=6, cached=2)  # 2 executed in 10s
    events = [json.loads(x) for x in buf.getvalue().splitlines()]
    # 5 s/cell over the executed cells, 2 remaining -> 10 s.
    assert events[-1]["eta_seconds"] == pytest.approx(10.0)


def test_ascii_progress_renders_meter_and_finishes_line():
    buf = io.StringIO()
    sink = progress.AsciiProgress(stream=buf, min_interval=0.0, width=8)
    sink.suite_cell(suite="s", done=2, total=4, cached=1)
    sink.driver_cycle(algorithm="RS", workflow="LV", iteration=1,
                      runs_used=2, budget=4, best_value=3.0, fit_seconds=0.1)
    sink.close()
    text = buf.getvalue()
    assert "2/4 cells" in text
    assert "[" in text and "]" in text
    assert text.endswith("\n")


def test_null_progress_is_inert():
    sink = progress.NULL_PROGRESS
    assert not sink.enabled
    sink.driver_cycle(algorithm="x")
    sink.suite_cell(done=1)
    sink.close()


def test_make_sink_picks_jsonl_for_pipes():
    assert isinstance(progress.make_sink(io.StringIO()), progress.JsonlProgress)

    class Tty(io.StringIO):
        def isatty(self):
            return True

    assert isinstance(progress.make_sink(Tty()), progress.AsciiProgress)


# -- JSONL trace reader hardening ---------------------------------------------


def test_load_jsonl_roundtrip_and_corruption(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    hub = Telemetry(sinks=[sink])
    with hub.span("work", category="t"):
        pass
    hub.close()
    with open(path, "a") as fh:
        fh.write("{corrupt\n")
    data = load_jsonl(path)
    assert data["meta"]["schema"] == "repro-telemetry"
    assert [s["name"] for s in data["spans"]] == ["work"]
    assert data["ignored"] == 1
    assert data["notes"] == []


def test_load_jsonl_skips_unknown_schema_version(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(
        '{"type":"meta","schema":"repro-telemetry","version":99}\n'
        '{"type":"span","name":"x"}\n'
    )
    data = load_jsonl(path)
    assert data["spans"] == []
    assert data["ignored"] == 1
    assert any("99" in note for note in data["notes"])


def test_load_jsonl_missing_meta_noted(tmp_path):
    path = tmp_path / "headless.jsonl"
    path.write_text('{"type":"span","name":"x","cat":"t"}\n')
    data = load_jsonl(path)
    assert data["meta"] is None
    assert any("no meta" in note for note in data["notes"])
    assert [s["name"] for s in data["spans"]] == ["x"]


# -- summarize hardening -------------------------------------------------------


def test_summarize_empty_and_disabled_hubs():
    assert "no spans" in telemetry.summarize(Telemetry())
    assert "disabled" in telemetry.summarize(NullTelemetry())


def test_summarize_zero_sample_histogram():
    hub = Telemetry()
    hub.histogram("empty", buckets=(0.1,))  # registered, never observed
    text = telemetry.summarize(hub)
    assert "empty" in text  # reported, not raised


# -- viz helpers ---------------------------------------------------------------


def test_render_meter_bounds():
    from repro.experiments.viz import render_meter

    assert render_meter(0, 4, 4) == "[░░░░]"
    assert render_meter(4, 4, 4) == "[████]"
    assert render_meter(9, 4, 4) == "[████]"  # clamps overshoot
    assert render_meter(1, 0, 4) == "[░░░░]"  # indeterminate
    assert render_meter(1, None, 4) == "[░░░░]"


def test_render_report_ci_bars():
    from repro.experiments.viz import render_report

    report = {
        "suite": "demo", "cells": 8, "confidence": 0.95,
        "groups": [{
            "workflow": "LV", "objective": "execution_time", "budget": 8,
            "repeats": 4, "pool_seed": 7,
            "algorithms": {
                "RS": {"n": 4, "normalized": {
                    "mean": 1.4, "lo": 1.2, "hi": 1.6, "n": 4}},
                "CEAL": {"n": 4, "normalized": {
                    "mean": 1.1, "lo": 1.05, "hi": 1.15, "n": 4}},
            },
            "comparisons": [{
                "a": "RS", "b": "CEAL", "metric": "normalized",
                "permutation": {"p": 0.01},
            }],
        }],
    }
    text = render_report(report)
    assert "RS" in text and "CEAL" in text
    assert "1.4000 [1.2000, 1.6000]" in text
    assert "significant" in text and "p=0.01" in text
    assert render_report({"groups": []}) == "(empty report)"


# -- CLI -----------------------------------------------------------------------


def _cli(argv):
    from repro.cli import main

    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


def test_cli_telemetry_diff_exit_codes(tmp_path):
    store_path = str(tmp_path / "t.db")
    store = MeasurementStore(store_path)
    store.record_telemetry_run(
        run_provenance(label="base"), [_span("fit", 0.010, 0.020)], []
    )
    store.close()
    rc, _ = _cli(["telemetry", "report", str(tmp_path / "absent.db")])
    assert rc == 2
    rc, text = _cli(["telemetry", "report", store_path])
    assert rc == 0 and "fit" in text


def _span_names(lines):
    """The span column of a rendered span table."""
    start = next(i for i, line in enumerate(lines) if line.startswith("span "))
    names = []
    for line in lines[start + 1:]:
        if not line or line.startswith("..."):
            break
        names.append(line.split()[0])
    return names


def test_cli_summary_and_stored_run_leave_out_their_persistence(tmp_path, capsys):
    """``-v`` and ``telemetry report`` list the same spans, and neither
    lists the store open or write that persisted the run."""
    store_path = str(tmp_path / "t.db")
    rc, _ = _cli(["tune", "--workflow", "LV", "--budget", "10",
                  "--pool-size", "150", "--algorithm", "ceal", "--seed", "7",
                  "-v", "--telemetry-store", store_path])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    live = _span_names([line.removeprefix("repro: ") for line in err])
    rc, text = _cli(["telemetry", "report", store_path])
    assert rc == 0
    assert live == _span_names(text.splitlines())
    assert "driver.run" in live
    assert not {"store.open", "store.write"} & set(live)


def test_cli_telemetry_store_flag_persists_run(tmp_path):
    store_path = str(tmp_path / "t.db")
    rc, _ = _cli(["reproduce", "--target", "table1",
                  "--telemetry-store", store_path,
                  "--telemetry-label", "t1"])
    assert rc == 0
    store = MeasurementStore(store_path)
    runs = store.telemetry_runs()
    assert [r["label"] for r in runs] == ["t1"]
    assert runs[0]["session"] == "reproduce"
    store.close()
