"""Telemetry subsystem: hub, exporters, worker merge, CLI surface.

The acceptance bar for the observability layer:

* the Chrome exporter emits valid, properly nested traces that its own
  checker (and therefore Perfetto) accepts,
* the JSONL sink round-trips through ``json.loads`` line by line,
* worker telemetry merged from a parallel fan-out is deterministic
  across ``--jobs`` settings in every non-timing field, and
* tuning results are bit-identical with telemetry on and off.
"""

import io
import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.core.algorithms import RandomSampling
from repro.core.autotuner import AutoTuner
from repro.experiments.presets import AlgorithmFactor
from repro.experiments.runner import (
    SUMMARY_PERCENTILES,
    run_trials,
    summarize,
)
from repro.insitu.coupled import run_coupled
from repro.insitu.tracing import RunTracer
from repro.telemetry import (
    SCHEMA_VERSION,
    JsonlSink,
    Telemetry,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

SPECS = (AlgorithmFactor.make("RS", "rs"),)


def make_hub_with_nested_spans() -> Telemetry:
    hub = Telemetry()
    with hub.span("outer", category="test", depth=0):
        with hub.span("inner", category="test", depth=1):
            with hub.span("leaf", category="test", depth=2):
                pass
        with hub.span("sibling", category="test"):
            pass
    hub.counter("things").inc(3)
    hub.gauge("peak").set_max(7)
    hub.histogram("lat").observe(0.002)
    return hub


class TestHub:
    def test_default_hub_is_disabled_null(self):
        hub = telemetry.get()
        assert not hub.enabled
        assert not telemetry.enabled()
        # Every operation is a no-op and must not raise.
        with hub.span("nothing") as span:
            span.set(key="value")
        hub.counter("c").inc()
        hub.gauge("g").set_max(1)
        hub.histogram("h").observe(0.5)
        assert hub.snapshot() is None

    def test_use_installs_and_restores(self):
        before = telemetry.get()
        hub = Telemetry()
        with telemetry.use(hub):
            assert telemetry.get() is hub
            assert telemetry.enabled()
        assert telemetry.get() is before

    def test_spans_nest_by_call_stack(self):
        hub = make_hub_with_nested_spans()
        by_name = {record.name: record for record in hub.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["leaf"].parent_id == by_name["inner"].span_id
        assert by_name["sibling"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        for record in hub.spans:
            assert record.end >= record.start

    def test_metric_kind_conflict_rejected(self):
        hub = Telemetry()
        hub.counter("runs")
        with pytest.raises(ValueError, match="Counter"):
            hub.gauge("runs")

    def test_merge_worker_remaps_ids_and_adds_metrics(self):
        parent = Telemetry()
        with parent.span("parent.work"):
            pass
        worker = make_hub_with_nested_spans()
        parent.merge_worker(worker.snapshot(), worker=3)
        names = [record.name for record in parent.spans]
        assert names == ["parent.work", "leaf", "inner", "sibling", "outer"]
        by_name = {record.name: record for record in parent.spans}
        assert by_name["leaf"].parent_id == by_name["inner"].span_id
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["parent.work"].worker is None
        assert by_name["outer"].worker == 3
        ids = [record.span_id for record in parent.spans]
        assert len(set(ids)) == len(ids)
        metrics = {m["name"]: m for m in parent.metrics_snapshot()}
        assert metrics["things"]["value"] == 3
        assert metrics["peak"]["value"] == 7
        assert metrics["lat"]["count"] == 1

    def test_merge_rejects_unknown_snapshot_version(self):
        parent = Telemetry()
        payload = make_hub_with_nested_spans().snapshot()
        payload["version"] = 999
        with pytest.raises(ValueError, match="version"):
            parent.merge_worker(payload, worker=0)

    def test_summarize_text_report(self):
        hub = make_hub_with_nested_spans()
        text = telemetry.summarize(hub)
        for name in ("outer", "inner", "leaf", "things", "lat"):
            assert name in text


class TestChromeExporter:
    def test_trace_is_valid_json_with_nonnegative_durations(self):
        hub = make_hub_with_nested_spans()
        trace = to_chrome_trace(hub)
        parsed = json.loads(json.dumps(trace))
        validate_chrome_trace(parsed)
        x_events = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in x_events} == {
            "outer", "inner", "leaf", "sibling",
        }
        for event in x_events:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        assert parsed["otherData"]["schema_version"] == SCHEMA_VERSION
        metric_names = {m["name"] for m in parsed["otherData"]["metrics"]}
        assert {"things", "peak", "lat"} <= metric_names

    def test_children_nest_inside_parents(self):
        hub = make_hub_with_nested_spans()
        events = {
            e["name"]: e
            for e in to_chrome_trace(hub)["traceEvents"]
            if e["ph"] == "X"
        }
        outer = events["outer"]
        for child in ("inner", "sibling"):
            assert events[child]["ts"] >= outer["ts"]
            child_end = events[child]["ts"] + events[child]["dur"]
            assert child_end <= outer["ts"] + outer["dur"]

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, make_hub_with_nested_spans())
        validate_chrome_trace(path.read_text(encoding="utf-8"))

    def test_validator_rejects_overlap_without_nesting(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 0, "tid": 0},
            {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 0, "tid": 0},
        ]
        with pytest.raises(ValueError, match="overlap"):
            validate_chrome_trace(events)
        # The same intervals on different tracks are fine.
        events[1]["tid"] = 1
        validate_chrome_trace(events)

    def test_validator_rejects_negative_duration(self):
        bad = [{"name": "a", "ph": "X", "ts": 0, "dur": -1, "pid": 0, "tid": 0}]
        with pytest.raises(ValueError, match="duration"):
            validate_chrome_trace(bad)

    def test_validator_rejects_unbalanced_begin_end(self):
        with pytest.raises(ValueError, match="no open 'B'"):
            validate_chrome_trace([{"name": "a", "ph": "E", "ts": 1}])
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace([{"name": "a", "ph": "B", "ts": 1}])

    def test_validator_rejects_unknown_phase_and_non_json(self):
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace([{"name": "a", "ph": "Z", "ts": 0}])
        with pytest.raises(ValueError, match="JSON"):
            validate_chrome_trace(
                [{"name": "a", "ph": "M", "args": {"x": object()}}]
            )


class TestJsonlSink:
    def test_every_line_parses_and_schema_is_versioned(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        hub = Telemetry(sinks=[JsonlSink(path)])
        with telemetry.use(hub):
            with hub.span("work", category="test", answer=42):
                hub.counter("runs").inc(2)
        hub.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[0]["version"] == SCHEMA_VERSION
        spans = [r for r in records if r["type"] == "span"]
        metrics = [r for r in records if r["type"] == "metric"]
        assert [s["name"] for s in spans] == ["work"]
        assert spans[0]["attrs"] == {"answer": 42}
        assert spans[0]["ts"] >= 0 and spans[0]["dur"] >= 0
        assert {m["name"] for m in metrics} == {"runs"}


class TestRunTracerBridge:
    def test_to_chrome_trace_validates(self, lv, rng):
        config = lv.space.sample(rng, 1, constraint=lv.constraint)[0]
        tracer = RunTracer()
        run_coupled(lv, config, tracer=tracer)
        trace = tracer.to_chrome_trace()
        validate_chrome_trace(trace)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"startup", "compute"} <= names

    def test_bridged_timeline_keeps_its_own_pid(self, lv, rng):
        config = lv.space.sample(rng, 1, constraint=lv.constraint)[0]
        tracer = RunTracer()
        run_coupled(lv, config, tracer=tracer)
        hub = Telemetry()
        with hub.span("measure"):
            pass
        hub.record_simulated(tracer.chrome_events())
        trace = validate_chrome_trace(to_chrome_trace(hub))
        pids = {
            e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert pids == {0, 1}


def span_structure(hub: Telemetry) -> list[tuple]:
    """Deterministic view of a hub's spans (no wall-clock fields)."""
    return [
        (r.name, r.worker, r.parent_id, tuple(sorted(r.attributes)))
        for r in hub.spans
    ]


def metric_structure(hub: Telemetry) -> dict:
    """Deterministic view of metrics (histogram totals are timing)."""
    out = {}
    for snap in hub.metrics_snapshot():
        if snap["kind"] == "histogram":
            out[snap["name"]] = snap["count"]
        else:
            out[snap["name"]] = snap["value"]
    return out


class TestParallelMerge:
    def run_captured(self, lv, jobs):
        hub = Telemetry()
        with telemetry.use(hub):
            trials = run_trials(
                lv, "computer_time", SPECS, budget=5, repeats=4,
                pool_size=150, pool_seed=7, history_size=120, jobs=jobs,
            )
        return hub, trials

    def test_merged_telemetry_deterministic_across_jobs(
        self, lv, lv_pool, lv_histories
    ):
        # lv_pool/lv_histories pre-warm the memoised pool so both runs
        # see identical cache behaviour (the first generate_pool call
        # would otherwise record the generation spans).
        serial_hub, serial_trials = self.run_captured(lv, jobs=1)
        parallel_hub, parallel_trials = self.run_captured(lv, jobs=2)
        assert span_structure(serial_hub) == span_structure(parallel_hub)
        assert metric_structure(serial_hub) == metric_structure(parallel_hub)
        for a, b in zip(serial_trials, parallel_trials):
            assert a.best_value == b.best_value
            assert a.seed == b.seed
        validate_chrome_trace(to_chrome_trace(parallel_hub))

    def test_worker_attribution_covers_all_tasks(self, lv, lv_pool):
        hub, _ = self.run_captured(lv, jobs=2)
        workers = {
            r.worker for r in hub.spans if r.name == "runner.task"
        }
        assert workers == {0, 1, 2, 3}

    def test_expected_spans_and_metrics_recorded(self, lv, lv_pool):
        hub, _ = self.run_captured(lv, jobs=1)
        names = {r.name for r in hub.spans}
        assert {"runner.task", "runner.trial", "driver.run",
                "driver.cycle", "collector.measure"} <= names
        metrics = metric_structure(hub)
        assert metrics["trials_run"] == 4
        assert metrics["runs_measured"] > 0


class TestBitIdentity:
    def test_results_identical_with_telemetry_on_and_off(self, lv, lv_pool):
        def tune_once():
            return AutoTuner(
                lv, objective="computer_time", budget=8,
                algorithm=RandomSampling(), pool_size=150, seed=7,
            ).tune()

        plain = tune_once()
        with telemetry.use(Telemetry()):
            traced = tune_once()
        assert traced.best_value == plain.best_value
        assert traced.pool_best_value == plain.pool_best_value
        assert traced.best_config == plain.best_config
        assert traced.cost == plain.cost


class TestSummarizePercentiles:
    def test_summary_reports_wall_clock_tails(self, lv, lv_pool):
        trials = run_trials(
            lv, "computer_time", SPECS, budget=5, repeats=3,
            pool_size=150, pool_seed=7, history_size=120,
        )
        row = summarize(trials)["RS"]
        for p in SUMMARY_PERCENTILES:
            assert f"wall_seconds_p{p}" in row
            assert f"fit_seconds_p{p}" in row
        assert row["wall_seconds_p50"] <= row["wall_seconds_p99"]
        assert row["wall_seconds_p99"] <= max(t.wall_seconds for t in trials)


class TestCliTelemetry:
    TUNE = [
        "tune", "--workflow", "LV", "--objective", "execution_time",
        "--budget", "6", "--pool-size", "150", "--algorithm", "rs",
        "--seed", "7",
    ]

    def test_chrome_trace_written_and_valid(self, tmp_path):
        path = tmp_path / "out.trace"
        out = io.StringIO()
        code = main(self.TUNE + ["--telemetry", str(path)], out=out)
        assert code == 0
        trace = validate_chrome_trace(path.read_text(encoding="utf-8"))
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"driver.run", "driver.cycle", "collector.measure"} <= names
        # stdout stays machine-readable: the report, nothing else.
        assert "recommended configuration" in out.getvalue()

    def test_jsonl_lines_parse(self, tmp_path):
        path = tmp_path / "out.jsonl"
        code = main(
            self.TUNE
            + ["--telemetry", str(path), "--telemetry-format", "jsonl"],
            out=io.StringIO(),
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert records[0]["type"] == "meta"
        assert any(r["type"] == "span" for r in records)
        assert any(r["type"] == "metric" for r in records)

    def test_no_flag_leaves_null_hub_installed(self):
        code = main(self.TUNE, out=io.StringIO())
        assert code == 0
        assert not telemetry.enabled()
