"""Tests for the tuning driver: events, tracker, sessions, checkpoints."""

import math
import pickle

import numpy as np
import pytest

from repro.core.ceal import Ceal, CealSettings
from repro.core.collector import Collector
from repro.core.driver import (
    CandidateTracker,
    CheckpointError,
    ModelSwitchState,
    SearchStrategy,
    TuningDriver,
    TuningEvent,
    TuningSession,
    checkpoint_payload,
    clip_to_budget,
    load_checkpoint,
    save_checkpoint_payload,
)
from repro.core.objectives import EXECUTION_TIME
from repro.core.problem import TuningProblem


def make_problem(lv, lv_pool, lv_histories, budget=12, seed=3, **kwargs):
    return TuningProblem.create(
        workflow=lv,
        objective=EXECUTION_TIME,
        pool=lv_pool,
        budget_runs=budget,
        seed=seed,
        histories=lv_histories,
        **kwargs,
    )


class TestTuningEvent:
    def make_event(self, **overrides):
        base = dict(
            kind="iteration",
            iteration=2,
            batch=((1, 2), (3, 4)),
            results=(((1, 2), 5.0),),
            failures=1,
            fit_seconds=0.25,
            runs_used=4,
            samples=3,
            detail={"explore": 1},
            model_switch=ModelSwitchState(
                model="low", s_high=1.0, s_low=2.0, switched=False, injected=0
            ),
        )
        base.update(overrides)
        return TuningEvent(**base)

    def test_as_dict_roundtrips_fields(self):
        event = self.make_event()
        out = event.as_dict()
        assert out["kind"] == "iteration"
        assert out["failures"] == 1
        assert out["fit_seconds"] == 0.25
        assert out["model_switch"]["model"] == "low"

    def test_as_dict_can_exclude_timing(self):
        event = self.make_event()
        out = event.as_dict(include_timing=False)
        assert "fit_seconds" not in out
        # Two runs differing only in wall-clock compare equal.
        other = self.make_event(fit_seconds=99.0)
        assert out == other.as_dict(include_timing=False)

    def test_events_pickle(self):
        event = self.make_event()
        assert pickle.loads(pickle.dumps(event)) == event


class TestCandidateTrackerIncremental:
    def test_remaining_is_cached_between_marks(self):
        tracker = CandidateTracker([(i,) for i in range(5)])
        first = tracker.remaining
        assert tracker.remaining is first  # no rebuild without marks
        tracker.mark([(2,)])
        second = tracker.remaining
        assert list(second) == [(0,), (1,), (3,), (4,)]
        assert tracker.remaining is second

    def test_previous_snapshot_not_mutated(self):
        tracker = CandidateTracker([(i,) for i in range(4)])
        snapshot = tracker.remaining
        tracker.mark([(0,), (3,)])
        assert list(snapshot) == [(0,), (1,), (2,), (3,)]
        assert list(tracker.remaining) == [(1,), (2,)]

    def test_mark_same_config_twice(self):
        tracker = CandidateTracker([(1,), (2,)])
        tracker.mark([(1,)])
        tracker.mark([(1,)])
        assert list(tracker.remaining) == [(2,)]

    def test_state_roundtrip_preserves_order(self):
        tracker = CandidateTracker([(i,) for i in range(6)])
        tracker.mark([(1,), (4,)])
        state = tracker.state_dict()
        restored = CandidateTracker([])
        restored.restore_state(state)
        assert list(restored.remaining) == list(tracker.remaining)
        restored.mark([(0,)])
        assert list(restored.remaining) == [(2,), (3,), (5,)]


class TestCollectorBudget:
    def test_unlimited_budget_is_inf(self, lv, lv_pool):
        collector = Collector(
            pool=lv_pool, objective=EXECUTION_TIME, budget_runs=None
        )
        assert collector.runs_remaining == math.inf
        collector.measure_batch([lv_pool.configs[0]])
        assert collector.runs_remaining == math.inf
        assert collector.runs_used == 1

    def test_finite_budget_counts_down(self, lv, lv_pool):
        collector = Collector(
            pool=lv_pool, objective=EXECUTION_TIME, budget_runs=3
        )
        assert collector.runs_remaining == 3
        collector.measure_batch(list(lv_pool.configs[:2]))
        assert collector.runs_remaining == 1

    def test_clip_to_budget_handles_inf(self, lv, lv_pool):
        collector = Collector(
            pool=lv_pool, objective=EXECUTION_TIME, budget_runs=None
        )
        batch = list(lv_pool.configs[:5])
        assert clip_to_budget(batch, collector) == batch

    def test_collector_state_roundtrip(self, lv, lv_pool):
        collector = Collector(
            pool=lv_pool, objective=EXECUTION_TIME, budget_runs=5,
            failure_rate=0.5, failure_seed=1,
        )
        collector.measure_batch(list(lv_pool.configs[:3]))
        state = collector.state_dict()
        other = Collector(
            pool=lv_pool, objective=EXECUTION_TIME, budget_runs=5,
            failure_rate=0.5, failure_seed=1,
        )
        other.restore_state(state)
        assert list(other.measured) == list(collector.measured)
        assert other.runs_used == collector.runs_used
        # The fault-injection stream continues identically.
        a = collector.measure_batch(list(lv_pool.configs[3:5]))
        b = other.measure_batch(list(lv_pool.configs[3:5]))
        assert a == b


class _TwoBatchStrategy(SearchStrategy):
    """Measures two fixed batches, then stops."""

    name = "two-batch"

    def __init__(self):
        self.cycle = 0
        self.told = []

    def ask(self, session):
        if self.cycle >= 2:
            return []
        self.cycle += 1
        batch = session.tracker.remaining[:3]
        session.tracker.mark(batch)
        return batch

    def tell(self, session, batch, results):
        self.told.append((list(batch), dict(results)))

    def finalize(self, session):
        class _Flat:
            def predict(self, configs):
                return np.zeros(len(configs))

        return _Flat()

    def state_dict(self):
        return {"cycle": self.cycle}

    def load_state(self, state, session):
        self.cycle = state["cycle"]


class TestDriverLoop:
    def test_batches_clipped_to_budget(self, lv, lv_pool, lv_histories):
        problem = make_problem(lv, lv_pool, lv_histories, budget=4)
        result = TuningDriver().run(_TwoBatchStrategy(), problem)
        # 3 + 3 proposed, but only 4 runs available: 3 then 1.
        assert result.runs_used == 4
        batches = [e.batch for e in result.trace if e.kind == "iteration"]
        assert [len(b) for b in batches] == [3, 1]

    def test_failures_counted_in_events(self, lv, lv_pool, lv_histories):
        problem = make_problem(
            lv, lv_pool, lv_histories, budget=12, failure_rate=0.5
        )
        strategy = _TwoBatchStrategy()
        result = TuningDriver().run(strategy, problem)
        events = [e for e in result.trace if e.kind == "iteration"]
        assert sum(e.failures for e in events) == (
            result.runs_used - len(result.measured)
        )
        for event, (batch, results) in zip(events, strategy.told):
            assert event.failures == len(batch) - len(results)

    def test_max_cycles_pauses_without_result(self, lv, lv_pool, lv_histories, tmp_path):
        problem = make_problem(lv, lv_pool, lv_histories, budget=12)
        driver = TuningDriver(checkpoint_path=tmp_path / "ck.pkl")
        out = driver.run(_TwoBatchStrategy(), problem, max_cycles=1)
        assert out is None
        payload = load_checkpoint(tmp_path / "ck.pkl")
        assert payload["completed"] is False
        assert payload["iteration"] == 1


class TestCheckpointFiles:
    def test_save_is_atomic(self, lv, lv_pool, lv_histories, tmp_path):
        problem = make_problem(lv, lv_pool, lv_histories)
        session = TuningSession.start(problem)
        strategy = _TwoBatchStrategy()
        path = tmp_path / "session.pkl"
        save_checkpoint_payload(path, checkpoint_payload(session, strategy))
        assert path.exists()
        assert not (tmp_path / "session.pkl.tmp").exists()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_bytes(pickle.dumps(["not", "a", "dict"]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.pkl")

    def test_load_rejects_future_version(self, lv, lv_pool, lv_histories, tmp_path):
        problem = make_problem(lv, lv_pool, lv_histories)
        session = TuningSession.start(problem)
        path = tmp_path / "session.pkl"
        payload = checkpoint_payload(session, _TwoBatchStrategy())
        save_checkpoint_payload(path, {**payload, "version": 999})
        with pytest.raises(CheckpointError, match="version 999"):
            load_checkpoint(path)

    def test_resume_validates_session_identity(
        self, lv, lv_pool, lv_histories, tmp_path
    ):
        path = tmp_path / "ck.pkl"
        problem = make_problem(lv, lv_pool, lv_histories, budget=12, seed=3)
        driver = TuningDriver(checkpoint_path=path)
        assert driver.run(_TwoBatchStrategy(), problem, max_cycles=1) is None
        # Same algorithm, different seed -> refused.
        other = make_problem(lv, lv_pool, lv_histories, budget=12, seed=4)
        with pytest.raises(CheckpointError, match="seed"):
            driver.run(_TwoBatchStrategy(), other, resume=True)
        # Different algorithm -> refused.
        fresh = make_problem(lv, lv_pool, lv_histories, budget=12, seed=3)
        with pytest.raises(CheckpointError, match="algorithm"):
            Ceal(CealSettings(use_history=True)).tune(
                fresh, checkpoint_path=path, resume=True
            )

    def test_resume_without_path_rejected(self, lv, lv_pool, lv_histories):
        problem = make_problem(lv, lv_pool, lv_histories)
        with pytest.raises(ValueError):
            TuningDriver().run(_TwoBatchStrategy(), problem, resume=True)
