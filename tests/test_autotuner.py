"""Tests for the user-facing AutoTuner facade and TuningProblem."""

import pytest

from conftest import comparable
from repro import telemetry
from repro.core.algorithms import RandomSampling
from repro.core.autotuner import AutoTuner, make_algorithm
from repro.core.driver import load_checkpoint
from repro.core.objectives import EXECUTION_TIME
from repro.core.problem import TuningProblem
from repro.telemetry import Telemetry


class TestTuningProblem:
    def test_create_validates_budget(self, lv, lv_pool):
        with pytest.raises(ValueError):
            TuningProblem.create(lv, EXECUTION_TIME, lv_pool, budget_runs=1)

    def test_sample_unmeasured_distinct(self, lv, lv_pool, lv_histories):
        problem = TuningProblem.create(
            lv, EXECUTION_TIME, lv_pool, 10, histories=lv_histories
        )
        batch = problem.sample_unmeasured(list(lv_pool.configs), 8)
        assert len(set(batch)) == 8

    def test_sample_too_many_rejected(self, lv, lv_pool):
        problem = TuningProblem.create(lv, EXECUTION_TIME, lv_pool, 10)
        with pytest.raises(ValueError):
            problem.sample_unmeasured(list(lv_pool.configs[:3]), 5)

    def test_surrogates_seeded(self, lv, lv_pool):
        problem = TuningProblem.create(lv, EXECUTION_TIME, lv_pool, 10, seed=4)
        s1 = problem.make_surrogate()
        s2 = problem.make_surrogate()
        assert s1.regressor.random_state == s2.regressor.random_state
        s3 = problem.make_surrogate(salt=1)
        assert s3.regressor.random_state != s1.regressor.random_state


class TestAutoTuner:
    def test_default_algorithm_is_ceal(self, lv):
        tuner = AutoTuner(lv, "execution_time", budget=10)
        from repro.core.ceal import Ceal

        assert isinstance(tuner.algorithm, Ceal)

    def test_objective_string_resolved(self, lv):
        tuner = AutoTuner(lv, "computer_time", budget=10)
        assert tuner.objective.name == "computer_time"

    def test_tune_outcome_fields(self, lv, lv_pool):
        outcome = AutoTuner(
            lv,
            "execution_time",
            budget=12,
            algorithm=RandomSampling(),
            pool=lv_pool,
            seed=7,
        ).tune()
        assert outcome.runs_used == 12
        assert outcome.best_config in lv_pool.configs
        assert outcome.best_value >= outcome.pool_best_value
        assert outcome.gap_to_pool_best >= 1.0
        assert outcome.cost > 0
        recall = outcome.recall(5)
        assert recall.shape == (5,)

    def test_unknown_objective_rejected(self, lv):
        with pytest.raises(ValueError):
            AutoTuner(lv, "energy", budget=10)


class TestHistoriesOnFirstRead:
    RECIPE = dict(objective="computer_time", pool_size=60, history_size=30)

    @staticmethod
    def history_calls(tuner: AutoTuner) -> int:
        """Calls of ``generate_component_history`` while ``tuner`` tunes
        (each is one lookup in its memo)."""
        hub = Telemetry()
        with telemetry.use(hub):
            tuner.tune()
        counters = {m["name"]: m.get("value") for m in hub.metrics_snapshot()}
        return counters.get("history.memo.hits", 0) + counters.get(
            "history.memo.misses", 0
        )

    @pytest.mark.parametrize("algorithm", ["rs", "al"])
    def test_sessions_that_never_read_histories_never_generate_them(
        self, lv, algorithm
    ):
        tuner = AutoTuner(
            lv, budget=8, algorithm=make_algorithm(algorithm), seed=11, **self.RECIPE
        )
        assert self.history_calls(tuner) == 0
        # CEAL's paid component batches read both.
        assert self.history_calls(AutoTuner(lv, budget=8, seed=11, **self.RECIPE)) == 2

    def test_ceal_with_history_checkpoint_round_trips(self, lv, tmp_path):
        path = tmp_path / "ceal.ckpt"
        tuner = dict(workflow=lv, budget=10, use_history=True, seed=12, **self.RECIPE)
        straight = AutoTuner(**tuner).tune()
        AutoTuner(**tuner, checkpoint_path=str(path)).tune()
        data = load_checkpoint(path)["strategy"]["component_data"]
        assert type(data) is dict and sorted(data) == ["lammps", "voro"]
        resumed = AutoTuner(**tuner, checkpoint_path=str(path), resume=True).tune()
        assert comparable(resumed.result) == comparable(straight.result)
        assert resumed.best_config == straight.best_config
