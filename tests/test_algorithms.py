"""Tests for the tuning algorithms (RS, AL, GEIST, ALpH) and shared helpers."""

import numpy as np
import pytest

from repro.core.algorithms import (
    ActiveLearning,
    Alph,
    Geist,
    RandomSampling,
    split_batches,
)
from repro.core.algorithms.base import CandidateTracker
from repro.core.autotuner import ALGORITHMS, make_algorithm
from repro.core.objectives import EXECUTION_TIME
from repro.core.problem import TuningProblem

BUDGET = 16


@pytest.fixture()
def problem(lv, lv_pool, lv_histories):
    return TuningProblem.create(
        workflow=lv,
        objective=EXECUTION_TIME,
        pool=lv_pool,
        budget_runs=BUDGET,
        seed=3,
        histories=lv_histories,
    )


class TestSplitBatches:
    def test_even_split(self):
        assert split_batches(10, 5) == [2, 2, 2, 2, 2]

    def test_remainder_goes_first(self):
        assert split_batches(11, 4) == [3, 3, 3, 2]

    def test_total_below_iterations(self):
        assert split_batches(3, 5) == [1, 1, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_batches(0, 3)
        with pytest.raises(ValueError):
            split_batches(5, 0)


class TestCandidateTracker:
    def test_marking_removes(self):
        tracker = CandidateTracker([(1,), (2,), (3,)])
        tracker.mark([(2,)])
        assert list(tracker.remaining) == [(1,), (3,)]

    def test_take_top_minimizes(self):
        tracker = CandidateTracker([(1,), (2,), (3,)])
        top = tracker.take_top(np.array([5.0, 1.0, 3.0]), [(1,), (2,), (3,)], 2)
        assert top == [(2,), (3,)]

    def test_take_top_misaligned(self):
        tracker = CandidateTracker([(1,)])
        with pytest.raises(ValueError):
            tracker.take_top(np.array([1.0, 2.0]), [(1,)], 1)


def _check_result(result, problem, algo_name):
    assert result.algorithm == algo_name
    assert result.runs_used == BUDGET
    assert len(result.measured) <= BUDGET
    # Every measured configuration came from the pool and has its true value.
    for config, value in result.measured.items():
        assert value == problem.pool.lookup(config).execution_seconds
    scores = result.predict_pool(problem.pool)
    assert scores.shape == (len(problem.pool),)
    best = result.best_config(problem.pool)
    assert best in problem.pool.configs
    assert result.best_actual_value(problem.pool) == problem.pool.lookup(
        best
    ).objective("execution_time")


class TestRandomSampling:
    def test_budget_and_result(self, problem):
        result = RandomSampling().tune(problem)
        _check_result(result, problem, "RS")
        assert len(result.measured) == BUDGET

    def test_deterministic_given_seed(self, lv, lv_pool, lv_histories):
        def run():
            p = TuningProblem.create(
                lv, EXECUTION_TIME, lv_pool, BUDGET, seed=9,
                histories=lv_histories,
            )
            return RandomSampling().tune(p)

        a, b = run(), run()
        assert list(a.measured) == list(b.measured)
        np.testing.assert_array_equal(
            a.predict_pool(lv_pool), b.predict_pool(lv_pool)
        )


class TestActiveLearning:
    def test_budget_and_result(self, problem):
        result = ActiveLearning(iterations=3).tune(problem)
        _check_result(result, problem, "AL")
        assert len(result.measured) == BUDGET
        guided = [e for e in result.trace if e.kind == "iteration"]
        assert len(guided) == 3

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            ActiveLearning(initial_fraction=0.0)
        with pytest.raises(ValueError):
            ActiveLearning(iterations=0)

    def test_beats_random_on_average(self, lv, lv_pool, lv_histories):
        """AL's guided sampling finds better configs than RS (statistical)."""
        gaps = {"AL": [], "RS": []}
        best = lv_pool.best_value("execution_time")
        for rep in range(6):
            for name, algo in (("AL", ActiveLearning()), ("RS", RandomSampling())):
                p = TuningProblem.create(
                    lv, EXECUTION_TIME, lv_pool, 20, seed=100 + rep,
                    histories=lv_histories,
                )
                result = algo.tune(p)
                gaps[name].append(result.best_actual_value(lv_pool) / best)
        assert np.mean(gaps["AL"]) <= np.mean(gaps["RS"]) + 0.02


class TestGeist:
    def test_budget_and_result(self, problem):
        result = Geist(iterations=3).tune(problem)
        _check_result(result, problem, "GEIST")
        assert len(result.measured) == BUDGET

    def test_exploration_share_in_trace(self, problem):
        result = Geist(iterations=2, explore_fraction=0.5).tune(problem)
        assert any(e.detail.get("explore", 0) > 0 for e in result.trace)


class TestAlph:
    def test_with_history_uses_full_budget_on_workflow(self, problem):
        result = Alph(use_history=True, iterations=3).tune(problem)
        _check_result(result, problem, "ALpH")
        assert len(result.measured) == BUDGET  # no component charge

    def test_without_history_pays_component_runs(self, lv, lv_pool, lv_histories):
        p = TuningProblem.create(
            lv, EXECUTION_TIME, lv_pool, BUDGET, seed=3, histories=lv_histories
        )
        result = Alph(use_history=False, component_runs_fraction=0.5,
                      iterations=2).tune(p)
        assert result.runs_used == BUDGET
        assert len(result.measured) == BUDGET - 8  # 8 batches paid

    def test_component_features_feed_model(self, problem):
        result = Alph(use_history=True, iterations=2).tune(problem)
        # The surrogate's feature function exists and produces 2 extra cols.
        extra = result.model.extra_features(list(problem.pool.configs[:4]))
        assert extra.shape == (2, 4) or extra.shape == (4, 2)


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_one_instance_tunes_many_problems(name, lv, lv_pool, lv_histories):
    """Per-session state lives on each session's copy of the algorithm,
    so a reused instance matches a fresh instance per problem."""

    def problems():
        return [
            TuningProblem.create(
                lv, EXECUTION_TIME, lv_pool, budget, seed=seed,
                histories=lv_histories,
            )
            for budget, seed in ((BUDGET, 3), (12, 4))
        ]

    def outcome(result):
        return (
            result.algorithm,
            list(result.measured.items()),
            result.runs_used,
            result.cost_computer_core_hours,
            [e.as_dict(include_timing=False) for e in result.trace],
        )

    shared = make_algorithm(name)
    reused = [outcome(shared.tune(p)) for p in problems()]
    fresh = [outcome(make_algorithm(name).tune(p)) for p in problems()]
    assert reused == fresh
