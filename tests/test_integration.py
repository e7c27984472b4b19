"""End-to-end integration tests across subsystems.

These exercise the full paper pipeline on small pools: simulate →
measure → tune → search → evaluate, plus the qualitative claims the
reproduction must preserve.
"""

import numpy as np
import pytest

from repro.core import AutoTuner, Ceal, CealSettings
from repro.core.algorithms import ActiveLearning, RandomSampling
from repro.core.component_models import ComponentModelSet
from repro.core.low_fidelity import LowFidelityModel
from repro.core.metrics import recall_score
from repro.core.objectives import COMPUTER_TIME, EXECUTION_TIME
from repro.core.problem import TuningProblem
from repro.insitu.coupled import run_coupled


class TestFidelityGap:
    """The premise of the paper: solo-based ACM is informative but biased."""

    def test_acm_underestimates_coupled_time(self, lv, lv_pool, lv_histories):
        models = ComponentModelSet.train(
            lv, EXECUTION_TIME, lv_histories, random_state=0
        )
        acm = LowFidelityModel(models)
        scores = acm.predict(list(lv_pool.configs))
        truth = lv_pool.objective_values("execution_time")
        # Optimistic on average: coupling overheads are invisible to it.
        assert np.mean(scores / truth) < 1.02
        # Yet informative: far above random recall.
        assert recall_score(scores, truth, 20) >= 20.0

    def test_coupled_run_slower_than_solo_components(self, lv):
        config = (64, 16, 1, 64, 16, 1)
        coupled = run_coupled(lv, config)
        solo_max = max(
            lv.solo_run(label, lv.component_config(label, config)).execution_seconds
            for label in lv.labels
        )
        # Coupled time exceeds the analytic max-of-solo bound.
        assert coupled.execution_seconds > 0.9 * solo_max


class TestEndToEndTuning:
    def test_ceal_beats_random_sampling(self, lv, lv_pool, lv_histories):
        """The headline claim, on a small pool with few repeats."""
        best = lv_pool.best_value("computer_time")
        gaps = {"CEAL": [], "RS": []}
        for rep in range(6):
            for name, algo in (
                ("CEAL", Ceal(CealSettings(use_history=True))),
                ("RS", RandomSampling()),
            ):
                problem = TuningProblem.create(
                    lv, COMPUTER_TIME, lv_pool, budget_runs=20,
                    seed=300 + rep, histories=lv_histories,
                )
                result = algo.tune(problem)
                gaps[name].append(result.best_actual_value(lv_pool) / best)
        assert np.mean(gaps["CEAL"]) < np.mean(gaps["RS"])

    def test_autotuner_facade_end_to_end(self, lv, lv_pool):
        outcome = AutoTuner(
            lv, "computer_time", budget=16, pool=lv_pool, seed=2,
            use_history=True,
        ).tune()
        assert outcome.runs_used == 16
        assert 1.0 <= outcome.gap_to_pool_best < 3.0

    def test_all_algorithms_respect_budget_on_all_workflows(
        self, lv, hs, gp, lv_pool, hs_pool, gp_pool
    ):
        from repro.workflows.pools import generate_component_history

        for workflow, pool in ((lv, lv_pool), (hs, hs_pool), (gp, gp_pool)):
            histories = {
                label: generate_component_history(workflow, label, size=60, seed=7)
                for label in workflow.labels
                if workflow.app(label).space.size() > 1
            }
            for algo in (
                RandomSampling(),
                ActiveLearning(iterations=2),
                Ceal(CealSettings(use_history=True, iterations=2)),
            ):
                problem = TuningProblem.create(
                    workflow, EXECUTION_TIME, pool, budget_runs=10,
                    seed=1, histories=histories,
                )
                result = algo.tune(problem)
                assert result.runs_used == 10, (workflow.name, algo.name)
                assert result.best_config(pool) in pool.configs


class TestCostAccounting:
    def test_cost_equals_sum_of_sample_times(self, lv, lv_pool, lv_histories):
        problem = TuningProblem.create(
            lv, EXECUTION_TIME, lv_pool, budget_runs=12, seed=4,
            histories=lv_histories,
        )
        result = RandomSampling().tune(problem)
        expected = sum(
            lv_pool.lookup(c).execution_seconds for c in result.measured
        )
        assert result.cost_execution_seconds == pytest.approx(expected)

    def test_ceal_component_phase_included_in_cost(
        self, lv, lv_pool, lv_histories
    ):
        problem = TuningProblem.create(
            lv, EXECUTION_TIME, lv_pool, budget_runs=12, seed=4,
            histories=lv_histories,
        )
        result = Ceal(CealSettings(use_history=False)).tune(problem)
        workflow_cost = sum(
            lv_pool.lookup(c).execution_seconds for c in result.measured
        )
        assert result.cost_execution_seconds > workflow_cost  # + solo runs
