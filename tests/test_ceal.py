"""Tests for the CEAL algorithm (Alg. 1)."""

import numpy as np
import pytest

from repro.core.ceal import Ceal, CealSettings
from repro.core.driver import TuningEvent
from repro.core.objectives import COMPUTER_TIME, EXECUTION_TIME
from repro.core.problem import TuningProblem


def make_problem(lv, lv_pool, lv_histories, budget=20, seed=3,
                 objective=EXECUTION_TIME):
    return TuningProblem.create(
        workflow=lv,
        objective=objective,
        pool=lv_pool,
        budget_runs=budget,
        seed=seed,
        histories=lv_histories,
    )


class TestSettings:
    def test_defaults_without_history(self):
        m_r, m_0, iters = CealSettings(use_history=False).resolve(100)
        assert m_r == 50
        assert m_0 == 10
        assert iters == 8

    def test_defaults_with_history(self):
        m_r, m_0, iters = CealSettings(use_history=True).resolve(100)
        assert m_r == 0
        assert m_0 == 15
        assert iters == 8

    def test_small_budget_clamps(self):
        m_r, m_0, iters = CealSettings(use_history=False).resolve(8)
        assert m_r + m_0 + iters <= 8 + iters  # at least 1 guided run/iter
        assert iters >= 1

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError):
            CealSettings().resolve(3)

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            CealSettings(component_runs_fraction=1.5).resolve(50)
        with pytest.raises(ValueError):
            CealSettings(random_fraction=0.0).resolve(50)


class TestTune:
    def test_budget_exactly_spent(self, lv, lv_pool, lv_histories):
        problem = make_problem(lv, lv_pool, lv_histories, budget=20)
        result = Ceal(CealSettings(use_history=False)).tune(problem)
        assert result.runs_used == 20

    def test_with_history_no_component_charge(self, lv, lv_pool, lv_histories):
        problem = make_problem(lv, lv_pool, lv_histories, budget=20)
        result = Ceal(CealSettings(use_history=True)).tune(problem)
        assert result.runs_used == 20
        assert len(result.measured) == 20  # all runs were workflow runs

    def test_without_history_pays_components(self, lv, lv_pool, lv_histories):
        problem = make_problem(lv, lv_pool, lv_histories, budget=20)
        result = Ceal(CealSettings(use_history=False)).tune(problem)
        # m_R = 10 batches -> only 10 workflow measurements
        assert len(result.measured) == 10

    def test_trace_metadata(self, lv, lv_pool, lv_histories):
        problem = make_problem(lv, lv_pool, lv_histories, budget=20)
        result = Ceal(CealSettings(use_history=True)).tune(problem)
        assert all(isinstance(e, TuningEvent) for e in result.trace)
        final = result.trace[-1]
        assert final.kind == "final"
        assert "switched" in final.detail
        cycles = [e for e in result.trace if e.kind in ("seed", "iteration")]
        assert cycles
        for event in cycles:
            assert event.iteration >= 1
            assert event.batch
            assert isinstance(event.fit_seconds, float)
            assert event.model_switch is not None
            assert event.model_switch.model in ("low", "high")

    def test_deterministic_given_seed(self, lv, lv_pool, lv_histories):
        def run():
            problem = make_problem(lv, lv_pool, lv_histories, budget=20, seed=5)
            return Ceal(CealSettings(use_history=True)).tune(problem)

        a, b = run(), run()
        assert list(a.measured) == list(b.measured)
        assert a.best_config(lv_pool) == b.best_config(lv_pool)

    def test_final_model_predicts_pool(self, lv, lv_pool, lv_histories):
        problem = make_problem(lv, lv_pool, lv_histories, budget=20)
        result = Ceal(CealSettings(use_history=True)).tune(problem)
        scores = result.predict_pool(lv_pool)
        assert scores.shape == (len(lv_pool),)
        assert np.isfinite(scores).all()

    def test_finds_good_config_with_history(self, lv, lv_pool, lv_histories):
        """With histories and a modest budget CEAL lands near the optimum."""
        best = lv_pool.best_value("execution_time")
        gaps = []
        for rep in range(5):
            problem = make_problem(
                lv, lv_pool, lv_histories, budget=25, seed=rep + 50
            )
            result = Ceal(CealSettings(use_history=True)).tune(problem)
            gaps.append(result.best_actual_value(lv_pool) / best)
        assert np.mean(gaps) < 1.15

    def test_computer_time_objective(self, lv, lv_pool, lv_histories):
        problem = make_problem(
            lv, lv_pool, lv_histories, budget=20, objective=COMPUTER_TIME
        )
        result = Ceal(CealSettings(use_history=True)).tune(problem)
        assert result.objective is COMPUTER_TIME
        assert result.cost() == result.cost_computer_core_hours

    def test_survives_fault_injection(self, lv, lv_pool, lv_histories):
        problem = TuningProblem.create(
            workflow=lv,
            objective=EXECUTION_TIME,
            pool=lv_pool,
            budget_runs=24,
            seed=3,
            histories=lv_histories,
            failure_rate=0.3,
        )
        result = Ceal(CealSettings(use_history=True)).tune(problem)
        assert result.runs_used == 24
        assert len(result.measured) < 24  # some runs failed
        assert result.best_config(lv_pool) in lv_pool.configs
