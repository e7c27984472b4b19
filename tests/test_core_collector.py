"""Tests for the budgeted collector."""

import numpy as np
import pytest

from repro.core.collector import BudgetExhausted, Collector
from repro.core.driver import TuningSession
from repro.core.objectives import COMPUTER_TIME, EXECUTION_TIME
from repro.core.problem import TuningProblem


@pytest.fixture()
def collector(lv_pool, lv_histories):
    return Collector(
        pool=lv_pool,
        objective=EXECUTION_TIME,
        histories=lv_histories,
        budget_runs=10,
    )


class TestWorkflowRuns:
    def test_measure_returns_objective_values(self, collector, lv_pool):
        configs = lv_pool.configs[:3]
        result = collector.measure_batch(configs)
        for config in configs:
            assert result[config] == lv_pool.lookup(config).execution_seconds
        assert collector.runs_used == 3

    def test_budget_enforced(self, collector, lv_pool):
        collector.measure_batch(lv_pool.configs[:10])
        with pytest.raises(BudgetExhausted):
            collector.measure_batch(lv_pool.configs[10:11])

    def test_remeasure_rejected(self, collector, lv_pool):
        collector.measure_batch(lv_pool.configs[:1])
        with pytest.raises(ValueError, match="already measured"):
            collector.measure_batch(lv_pool.configs[:1])

    def test_cost_accumulates_both_units(self, collector, lv_pool):
        configs = lv_pool.configs[:2]
        collector.measure_batch(configs)
        expected_exec = sum(lv_pool.lookup(c).execution_seconds for c in configs)
        expected_ch = sum(lv_pool.lookup(c).computer_core_hours for c in configs)
        assert collector.cost_execution_seconds == pytest.approx(expected_exec)
        assert collector.cost_computer_core_hours == pytest.approx(expected_ch)
        assert collector.cost(EXECUTION_TIME) == collector.cost_execution_seconds
        assert collector.cost(COMPUTER_TIME) == collector.cost_computer_core_hours


class TestComponentRuns:
    def test_batches_charged_as_runs(self, collector):
        rng = np.random.default_rng(0)
        data = collector.measure_components(4, rng)
        assert collector.runs_used == 4
        assert set(data) == {"lammps", "voro"}
        for batch in data.values():
            assert len(batch.configs) == 4

    def test_component_cost_counted(self, collector):
        rng = np.random.default_rng(0)
        data = collector.measure_components(3, rng)
        expected = sum(b.execution_seconds.sum() for b in data.values())
        assert collector.cost_execution_seconds == pytest.approx(expected)

    def test_zero_batches_free(self, collector):
        rng = np.random.default_rng(0)
        assert collector.measure_components(0, rng) == {}
        assert collector.runs_used == 0

    def test_too_many_batches_rejected(self, collector):
        rng = np.random.default_rng(0)
        with pytest.raises(BudgetExhausted):
            collector.measure_components(11, rng)

    def test_refused_batch_charges_nothing(self, lv_pool, lv_histories):
        # The short history comes last: the first label must not be
        # charged, costed or drawn from before the second is refused.
        collector = Collector(
            pool=lv_pool,
            objective=EXECUTION_TIME,
            histories={
                "lammps": lv_histories["lammps"],
                "voro": lv_histories["voro"].subset(np.arange(3)),
            },
            budget_runs=10,
        )
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="only 3 solo"):
            collector.measure_components(5, rng)
        assert collector.runs_used == 0
        assert collector.cost_execution_seconds == 0.0
        assert collector.cost_computer_core_hours == 0.0
        assert rng.bit_generator.state == before

    def test_free_history_uncharged(self, lv, lv_pool, lv_histories):
        problem = TuningProblem.create(
            lv, EXECUTION_TIME, lv_pool, budget_runs=10, seed=0,
            histories=lv_histories,
        )
        data = TuningSession.start(problem).history_data("CEAL")
        assert problem.collector.runs_used == 0
        assert problem.collector.cost(EXECUTION_TIME) == 0.0
        assert len(data["lammps"]) == 120

    def test_no_histories_raises(self, lv_pool):
        collector = Collector(pool=lv_pool, objective=EXECUTION_TIME)
        with pytest.raises(RuntimeError, match="histories"):
            collector.measure_components(2, np.random.default_rng(0))


class TestFaultInjection:
    def test_failures_charge_but_yield_nothing(self, lv_pool, lv_histories):
        collector = Collector(
            pool=lv_pool,
            objective=EXECUTION_TIME,
            histories=lv_histories,
            budget_runs=100,
            failure_rate=0.5,
            failure_seed=1,
        )
        result = collector.measure_batch(lv_pool.configs[:60])
        assert collector.runs_used == 60
        assert collector.failures > 5
        assert len(result) == 60 - collector.failures
        assert collector.cost_execution_seconds > 0

    def test_invalid_rate(self, lv_pool):
        with pytest.raises(ValueError):
            Collector(pool=lv_pool, objective=EXECUTION_TIME, failure_rate=1.5)
