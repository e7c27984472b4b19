"""Tests for the LowFidelityOnly ablation tuner and pool replication."""

import numpy as np
import pytest

from repro.core.algorithms import LowFidelityOnly
from repro.core.objectives import COMPUTER_TIME
from repro.core.problem import TuningProblem
from repro.workflows.pools import generate_pool


class TestLowFidelityOnly:
    def test_respects_budget_with_history(self, lv, lv_pool, lv_histories):
        problem = TuningProblem.create(
            lv, COMPUTER_TIME, lv_pool, budget_runs=12, seed=1,
            histories=lv_histories,
        )
        result = LowFidelityOnly().tune(problem)
        assert result.runs_used == 12
        assert len(result.measured) == 12
        assert result.algorithm == "LowFid"

    def test_pays_components_without_history(self, lv, lv_pool):
        problem = TuningProblem.create(
            lv, COMPUTER_TIME, lv_pool, budget_runs=12, seed=1, histories={},
        )
        # No histories attached -> no component runs to train on or pay.
        with pytest.raises(RuntimeError, match="LowFid"):
            LowFidelityOnly().tune(problem)

    def test_model_is_acm(self, lv, lv_pool, lv_histories):
        from repro.core.low_fidelity import LowFidelityModel

        problem = TuningProblem.create(
            lv, COMPUTER_TIME, lv_pool, budget_runs=10, seed=1,
            histories=lv_histories,
        )
        result = LowFidelityOnly().tune(problem)
        assert isinstance(result.model, LowFidelityModel)

    def test_measures_its_own_top_picks(self, lv, lv_pool, lv_histories):
        problem = TuningProblem.create(
            lv, COMPUTER_TIME, lv_pool, budget_runs=10, seed=1,
            histories=lv_histories,
        )
        result = LowFidelityOnly().tune(problem)
        scores = result.predict_pool(lv_pool)
        top10 = set(np.argsort(scores)[:10].tolist())
        measured_idx = {lv_pool.configs.index(c) for c in result.measured}
        assert measured_idx == top10


class TestPoolReplication:
    def test_replicated_pool_shares_configs(self, lv):
        single = generate_pool(lv, 60, seed=9, replicates=1)
        averaged = generate_pool(lv, 60, seed=9, replicates=3)
        assert single.configs == averaged.configs

    def test_averaging_reduces_noise(self, lv):
        """Replicated values sit closer to the noise-free truth."""
        from repro.insitu import measure_workflow

        single = generate_pool(lv, 60, seed=9, replicates=1)
        averaged = generate_pool(lv, 60, seed=9, replicates=4)
        errs_single, errs_avg = [], []
        for i, config in enumerate(single.configs[:30]):
            clean = measure_workflow(lv, config, noise_sigma=0).execution_seconds
            errs_single.append(
                abs(single.measured.execution_seconds[i] - clean) / clean
            )
            errs_avg.append(
                abs(averaged.measured.execution_seconds[i] - clean) / clean
            )
        assert np.mean(errs_avg) < np.mean(errs_single)

    def test_invalid_replicates(self, lv):
        with pytest.raises(ValueError):
            generate_pool(lv, 10, seed=9, replicates=0)

    def test_computer_time_definition_kept(self, lv):
        averaged = generate_pool(lv, 20, seed=9, replicates=3)
        m = averaged.lookup(averaged.configs[0])
        # Averaging exec and core-hours jointly preserves the definition
        # because nodes are fixed per config.
        expected = m.execution_seconds * m.nodes * lv.machine.node.cores / 3600
        assert m.computer_core_hours == pytest.approx(expected, rel=1e-9)
