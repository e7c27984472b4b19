"""Tests for the vectorized fast measurement path.

The contract under test is *bit-identity*: ``run_coupled_batch`` and
``measure_batch`` must return exactly the floats the DES oracle
(:func:`run_coupled` / :func:`measure_workflow`) produces — no
tolerances — across all catalog workflows, including the HS workflow's
configuration-dependent step counts and the GP fan-out DAG.
"""

import numpy as np
import pytest

from repro.core.collector import Collector
from repro.core.objectives import EXECUTION_TIME
from repro.insitu.coupled import run_coupled
from repro.insitu.fast import (
    fast_path_enabled,
    fast_path_reason,
    measure_batch,
    run_coupled_batch,
    run_coupled_fast,
)
from repro.insitu.measurement import measure_workflow, stable_seed
from repro.insitu.tracing import RunTracer
from repro.workflows.catalog import expert_config

N_SAMPLE = 12


def _sample(workflow, n=N_SAMPLE, seed=11):
    rng = np.random.default_rng(stable_seed("fast-tests", workflow.name, seed))
    return workflow.space.sample(
        rng, n, constraint=workflow.constraint, unique=True
    )


@pytest.fixture(params=["lv", "hs", "gp"])
def workflow(request):
    return request.getfixturevalue(request.param)


class TestEligibility:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_FAST_DES", raising=False)
        assert fast_path_enabled()

    def test_env_knob_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FAST_DES", "1")
        assert not fast_path_enabled()

    def test_catalog_workflows_eligible(self, workflow):
        assert fast_path_reason(workflow) is None

    def test_non_stationary_app_disengages(self, lv, monkeypatch):
        monkeypatch.setattr(
            lv.app("voro"), "stationary_steps", False, raising=False
        )
        assert "non-stationary" in fast_path_reason(lv)


class TestBitIdentity:
    def test_batch_matches_oracle(self, workflow):
        configs = _sample(workflow)
        fast_results = run_coupled_batch(workflow, configs)
        for config, fast_result in zip(configs, fast_results):
            oracle = run_coupled(workflow, config)
            assert fast_result.component_seconds == oracle.component_seconds
            assert fast_result.execution_seconds == oracle.execution_seconds
            assert fast_result.busy_seconds == oracle.busy_seconds
            assert fast_result.steps == oracle.steps
            assert fast_result.nodes == oracle.nodes

    def test_expert_config_matches_oracle(self, lv):
        config = expert_config("LV", "execution_time")
        fast_result = run_coupled_fast(lv, config)
        oracle = run_coupled(lv, config)
        assert fast_result == oracle

    def test_measure_batch_matches_measure_workflow(self, workflow):
        configs = _sample(workflow)
        fast_measurements = measure_batch(
            workflow, configs, noise_sigma=0.05, noise_seed=3
        )
        for config, fast_m in zip(configs, fast_measurements):
            oracle = measure_workflow(
                workflow, config, noise_sigma=0.05, noise_seed=3
            )
            assert fast_m == oracle

    def test_measure_batch_noise_free(self, lv):
        config = expert_config("LV", "computer_time")
        (fast_m,) = measure_batch(lv, [config], noise_sigma=0)
        assert fast_m == measure_workflow(lv, config, noise_sigma=0)

    def test_replicates_match_oracle_path(self, hs, monkeypatch):
        configs = _sample(hs, n=4)
        fast_ms = measure_batch(
            hs, configs, noise_sigma=0.05, noise_seed=5, replicates=3
        )
        monkeypatch.setenv("REPRO_NO_FAST_DES", "1")
        oracle_ms = measure_batch(
            hs, configs, noise_sigma=0.05, noise_seed=5, replicates=3
        )
        assert fast_ms == oracle_ms


class TestFallback:
    def test_env_knob_falls_back_to_same_results(self, lv, monkeypatch):
        configs = _sample(lv, n=4)
        fast_results = run_coupled_batch(lv, configs)
        monkeypatch.setenv("REPRO_NO_FAST_DES", "1")
        oracle_results = run_coupled_batch(lv, configs)
        assert fast_results == oracle_results

    def test_non_stationary_falls_back_to_same_results(self, gp, monkeypatch):
        configs = _sample(gp, n=4)
        fast_results = run_coupled_batch(gp, configs)
        monkeypatch.setattr(
            gp.app("pdf_calc"), "stationary_steps", False, raising=False
        )
        oracle_results = run_coupled_batch(gp, configs)
        assert fast_results == oracle_results

    def test_tracer_routes_through_oracle(self, lv):
        config = expert_config("LV", "execution_time")
        tracer = RunTracer()
        result = run_coupled_fast(lv, config, tracer=tracer)
        assert result == run_coupled(lv, config)
        # The oracle actually ran: the tracer saw per-step events.
        assert tracer.events


class TestErrors:
    def test_infeasible_error_parity(self, lv):
        infeasible = (1085, 35, 1, 1085, 35, 1)  # 31 + 31 nodes > 32
        with pytest.raises(ValueError) as oracle_err:
            run_coupled(lv, infeasible)
        with pytest.raises(ValueError) as fast_err:
            run_coupled_batch(lv, [infeasible])
        assert str(fast_err.value) == str(oracle_err.value)

    def test_invalid_config_rejected(self, lv):
        with pytest.raises(ValueError):
            run_coupled_batch(lv, [(0, 18, 2, 288, 18, 2)])

    def test_empty_batch(self, lv):
        assert run_coupled_batch(lv, []) == []
        assert measure_batch(lv, []) == []

    def test_replicates_validated(self, lv):
        with pytest.raises(ValueError):
            measure_batch(lv, [], replicates=0)


class TestCollectorLiveBackend:
    """The collector has no live backend: off-pool configurations raise."""

    def test_without_backend_still_raises(self, lv_pool):
        collector = Collector(pool=lv_pool, objective=EXECUTION_TIME)
        with pytest.raises(KeyError):
            collector.measure_batch([(9999, 1, 1, 9999, 1, 1)])
