"""Tests for workflow measurement (objectives, noise, determinism)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.insitu.fast import measure_batch
from repro.insitu.measurement import (
    _seed_states,
    measure_workflow,
    noise_factors,
    stable_seed,
)
from repro.ml import _native
from repro.workflows.catalog import expert_config

#: Seeds on either side of every width numpy's seed hash switches on.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", (1, 2)) == stable_seed("a", (1, 2))

    def test_distinct_inputs_distinct_seeds(self):
        assert stable_seed("a") != stable_seed("b")

    def test_64_bit_range(self):
        s = stable_seed("x", 123)
        assert 0 <= s < 2**64


class TestSeedStates:
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_equal_numpy_seed_sequence(self, seeds):
        seeds = [*seeds, *EDGE_SEEDS]
        states = _seed_states(np.array(seeds, dtype=np.uint64))
        assert states.shape == (len(seeds), 4) and states.flags.c_contiguous
        for seed, state in zip(seeds, states):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            np.testing.assert_array_equal(state, expected)


@pytest.mark.parametrize("name", ["LV", "it's \"x\"", "ünï"])
@pytest.mark.parametrize("noise_seed", [0, 2**64 - 1, np.int64(5)])
def test_noise_factors_same_on_every_draw_path(monkeypatch, lv_pool, name, noise_seed):
    """The compiled draws, a failed self-check and kernels off give the
    per-configuration ``default_rng`` factors, float for float."""
    configs = lv_pool.configs[:100]
    want = [
        float(
            np.exp(
                np.random.default_rng(
                    stable_seed(name, tuple(c), noise_seed)
                ).normal(0.0, 0.05)
            )
        ).hex()
        for c in configs
    ]

    def factors():
        return [f.hex() for f in noise_factors(name, configs, 0.05, noise_seed).tolist()]

    assert factors() == want
    monkeypatch.setattr(_native, "_normal_ok", False)
    assert factors() == want
    monkeypatch.setattr(_native, "_state", False)
    assert factors() == want


class TestMeasurement:
    def test_computer_time_definition(self, lv):
        m = measure_workflow(lv, expert_config("LV", "execution_time"), noise_sigma=0)
        expected = m.execution_seconds * m.nodes * lv.machine.node.cores / 3600.0
        assert m.computer_core_hours == pytest.approx(expected)

    def test_objective_accessor(self, lv):
        m = measure_workflow(lv, expert_config("LV", "execution_time"), noise_sigma=0)
        assert m.objective("execution_time") == m.execution_seconds
        assert m.objective("computer_time") == m.computer_core_hours
        with pytest.raises(ValueError):
            m.objective("latency")

    def test_noise_deterministic_per_seed(self, lv):
        config = expert_config("LV", "execution_time")
        a = measure_workflow(lv, config, noise_sigma=0.05, noise_seed=1)
        b = measure_workflow(lv, config, noise_sigma=0.05, noise_seed=1)
        c = measure_workflow(lv, config, noise_sigma=0.05, noise_seed=2)
        assert a.execution_seconds == b.execution_seconds
        assert a.execution_seconds != c.execution_seconds

    def test_noise_centered_on_truth(self, lv):
        config = expert_config("LV", "execution_time")
        clean = measure_workflow(lv, config, noise_sigma=0)
        noisy = [
            measure_workflow(lv, config, noise_sigma=0.05, noise_seed=s)
            for s in range(60)
        ]
        mean = np.mean([m.execution_seconds for m in noisy])
        assert mean == pytest.approx(clean.execution_seconds, rel=0.05)

    def test_noise_scales_components_consistently(self, lv):
        config = expert_config("LV", "execution_time")
        m = measure_workflow(lv, config, noise_sigma=0.05, noise_seed=3)
        assert m.execution_seconds == pytest.approx(
            max(m.component_seconds.values())
        )

    def test_execution_longest_component(self, lv):
        m = measure_workflow(lv, expert_config("LV", "execution_time"), noise_sigma=0)
        assert m.execution_seconds == max(m.component_seconds.values())


class TestConfigCanonicalForm:
    """``WorkflowMeasurement.config`` is always the canonical plain tuple."""

    def test_list_config_stored_as_tuple(self, lv):
        config = expert_config("LV", "execution_time")
        m = measure_workflow(lv, list(config), noise_sigma=0)
        assert type(m.config) is tuple
        assert m.config == config

    def test_noise_independent_of_sequence_type(self, lv):
        config = expert_config("LV", "computer_time")
        as_list = measure_workflow(lv, list(config), noise_sigma=0.05, noise_seed=4)
        as_tuple = measure_workflow(lv, config, noise_sigma=0.05, noise_seed=4)
        assert as_list == as_tuple
        batch = measure_batch(lv, [list(config)], noise_sigma=0.05, noise_seed=4)
        assert batch.measurement(0) == as_tuple

    def test_round_trips_through_measurement_store(self, lv, tmp_path):
        from repro.store.db import MeasurementStore, StoreBinding
        from repro.store.signatures import space_signature

        config = expert_config("LV", "execution_time")
        m = measure_workflow(lv, list(config), noise_sigma=0.05, noise_seed=4)
        store = MeasurementStore(tmp_path / "measurements.sqlite")
        binding = StoreBinding(store, lv, "execution_time", seed=0)
        assert binding.record_workflow([(m.config, m)]) == 1

        rows = store.query(space_sig=space_signature(lv.space)).records
        assert len(rows) == 1
        assert type(rows[0].config) is tuple
        assert rows[0].config == m.config
        assert rows[0].value == m.execution_seconds
