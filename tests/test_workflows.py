"""Tests for the workflow catalog and measured pools."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster.machine import Machine
from repro.insitu.measurement import measure_workflow, stable_seed
from repro.lru import LruCache
from repro.telemetry import Telemetry
from repro.workflows import pools
from repro.workflows.catalog import (
    EXPERT_CONFIGS,
    expert_config,
    make_hs,
    make_workflow,
)
from repro.workflows.pools import (
    generate_component_history,
    generate_pool,
    pool_size_for,
)


def memo_counters(generate, *args, **kwargs):
    """``generate(*args, **kwargs)`` and the memo counters it bumped."""
    hub = Telemetry()
    with telemetry.use(hub):
        result = generate(*args, **kwargs)
    counters = {m["name"]: m["value"] for m in hub.metrics_snapshot()}
    return result, counters


def fresh_memo(monkeypatch, attr: str) -> None:
    """Swap the module memo ``attr`` for an empty one (restored after)."""
    memo = getattr(pools, attr)
    monkeypatch.setattr(pools, attr, LruCache(memo.name, memo.capacity))


def assert_fields_equal(a, b) -> None:
    """Two dataclass instances agree exactly on every field."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if dataclasses.is_dataclass(x):
            assert_fields_equal(x, y)
        elif isinstance(x, (np.ndarray, dict)):
            np.testing.assert_equal(x, y, err_msg=field.name)
        else:
            assert x == y, field.name


class TestCatalog:
    def test_space_sizes_match_paper_magnitudes(self, lv, hs, gp):
        # Paper: LV 2.9e9 (raw product here includes infeasible combos),
        # HS 5.1e10, GP 8.5e7 — same orders of magnitude.
        assert 1e9 < lv.space.size() < 1e11
        assert 1e10 < hs.space.size() < 1e12
        assert 1e7 < gp.space.size() < 1e9

    def test_component_config_extraction(self, lv):
        config = (288, 18, 2, 560, 20, 1)
        assert lv.component_config("lammps", config) == (288, 18, 2)
        assert lv.component_config("voro", config) == (560, 20, 1)

    def test_dag_structure(self, gp):
        assert set(gp.graph.successors("gray_scott")) == {"pdf_calc", "gplot"}
        assert set(gp.graph.successors("pdf_calc")) == {"pplot"}

    def test_cycle_rejected(self, lv):
        from repro.insitu.workflow import Coupling, WorkflowDefinition

        with pytest.raises(ValueError, match="cycle"):
            WorkflowDefinition(
                name="bad",
                components=lv.components,
                couplings=(
                    Coupling("lammps", "voro"),
                    Coupling("voro", "lammps"),
                ),
            )

    def test_unknown_coupling_label_rejected(self, lv):
        from repro.insitu.workflow import Coupling, WorkflowDefinition

        with pytest.raises(ValueError, match="unknown component"):
            WorkflowDefinition(
                name="bad",
                components=lv.components,
                couplings=(Coupling("lammps", "ghost"),),
            )

    def test_make_workflow_by_name(self):
        assert make_workflow("LV").name == "LV"
        with pytest.raises(ValueError):
            make_workflow("XX")

    def test_expert_configs_feasible(self):
        for (name, objective), config in EXPERT_CONFIGS.items():
            workflow = make_workflow(name)
            assert workflow.space.contains(config), (name, objective)
            assert workflow.constraint(config), (name, objective)

    def test_expert_config_lookup(self):
        assert expert_config("LV", "execution_time") == (288, 18, 2, 288, 18, 2)
        with pytest.raises(ValueError):
            expert_config("LV", "energy")

    def test_encoder_has_footprint_features(self, lv):
        names = lv.encoder().feature_names()
        assert "lammps.nodes" in names
        assert "voro.total_procs" in names

    def test_buffer_hook_bounds(self, hs):
        config = list(expert_config("HS", "computer_time"))
        buf_pos = hs.space.position("heat.buffer_mb")
        coupling = hs.couplings[0]
        config[buf_pos] = 1
        assert 1 <= hs.buffer_messages(coupling, tuple(config)) <= 8
        config[buf_pos] = 40
        assert hs.buffer_messages(coupling, tuple(config)) <= 8


class TestPoolSizing:
    def test_paper_example(self):
        # 1/n = 0.2%, P = 98.2% -> ~2000
        assert 1900 <= pool_size_for(0.002, 0.982) <= 2100

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            pool_size_for(0.0, 0.9)
        with pytest.raises(ValueError):
            pool_size_for(0.1, 1.0)


class TestPools:
    def test_pool_configs_feasible_and_unique(self, lv, lv_pool):
        assert len(set(lv_pool.configs)) == len(lv_pool)
        for config in lv_pool.configs[:20]:
            assert lv.constraint(config)

    def test_pool_deterministic(self, lv, lv_pool, monkeypatch):
        again = generate_pool(lv, len(lv_pool), seed=7)
        assert again.configs == lv_pool.configs
        config = lv_pool.configs[0]
        assert again.lookup(config).execution_seconds == pytest.approx(
            lv_pool.lookup(config).execution_seconds
        )
        # A repeat call is one memo hit returning the identical object.
        repeat, counters = memo_counters(generate_pool, lv, len(lv_pool), seed=7)
        assert repeat is again
        assert counters.get("pool.memo.hits") == 1
        assert "pool.memo.misses" not in counters
        # Through a memo miss, regeneration matches field for field.
        fresh_memo(monkeypatch, "_POOL_MEMO")
        regenerated, counters = memo_counters(
            generate_pool, lv, len(lv_pool), seed=7
        )
        assert regenerated is not again
        assert counters.get("pool.memo.misses") == 1
        # The memo's byte gauge counts the pool's columns.
        assert counters["pool.memo.bytes"] == regenerated.nbytes > 0
        assert_fields_equal(regenerated, again)

    def test_memo_keyed_by_machine(self, hs):
        """One workflow name on two machines never shares a memo entry."""
        wide = make_hs(Machine(max_nodes=64))
        narrow_pool = generate_pool(hs, 50, seed=3)
        wide_pool = generate_pool(wide, 50, seed=3)
        assert narrow_pool.measured.nodes.max() <= 32
        assert wide_pool.measured.nodes.max() > 32
        narrow_history = generate_component_history(hs, "heat", size=40, seed=3)
        wide_history = generate_component_history(wide, "heat", size=40, seed=3)
        assert wide_history.configs != narrow_history.configs

    def test_different_seed_different_pool(self, lv, lv_pool):
        other = generate_pool(lv, len(lv_pool), seed=8)
        assert other.configs != lv_pool.configs

    def test_objective_values_align(self, lv_pool):
        values = lv_pool.objective_values("execution_time")
        assert values.shape == (len(lv_pool),)
        best = lv_pool.best_index("execution_time")
        assert values[best] == lv_pool.best_value("execution_time")

    def test_lookup(self, lv_pool):
        config = lv_pool.configs[5]
        assert lv_pool.lookup(config).config == config
        with pytest.raises(KeyError):
            lv_pool.lookup((2, 1, 1, 2, 1, 1))

    def test_pool_values_match_direct_measurement(self, lv, lv_pool):
        config = lv_pool.configs[0]
        direct = measure_workflow(lv, config, noise_sigma=0.05, noise_seed=7)
        assert lv_pool.lookup(config).execution_seconds == pytest.approx(
            direct.execution_seconds
        )


def _history_oracle(workflow, label, size, seed, noise_sigma):
    """A history the per-configuration way: one solo run, one scalar draw."""
    app = workflow.app(label)
    machine = workflow.machine

    def feasible(config):
        placement = app.placement(config)
        return (
            placement.busy_cores_per_node <= machine.node.cores
            and placement.procs >= placement.procs_per_node
            and placement.nodes <= machine.max_nodes
        )

    rng = np.random.default_rng(
        stable_seed("history", workflow.name, label, size, seed)
    )
    configs = app.space.sample(rng, size, constraint=feasible, unique=True)
    noise_rng = np.random.default_rng(
        stable_seed("history-noise", workflow.name, label, size, seed)
    )
    exec_times, core_hours = [], []
    for config in configs:
        solo = workflow.solo_run(label, config)
        factor = float(np.exp(noise_rng.normal(0.0, noise_sigma)))
        exec_times.append(solo.execution_seconds * factor)
        core_hours.append(solo.computer_core_hours * factor)
    return configs, exec_times, core_hours


_CONFIGURABLE = [
    (workflow.name, label)
    for workflow in map(make_workflow, ("LV", "HS", "GP"))
    for label in workflow.labels
    if workflow.app(label).space.size() > 1
]


@given(
    component=st.sampled_from(_CONFIGURABLE),
    size=st.integers(1, 80),
    seed=st.integers(0, 2**32),
    noise_sigma=st.sampled_from((0.0, 0.05, 0.3)),
)
@settings(max_examples=30, deadline=None)
def test_history_equals_per_config_oracle(component, size, seed, noise_sigma):
    workflow = make_workflow(component[0])
    history = generate_component_history(
        workflow, component[1], size=size, seed=seed, noise_sigma=noise_sigma
    )
    configs, exec_times, core_hours = _history_oracle(
        workflow, component[1], size, seed, noise_sigma
    )
    assert history.configs == tuple(configs)
    assert history.execution_seconds.tolist() == exec_times
    assert history.computer_core_hours.tolist() == core_hours


class TestComponentHistory:
    def test_history_shapes(self, lv_histories):
        history = lv_histories["lammps"]
        assert len(history) == 120
        assert history.execution_seconds.shape == (120,)
        assert (history.execution_seconds > 0).all()
        assert (history.computer_core_hours > 0).all()

    def test_objective_selector(self, lv_histories):
        history = lv_histories["voro"]
        np.testing.assert_array_equal(
            history.objective_values("execution_time"), history.execution_seconds
        )
        with pytest.raises(ValueError):
            history.objective_values("memory")

    def test_subset(self, lv_histories):
        history = lv_histories["lammps"]
        sub = history.subset([0, 5, 7])
        assert len(sub) == 3
        assert sub.configs[1] == history.configs[5]
        assert sub.execution_seconds[1] == history.execution_seconds[5]

    def test_history_deterministic(self, lv, monkeypatch):
        a = generate_component_history(lv, "lammps", size=50, seed=11)
        b, counters = memo_counters(
            generate_component_history, lv, "lammps", size=50, seed=11
        )
        assert a.configs == b.configs
        np.testing.assert_array_equal(a.execution_seconds, b.execution_seconds)
        # The repeat call is one memo hit returning the identical object.
        assert b is a
        assert counters.get("history.memo.hits") == 1
        assert "history.memo.misses" not in counters
        # Through a memo miss, regeneration matches field for field.
        fresh_memo(monkeypatch, "_HISTORY_MEMO")
        c, counters = memo_counters(
            generate_component_history, lv, "lammps", size=50, seed=11
        )
        assert c is not a
        assert counters.get("history.memo.misses") == 1
        assert_fields_equal(c, a)
