"""Tests for the vectorized fast measurement path.

The contract under test is *bit-identity*: ``run_coupled_batch`` and
``measure_batch`` must return exactly the floats the DES oracle
(:func:`run_coupled` / :func:`measure_workflow`) produces — no
tolerances — across all catalog workflows, including the HS workflow's
configuration-dependent step counts and the GP fan-out DAG.  The batch
legs are seeded ``hypothesis`` properties over generated feasible
batches: single rows, duplicate rows, every HS ``outputs`` value (one
step group each), HS buffers small enough for several drains, heat
placements on both sides of the cache-penalty test, and a one-process
PDF calculator.  The noise legs compare the batch's factors (by
``float.hex``) and replicate means with a per-configuration
``default_rng`` loop, the oracle kept here, and every column of a
generated pool with :func:`measure_workflow`.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import Machine
from repro.core.collector import Collector
from repro.core.objectives import EXECUTION_TIME
from repro.insitu.coupled import run_coupled
from repro.insitu.fast import (
    fast_path_reason,
    measure_batch,
    run_coupled_batch,
)
from repro.insitu.measurement import (
    WorkflowMeasurement,
    measure_workflow,
    noise_factors,
    stable_seed,
)
from repro.workflows.catalog import make_gp, make_hs, make_lv
from repro.workflows.pools import generate_pool

N_SAMPLE = 12

#: Heat spills its cache share whenever procs < 35.8 × ppn, i.e. on
#: every placement of 32 or fewer nodes; 64 nodes reach the other side.
WORKFLOWS = {"gp": make_gp(), "hs": make_hs(Machine(max_nodes=64)), "lv": make_lv()}


def _component(draw, low, high, max_nodes, threads=False):
    """``(procs, ppn[, threads])`` with procs >= ppn and <= max_nodes nodes."""
    ppn = draw(st.integers(1, 35))
    procs = draw(st.integers(max(low, ppn), min(high, ppn * max_nodes)))
    if not threads:
        return (procs, ppn)
    return (procs, ppn, draw(st.integers(1, min(4, 36 // ppn))))


def _nodes(procs, ppn):
    return -(-procs // ppn)


@st.composite
def _lv_row(draw):
    lammps = _component(draw, 2, 1085, 30, threads=True)
    voro = _component(draw, 2, 1085, 32 - _nodes(*lammps[:2]), threads=True)
    return lammps + voro


@st.composite
def _hs_row(draw):
    px, py = draw(st.integers(2, 32)), draw(st.integers(2, 32))
    ppn = draw(st.integers(-(-px * py // 60), min(35, px * py)))
    outputs = draw(st.sampled_from((4, 8, 16, 32)))
    buffer_mb = draw(st.one_of(st.just(1), st.integers(1, 40)))
    writers = _component(draw, 2, 1085, 64 - _nodes(px * py, ppn))
    return (px, py, ppn, outputs, buffer_mb) + writers


@st.composite
def _gp_row(draw):
    gray_scott = _component(draw, 2, 1085, 28)
    free = 30 - _nodes(*gray_scott)
    pdf = draw(st.sampled_from([(1, 1), None])) or _component(draw, 1, 512, free)
    return gray_scott + pdf + (1, 1)


ROWS = {"gp": _gp_row(), "hs": _hs_row(), "lv": _lv_row()}


@st.composite
def _batches(draw, name):
    groups = name == "hs" and draw(st.booleans())  # all four step groups
    batch = draw(st.lists(ROWS[name], min_size=4 if groups else 1, max_size=8))
    if groups:
        batch = [
            row[:3] + (outputs,) + row[4:]
            for row, outputs in zip(batch, itertools.cycle((4, 8, 16, 32)))
        ]
    copies = draw(st.lists(st.integers(0, len(batch) - 1), max_size=3))
    return batch + [batch[i] for i in copies]


def _factor(workflow, config, sigma, seed):
    """One configuration's noise factor the per-configuration way."""
    if not sigma > 0:
        return 1.0
    rng = np.random.default_rng(stable_seed(workflow.name, tuple(config), seed))
    return float(np.exp(rng.normal(0.0, sigma)))


def _oracle(workflow, config, sigma, seed, replicates):
    """One ``measure_batch`` row the per-configuration way: a DES run,
    one scalar draw per replicate, ``np.mean`` of each replicate list."""
    run = run_coupled(workflow, config)
    seeds = [seed] if replicates == 1 else [stable_seed(seed, r) for r in range(replicates)]
    factors = [_factor(workflow, config, sigma, s) for s in seeds]
    execs = [run.execution_seconds * f for f in factors]
    hours = [workflow.machine.core_hours(e, run.nodes) for e in execs]
    return WorkflowMeasurement(
        config=tuple(config),
        execution_seconds=float(np.mean(execs)),
        computer_core_hours=float(np.mean(hours)),
        component_seconds={
            label: float(np.mean([t * f for f in factors]))
            for label, t in run.component_seconds.items()
        },
        nodes=run.nodes,
        steps=run.steps,
    )


def _rows(batch):
    return [batch.measurement(row) for row in range(len(batch))]


def _sample(workflow, n=N_SAMPLE, seed=11):
    rng = np.random.default_rng(stable_seed("fast-tests", workflow.name, seed))
    return workflow.space.sample(
        rng, n, constraint=workflow.constraint, unique=True
    )


@pytest.fixture(params=["lv", "hs", "gp"])
def workflow(request):
    return request.getfixturevalue(request.param)


class TestEligibility:
    def test_catalog_workflows_eligible(self, workflow):
        assert fast_path_reason(workflow) is None

    def test_non_stationary_app_disengages(self, lv, monkeypatch):
        monkeypatch.setattr(
            lv.app("voro"), "stationary_steps", False, raising=False
        )
        assert "non-stationary" in fast_path_reason(lv)


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_oracle(self, name, data):
        workflow = WORKFLOWS[name]
        batch = data.draw(_batches(name))
        assert all(workflow.constraint(config) for config in batch)
        fast = run_coupled_batch(workflow, batch)
        # == is bit identity on these floats: no NaN or signed zero arises.
        assert fast == [run_coupled(workflow, config) for config in batch]
        assert all(type(r.nodes) is int and type(r.steps) is int for r in fast)

    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_measure_batch_matches_noise_oracle(self, name, data):
        workflow = WORKFLOWS[name]
        batch = data.draw(_batches(name))
        sigma = data.draw(st.sampled_from((0.0, 0.05, 0.3)))
        seed = data.draw(st.integers(0, 2**64 - 1))
        replicates = data.draw(st.sampled_from((1, 3, 8)))
        factors = noise_factors(workflow.name, batch, sigma, seed)
        assert [f.hex() for f in factors.tolist()] == [
            _factor(workflow, config, sigma, seed).hex() for config in batch
        ]
        measured = measure_batch(workflow, batch, sigma, seed, replicates)
        assert _rows(measured) == [
            _oracle(workflow, config, sigma, seed, replicates) for config in batch
        ]

    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    @given(size=st.integers(1, 6), seed=st.integers(0, 2**32))
    @settings(max_examples=8, deadline=None)
    def test_measure_batch_matches_measure_workflow(self, name, size, seed):
        workflow = WORKFLOWS[name]
        pool = generate_pool(workflow, size, seed=seed)
        assert _rows(pool.measured) == [
            measure_workflow(workflow, c, noise_sigma=0.05, noise_seed=seed)
            for c in pool.configs
        ]

    def test_pool_columns_are_read_only(self, lv_pool):
        for column in lv_pool.measured.columns():
            with pytest.raises(ValueError):
                column[0] = 1

    def test_replicates_match_oracle_path(self, hs, monkeypatch):
        configs = _sample(hs, n=4)
        fast_ms = measure_batch(
            hs, configs, noise_sigma=0.05, noise_seed=5, replicates=3
        )
        monkeypatch.setattr(
            hs.app("stage_write"), "stationary_steps", False, raising=False
        )
        oracle_ms = measure_batch(
            hs, configs, noise_sigma=0.05, noise_seed=5, replicates=3
        )
        assert _rows(fast_ms) == _rows(oracle_ms)


class TestFallback:
    def test_non_stationary_falls_back_to_same_results(self, gp, monkeypatch):
        configs = _sample(gp, n=4)
        fast_results = run_coupled_batch(gp, configs)
        monkeypatch.setattr(
            gp.app("pdf_calc"), "stationary_steps", False, raising=False
        )
        oracle_results = run_coupled_batch(gp, configs)
        assert fast_results == oracle_results


class TestErrors:
    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_first_invalid_row_raises_its_oracle_error(self, name, data):
        workflow = WORKFLOWS[name]
        batch = data.draw(st.lists(ROWS[name], min_size=2, max_size=6))
        bad = []
        for _ in range(2):
            row = list(data.draw(ROWS[name]))
            if data.draw(st.booleans()):  # a value outside its parameter
                row[data.draw(st.integers(0, len(row) - 1))] = 0
            else:  # admissible values, one node per process: too many nodes
                spread = (32, 32, 1) if name == "hs" else (1085, 1)
                row[: len(spread)] = spread
            bad.append(tuple(row))
        first = data.draw(st.integers(1, len(batch) - 1))
        batch = batch[:first] + bad[:1] + batch[first:] + bad[1:]
        with pytest.raises(ValueError) as oracle_err:
            run_coupled(workflow, bad[0])
        with pytest.raises(ValueError) as fast_err:
            run_coupled_batch(workflow, batch)
        assert str(fast_err.value) == str(oracle_err.value)

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
        assert len(measure_batch(lv, [])) == 0

    def test_replicates_validated(self, lv):
        with pytest.raises(ValueError):
            measure_batch(lv, [], replicates=0)


class TestCollectorLiveBackend:
    """The collector has no live backend: off-pool configurations raise."""

    def test_without_backend_still_raises(self, lv_pool):
        collector = Collector(pool=lv_pool, objective=EXECUTION_TIME)
        with pytest.raises(KeyError):
            collector.measure_batch([(9999, 1, 1, 9999, 1, 1)])
