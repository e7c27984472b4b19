"""Shared fixtures: workflows, small measured pools, histories.

Pools are generated once per session (generation is memoised inside
``repro.workflows.pools`` as well) and kept small so the whole suite
stays fast while still exercising the real DES-backed ground truth.

Also the one result fingerprint (:func:`comparable`) and the served
session helpers (:func:`offline_result`, :func:`drive`) that the
resume, serve and cache tests import from here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.cluster.machine import Machine
from repro.serve.specs import build_algorithm, build_problem

# Deterministic property-based testing: the suite gates commits and
# benchmarks, so example generation must not vary across runs.
hypothesis_settings.register_profile("repro", derandomize=True)
hypothesis_settings.load_profile("repro")
from repro.workflows.catalog import make_gp, make_hs, make_lv
from repro.workflows.pools import generate_component_history, generate_pool

SMALL_POOL = 150


@pytest.fixture(scope="session")
def machine() -> Machine:
    return Machine()


@pytest.fixture(scope="session")
def lv():
    return make_lv()


@pytest.fixture(scope="session")
def hs():
    return make_hs()


@pytest.fixture(scope="session")
def gp():
    return make_gp()


@pytest.fixture(scope="session")
def lv_pool(lv):
    return generate_pool(lv, SMALL_POOL, seed=7)


@pytest.fixture(scope="session")
def hs_pool(hs):
    return generate_pool(hs, SMALL_POOL, seed=7)


@pytest.fixture(scope="session")
def gp_pool(gp):
    return generate_pool(gp, SMALL_POOL, seed=7)


@pytest.fixture(scope="session")
def lv_histories(lv):
    return {
        label: generate_component_history(lv, label, size=120, seed=7)
        for label in lv.labels
    }


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def comparable(result):
    """Everything deterministic about a result (timing excluded)."""
    return {
        "algorithm": result.algorithm,
        "measured": list(result.measured.items()),
        "runs_used": result.runs_used,
        "cost_execution_seconds": result.cost_execution_seconds,
        "cost_computer_core_hours": result.cost_computer_core_hours,
        "events": [e.as_dict(include_timing=False) for e in result.trace],
    }


def offline_result(spec):
    """The uninterrupted offline run of a served session's spec."""
    return build_algorithm(spec).tune(build_problem(spec))


def drive(manager, name: str, evict_every_step=False) -> dict:
    """Ask/tell session ``name`` to completion; returns the done payload."""
    for _ in range(100):
        if evict_every_step:
            manager.evict_all()
        proposal = manager.ask(name)
        if proposal.get("done"):
            return proposal
        if evict_every_step:
            manager.evict_all()
        manager.tell(name, proposal["ask_id"])
    raise AssertionError("session did not finish in 100 cycles")
