"""Pinned-output regression tests for the driver refactor.

``tests/data/pinned_tune.json`` captures, for every algorithm, the exact
outputs of the pre-driver monolithic ``tune()`` implementations on a
fixed problem (LV workflow, pool size 150/seed 7, histories 120/seed 7,
tuning seed 3).  The driver-based strategies must reproduce them
bit-identically: the same measured configurations in the same order, the
same values, the same recommendation, and the same budget accounting.

Regenerate with ``PYTHONPATH=src python tests/data/make_pinned.py`` only
for an *intentional* behaviour change.
"""

import json
from pathlib import Path

import pytest

from repro.core.algorithms import (
    ActiveLearning,
    Alph,
    BayesianOptimization,
    Geist,
    LowFidelityOnly,
    RandomSampling,
    RegionBandit,
)
from repro.core.ceal import Ceal, CealSettings
from repro.core.objectives import EXECUTION_TIME
from repro.core.problem import TuningProblem

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pinned_tune.json").read_text()
)
#: Final-model whole-pool scores captured from the pre-fast-kernel ML
#: implementations (see tests/data/make_pinned_scores.py).  The
#: vectorized kernels must reproduce every score bit-for-bit.
PINNED_SCORES = json.loads(
    (Path(__file__).parent / "data" / "pinned_scores.json").read_text()
)

# Mirrors tests/data/make_pinned.py (keep the two in sync).
CASES = {
    "rs": lambda: RandomSampling(),
    "al": lambda: ActiveLearning(iterations=3),
    "geist": lambda: Geist(iterations=3),
    "alph_hist": lambda: Alph(use_history=True, iterations=3),
    "alph_paid": lambda: Alph(
        use_history=False, component_runs_fraction=0.5, iterations=2
    ),
    "bandit": lambda: RegionBandit(),
    "bo": lambda: BayesianOptimization(iterations=3),
    "ceal_bo": lambda: BayesianOptimization(iterations=3, bootstrap=True),
    "lowfid": lambda: LowFidelityOnly(),
    "ceal_hist": lambda: Ceal(CealSettings(use_history=True)),
    "ceal_paid": lambda: Ceal(CealSettings(use_history=False)),
    "ceal_faults": lambda: Ceal(CealSettings(use_history=True)),
}


def test_all_cases_pinned():
    assert set(CASES) == set(PINNED)
    assert set(CASES) == set(PINNED_SCORES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_reproduces_pre_refactor_output(key, lv, lv_pool, lv_histories):
    pin = PINNED[key]
    problem = TuningProblem.create(
        workflow=lv,
        objective=EXECUTION_TIME,
        pool=lv_pool,
        budget_runs=pin["budget"],
        seed=3,
        histories=lv_histories,
        failure_rate=pin["failure_rate"],
    )
    result = CASES[key]().tune(problem)
    assert result.algorithm == pin["algorithm"]
    assert result.runs_used == pin["runs_used"]
    assert [list(c) for c in result.measured] == pin["measured_configs"]
    assert list(result.measured.values()) == pin["measured_values"]
    assert list(result.best_config(lv_pool)) == pin["recommendation"]
    # The final searcher model must score the *whole pool* bit-identically
    # to the pre-vectorization kernels, not just agree on the argmin.
    scores = result.predict_pool(lv_pool)
    assert list(scores) == PINNED_SCORES[key]["pool_scores"]


def test_oracle_pool_preserves_pinned_output(lv, lv_pool, lv_histories, monkeypatch):
    """The fast measurement sweep never moves a pinned number.

    The fixtures' pools go through ``repro.insitu.fast`` by default; a
    pool regenerated on the per-config DES oracle (forced the way the
    sweep observes it: one app declares non-stationary steps) must be
    bit-identical, and tuning on it must reproduce the pinned
    pre-fast-path output.
    """
    from repro.insitu.fast import fast_path_reason
    from repro.lru import LruCache
    from repro.workflows import pools

    monkeypatch.setattr(
        lv.app("voro"), "stationary_steps", False, raising=False
    )
    assert fast_path_reason(lv) is not None
    monkeypatch.setattr(pools, "_POOL_MEMO", LruCache("pool.memo", 128))
    oracle_pool = pools.generate_pool(lv, len(lv_pool), seed=7)
    assert oracle_pool.configs == lv_pool.configs
    assert [oracle_pool.lookup(c) for c in oracle_pool.configs] == [
        lv_pool.lookup(c) for c in lv_pool.configs
    ]

    pin = PINNED["rs"]
    problem = TuningProblem.create(
        workflow=lv,
        objective=EXECUTION_TIME,
        pool=oracle_pool,
        budget_runs=pin["budget"],
        seed=3,
        histories=lv_histories,
        failure_rate=pin["failure_rate"],
    )
    result = CASES["rs"]().tune(problem)
    assert [list(c) for c in result.measured] == pin["measured_configs"]
    assert list(result.measured.values()) == pin["measured_values"]
    assert list(result.best_config(oracle_pool)) == pin["recommendation"]


@pytest.mark.parametrize("key", ["rs", "ceal_paid", "alph_paid"])
def test_observability_preserves_pinned_output(
    key, lv, lv_pool, lv_histories, tmp_path
):
    """Telemetry persistence + live progress never move a pinned number.

    The full observability stack — a live hub, a progress sink, and an
    end-of-run flush into a store — is observe-only: with all of it
    enabled, every algorithm still reproduces its pinned output
    bit-for-bit.
    """
    import io

    from repro import telemetry as tel
    from repro.telemetry import progress
    from repro.telemetry.persist import flush_run, load_run

    pin = PINNED[key]
    problem = TuningProblem.create(
        workflow=lv,
        objective=EXECUTION_TIME,
        pool=lv_pool,
        budget_runs=pin["budget"],
        seed=3,
        histories=lv_histories,
        failure_rate=pin["failure_rate"],
    )
    hub = tel.Telemetry()
    sink = progress.JsonlProgress(stream=io.StringIO(), min_interval=0.0)
    with tel.use(hub), progress.use(sink):
        result = CASES[key]().tune(problem)
    sink.close()
    run_key = flush_run(tmp_path / "perf.db", hub, label=key)
    assert result.runs_used == pin["runs_used"]
    assert [list(c) for c in result.measured] == pin["measured_configs"]
    assert list(result.measured.values()) == pin["measured_values"]
    assert list(result.best_config(lv_pool)) == pin["recommendation"]
    assert list(result.predict_pool(lv_pool)) == PINNED_SCORES[key]["pool_scores"]
    # The flushed snapshot is really there, spans and all.
    assert load_run(tmp_path / "perf.db", run_key).spans


@pytest.mark.parametrize("warm_start", ["off", "components", "full"])
@pytest.mark.parametrize("key", ["rs", "ceal_paid", "alph_paid"])
def test_empty_store_preserves_pinned_output(
    key, warm_start, lv, lv_pool, lv_histories, tmp_path
):
    """Binding an empty store — under any warm-start mode — changes nothing.

    The store's bit-identity guarantee: write-through recording and the
    warm-start layers are purely additive, so against an empty database
    every algorithm still reproduces its pinned pre-store output.
    """
    pin = PINNED[key]
    problem = TuningProblem.create(
        workflow=lv,
        objective=EXECUTION_TIME,
        pool=lv_pool,
        budget_runs=pin["budget"],
        seed=3,
        histories=lv_histories,
        failure_rate=pin["failure_rate"],
        store=tmp_path / "empty.db",
        warm_start=warm_start,
    )
    result = CASES[key]().tune(problem)
    assert result.runs_used == pin["runs_used"]
    assert [list(c) for c in result.measured] == pin["measured_configs"]
    assert list(result.measured.values()) == pin["measured_values"]
    assert list(result.best_config(lv_pool)) == pin["recommendation"]
