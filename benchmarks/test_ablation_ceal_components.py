"""Ablation — which pieces of CEAL earn their keep?

Four arms on LV computer time (m = 50, with histories):

* full CEAL,
* CEAL without the model-switch detector (the ACM ranks every batch and
  is the final model),
* CEAL without the bias guard (no random-sample injection), and
* the pure low-fidelity tuner (no high-fidelity phase at all).

Expected shape: the full algorithm is at least as good as every
ablation, and the pure-ACM arm trails it (§3: the low-fidelity model
alone "lacks the accuracy required for auto-tuning").
"""

import pytest
from conftest import emit

from repro.experiments import AlgorithmFactor, run_trials, summarize
from repro.experiments.figures import FigureResult

pytestmark = pytest.mark.slow


def test_ablation_ceal_components(benchmark, scale):
    factors = (
        AlgorithmFactor.make("CEAL", "ceal", use_history=True),
        AlgorithmFactor.make(
            "CEAL-noswitch", "ceal", use_history=True, switch_enabled=False
        ),
        AlgorithmFactor.make(
            "CEAL-noguard", "ceal", use_history=True, bias_guard_enabled=False
        ),
        AlgorithmFactor.make("LowFid-only", "lowfid"),
    )

    def run():
        trials = run_trials(
            "LV",
            "computer_time",
            factors,
            budget=50,
            repeats=scale["repeats"],
            pool_size=scale["pool_size"],
            pool_seed=scale["seed"],
            jobs=scale["jobs"],
        )
        return summarize(trials)

    summary = benchmark.pedantic(run, rounds=1, iterations=1)

    result = FigureResult("Ablation", "CEAL component ablations (LV comp, m=50)")
    for name, stats in summary.items():
        result.rows.append(
            {
                "arm": name,
                "normalized": stats["normalized"],
                "recall_top1": float(stats["recall"][0]),
                "mdape_top2": stats["mdape_top2"],
            }
        )
    emit(result)

    assert summary["CEAL"]["normalized"] <= summary["LowFid-only"][
        "normalized"
    ] + 0.02
    assert summary["CEAL"]["normalized"] <= summary["CEAL-noswitch"][
        "normalized"
    ] + 0.05
    assert summary["CEAL"]["normalized"] <= summary["CEAL-noguard"][
        "normalized"
    ] + 0.05
