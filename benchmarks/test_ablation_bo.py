"""Extension — Bayesian optimisation in the bootstrapping method (§9).

The paper's future work proposes swapping active learning for BO.  This
bench compares plain BO, bootstrapped BO (CEAL-BO), AL, and CEAL on LV
computer time with histories available.

Expected shape: bootstrapping helps BO just as it helps AL (CEAL-BO ≤
BO), and the bootstrapped variants are the strongest arms overall.
"""

import pytest
from conftest import emit

from repro.experiments import AlgorithmFactor, run_trials, summarize
from repro.experiments.figures import FigureResult

pytestmark = pytest.mark.slow


def test_ablation_bayesian_optimization(benchmark, scale):
    factors = (
        AlgorithmFactor.make("AL", "al"),
        AlgorithmFactor.make("BO", "bo"),
        AlgorithmFactor.make("CEAL-BO", "ceal-bo"),
        AlgorithmFactor.make("CEAL", "ceal", use_history=True),
    )

    def run():
        return summarize(
            run_trials(
                "LV",
                "computer_time",
                factors,
                budget=50,
                repeats=scale["repeats"],
                pool_size=scale["pool_size"],
                pool_seed=scale["seed"],
                jobs=scale["jobs"],
            )
        )

    summary = benchmark.pedantic(run, rounds=1, iterations=1)

    result = FigureResult(
        "Extension", "BO in the bootstrapping method (LV comp, m=50, w/ hist)"
    )
    for name, stats in summary.items():
        result.rows.append(
            {
                "algorithm": name,
                "normalized": stats["normalized"],
                "recall_top1": float(stats["recall"][0]),
                "cost": stats["cost"],
            }
        )
    emit(result)

    # Bootstrapping never hurts BO, and the bootstrapped arms compete
    # with (or beat) their plain counterparts.
    assert summary["CEAL-BO"]["normalized"] <= summary["BO"]["normalized"] + 0.06
    assert summary["CEAL"]["normalized"] <= summary["AL"]["normalized"] + 0.06
