"""Ablation — Didona-style AM/ML ensembles vs CEAL's approach (§8.2).

Trains each combiner on the *same* random training set and evaluates
the models' ability to identify top configurations (recall, top-2 %
MdAPE) on LV computer time.  The paper argues KNN selection and HyBoost
suit in-situ auto-tuning poorly because the analytical model is rough;
the numbers here make that argument concrete.
"""

import numpy as np
import pytest
from conftest import emit

from repro.core.component_models import ComponentModelSet
from repro.core.ensembles import HyBoost, KnnModelSelector, Probing
from repro.core.low_fidelity import LowFidelityModel
from repro.core.metrics import mdape_on_top_fraction, recall_score
from repro.core.objectives import COMPUTER_TIME
from repro.core.surrogate import default_surrogate
from repro.experiments.figures import FigureResult
from repro.insitu.measurement import stable_seed
from repro.workflows import generate_component_history, generate_pool, make_lv


pytestmark = pytest.mark.slow


def test_ablation_ensembles(benchmark, scale):
    workflow = make_lv()
    pool = generate_pool(workflow, scale["pool_size"], seed=scale["seed"])
    truth = pool.objective_values("computer_time")
    data = {
        label: generate_component_history(workflow, label, seed=scale["seed"])
        for label in workflow.labels
    }
    acm = LowFidelityModel(
        ComponentModelSet.train(workflow, COMPUTER_TIME, data, random_state=0)
    )
    encoder = workflow.encoder()

    def run():
        rows = []
        rng = np.random.default_rng(stable_seed("ensembles", scale["seed"]))
        m = 50
        for rep in range(max(3, scale["repeats"])):
            train_idx = rng.choice(len(pool), size=m, replace=False)
            configs = [pool.configs[i] for i in train_idx]
            values = truth[train_idx]
            arms = {
                "GBT (CEAL's M_H)": default_surrogate(encoder, rep),
                "ACM only": acm,
                "KNN-select": KnnModelSelector(
                    acm, default_surrogate(encoder, rep), encoder, seed=rep
                ),
                "HyBoost": HyBoost(acm, default_surrogate(encoder, rep)),
                "Probing": Probing(
                    acm, default_surrogate(encoder, rep), encoder
                ),
            }
            for name, model in arms.items():
                if name != "ACM only":
                    model.fit(configs, values)
                scores = np.asarray(model.predict(list(pool.configs)))
                rows.append(
                    {
                        "arm": name,
                        "recall_top5": recall_score(scores, truth, 5),
                        "mdape_top2": mdape_on_top_fraction(scores, truth, 0.02),
                        "mdape_all": mdape_on_top_fraction(scores, truth, None),
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    result = FigureResult(
        "Ablation", "AM/ML ensemble combiners, 50 random samples (LV comp)"
    )
    by_arm: dict = {}
    for row in rows:
        by_arm.setdefault(row["arm"], []).append(row)
    means = {}
    for arm, arm_rows in by_arm.items():
        means[arm] = {
            k: float(np.mean([r[k] for r in arm_rows]))
            for k in ("recall_top5", "mdape_top2", "mdape_all")
        }
        result.rows.append({"arm": arm, **means[arm]})
    emit(result)

    # Every ensemble is a real model: finite errors, nonzero recall
    # somewhere, and combining helps over the raw ACM on global accuracy.
    assert all(np.isfinite(m["mdape_all"]) for m in means.values())
    assert means["HyBoost"]["mdape_all"] <= means["ACM only"]["mdape_all"] * 1.2
