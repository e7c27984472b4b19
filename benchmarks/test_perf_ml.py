"""Perf smoke test for the vectorized ML kernels (writes BENCH_ml.json).

Times the fast kernels against the pre-vectorization reference kernels
(:mod:`repro.ml._reference`) on the reference surrogate's configuration
(150 depth-4 trees, shrinkage 0.08, row subsampling) and asserts two
floors: **≥3×** on GBT fit and **≥11×** on whole-pool ensemble
prediction.  Both comparisons are apples-to-apples — the same trees,
bit-identical outputs — so the ratio is pure kernel speed.

Results land in ``BENCH_ml.json`` at the repo root (committed, and
uploaded as a CI artifact by the perf-smoke job)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_ml.py -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.ml import PackedEnsemble, _native, _reference as reference
from repro.ml.boosting import GradientBoostedTrees

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_ml.json"

#: Training-set / pool shape: a mid-session surrogate fit (a few
#: thousand measured+bootstrapped rows, encoded workflow configs) and a
#: generously sized candidate pool to score.
N_TRAIN, N_FEATURES = 2000, 12
N_POOL = 20_000

FIT_FLOOR = 3.0
#: Between the walks: on one 2-core x86 container the branchy compiled
#: walk measured 5.9–8.3× (five runs) and the branchless one 15.3–20.9×
#: (six), so a return to the branch fails here.
PREDICT_FLOOR = 11.0


def _surrogate_model() -> GradientBoostedTrees:
    """The reference surrogate's regressor (see ``default_surrogate``)."""
    return GradientBoostedTrees(
        n_estimators=150,
        learning_rate=0.08,
        max_depth=4,
        min_samples_leaf=2,
        reg_lambda=1.0,
        subsample=0.9,
        log_target=True,
        random_state=7,
    )


def _make_data():
    rng = np.random.default_rng(2021)
    X = rng.normal(size=(N_TRAIN, N_FEATURES))
    X[:, 1] = rng.integers(0, 6, size=N_TRAIN)  # discrete knob
    X[:, 4] = np.round(X[:, 4], 1)  # heavy ties
    y = np.exp(
        1.5
        + 0.6 * np.abs(X[:, 0])
        + 0.2 * X[:, 1]
        + 0.1 * rng.normal(size=N_TRAIN)
    )
    pool = rng.normal(size=(N_POOL, N_FEATURES))
    pool[:, 1] = rng.integers(0, 6, size=N_POOL)
    pool[:, 4] = np.round(pool[:, 4], 1)
    return X, y, pool


def _best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_ml_kernel_speedups():
    X, y, pool = _make_data()

    model = _surrogate_model().fit(X, y)  # warm-up (native build, caches)
    fit_new = _best_of(lambda: _surrogate_model().fit(X, y), 3)
    fit_ref = _best_of(
        lambda: reference.reference_boosting_fit(_surrogate_model(), X, y), 3
    )

    # Same node table, or the timing comparison is meaningless.
    ref = reference.reference_boosting_fit(_surrogate_model(), X, y)
    trees, columns, ref_base = ref
    want = PackedEnsemble.pack(
        trees, N_FEATURES, columns=columns, scale=model.learning_rate
    )
    assert ref_base == model._base_score
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        assert np.array_equal(getattr(model._packed, name), getattr(want, name))
    assert model._packed.max_depth == want.max_depth

    predict_new = _best_of(lambda: model.predict(pool), 5)
    predict_ref = _best_of(
        lambda: reference.reference_ensemble_predict(model, ref, pool), 3
    )
    assert np.array_equal(
        model.predict(pool), reference.reference_ensemble_predict(model, ref, pool)
    )

    fit_speedup = fit_ref / fit_new
    predict_speedup = predict_ref / predict_new
    result = {
        "workload": {
            "n_train": N_TRAIN,
            "n_features": N_FEATURES,
            "n_pool": N_POOL,
            "n_estimators": 150,
            "max_depth": 4,
        },
        "native_kernel": _native.available(),
        "gbt_fit": {
            "new_s": round(fit_new, 4),
            "reference_s": round(fit_ref, 4),
            "speedup": round(fit_speedup, 2),
            "floor": FIT_FLOOR,
        },
        "pool_predict": {
            "new_s": round(predict_new, 4),
            "reference_s": round(predict_ref, 4),
            "speedup": round(predict_speedup, 2),
            "floor": PREDICT_FLOOR,
        },
    }
    BENCH_PATH.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print()
    print(
        f"GBT fit      : {fit_ref * 1e3:7.1f}ms -> {fit_new * 1e3:7.1f}ms "
        f"({fit_speedup:.2f}x, floor {FIT_FLOOR}x)"
    )
    print(
        f"pool predict : {predict_ref * 1e3:7.1f}ms -> {predict_new * 1e3:7.1f}ms "
        f"({predict_speedup:.2f}x, floor {PREDICT_FLOOR}x)"
    )

    assert fit_speedup >= FIT_FLOOR, result
    assert predict_speedup >= PREDICT_FLOOR, result
