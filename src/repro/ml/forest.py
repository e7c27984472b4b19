"""Bagged regression trees (random forest).

The paper names random forests alongside boosted trees as the model class
suited to small training budgets (§2.2).  CEAL's reference configuration
uses boosting, but the forest is exercised by the model-choice ablation
benchmarks and is part of the public ML API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.ml.packed import PackedEnsemble
from repro.ml.tree import RegressionTree

__all__ = ["RandomForestRegressor"]


@dataclass
class RandomForestRegressor:
    """Bootstrap-aggregated regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth:
        Depth cap per tree (forests like deeper trees than boosting).
    min_samples_leaf:
        Minimum rows per leaf.
    max_features:
        Features examined per split; ``None`` uses ``ceil(d / 3)``, the
        standard regression-forest default.
    random_state:
        Seed for bootstrap and feature subsampling.
    """

    n_estimators: int = 100
    max_depth: int = 10
    min_samples_leaf: int = 1
    max_features: int | None = None
    random_state: int | None = None

    _trees: list = field(init=False, repr=False, default_factory=list)
    _n_features: int = field(init=False, repr=False, default=0)
    _packed: PackedEnsemble | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit the forest to ``(X, y)``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, d = X.shape
        if y.shape != (n,):
            raise ValueError("y must be 1-D with one entry per row of X")
        if n == 0:
            raise ValueError("cannot fit on zero samples")

        rng = np.random.default_rng(self.random_state)
        max_features = (
            self.max_features
            if self.max_features is not None
            else max(1, int(np.ceil(d / 3)))
        )
        self._trees = []
        self._n_features = d
        with telemetry.get().span(
            "ml.fit.forest", category="fit", samples=n, trees=self.n_estimators
        ):
            for _ in range(self.n_estimators):
                rows = rng.integers(0, n, size=n)  # bootstrap with replacement
                tree = RegressionTree(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    reg_lambda=0.0,
                    max_features=min(max_features, d),
                    random_state=int(rng.integers(2**31 - 1)),
                )
                tree.fit(X[rows], y[rows])
                self._trees.append(tree)
            self._packed = PackedEnsemble.pack(self._trees, n_features=d)
        return self

    def _ensure_packed(self) -> PackedEnsemble:
        """The packed form, rebuilt on demand (e.g. after unpickling old blobs)."""
        packed = getattr(self, "_packed", None)
        if packed is None:
            packed = PackedEnsemble.pack(self._trees, n_features=self._n_features)
            self._packed = packed
        return packed

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict the per-tree mean for each row of ``X``."""
        if not self._trees:
            raise RuntimeError("model is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self._n_features}"
            )
        with telemetry.get().span(
            "ml.predict",
            category="predict",
            model="forest",
            rows=X.shape[0],
            trees=len(self._trees),
        ):
            # Unscaled leaf values summed in tree order then divided once —
            # the same float operations as the historical per-tree loop.
            total = self._ensure_packed().predict(X)
            return total / len(self._trees)
