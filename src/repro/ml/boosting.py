"""Newton gradient boosting over regression trees.

A faithful stand-in for ``xgboost.XGBRegressor`` with squared-error
objective: each round fits a :class:`~repro.ml.tree.RegressionTree` to the
current gradients/hessians, shrunk by the learning rate, with optional row
and column subsampling.

Performance targets (execution/computer time) are positive and span
orders of magnitude across a configuration space, so the regressor
supports an optional ``log_target`` transform — fitting ``log(y)`` and
exponentiating predictions — which substantially improves relative-error
metrics such as MdAPE.

All rounds grow in one compiled call (:func:`repro.ml._native.boosting_fit`)
when a C compiler is available, else in the numpy loop
:meth:`GradientBoostedTrees._fit_rounds` (presorted exact greedy search);
the two write bit-identical node tables.  A fitted model keeps only that
table, a :class:`~repro.ml.packed.PackedEnsemble`, so prediction is one
traversal instead of a Python loop over trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.ml import _native
from repro.ml.packed import PackedEnsemble
from repro.ml.tree import RegressionTree, _feature_group_ids

__all__ = ["GradientBoostedTrees"]


@dataclass
class GradientBoostedTrees:
    """Boosted regression trees with squared-error objective.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth, min_samples_leaf, min_child_weight, reg_lambda, gamma:
        Passed through to each round's tree.
    subsample:
        Row-sampling fraction per round (without replacement).
    colsample:
        Column-sampling fraction per round.
    log_target:
        Fit ``log(y)`` instead of ``y`` (requires strictly positive
        targets); predictions are transformed back.
    random_state:
        Seed for subsampling.
    """

    n_estimators: int = 120
    learning_rate: float = 0.1
    max_depth: int = 4
    min_samples_leaf: int = 1
    min_child_weight: float = 1e-6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    subsample: float = 1.0
    colsample: float = 1.0
    log_target: bool = False
    random_state: int | None = None

    _base_score: float = field(init=False, repr=False, default=0.0)
    _n_features: int = field(init=False, repr=False, default=0)
    _packed: PackedEnsemble | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if not 0 < self.colsample <= 1:
            raise ValueError("colsample must be in (0, 1]")

    def __setstate__(self, state: dict) -> None:
        """Unpickle, packing blobs written with per-tree state.

        Older pickles carry ``_trees``/``_tree_columns`` (and, older
        still, no ``_packed``).  Packing is a pure layout change, so the
        loaded model predicts bit-identically to one fitted today.
        """
        trees = state.pop("_trees", None)
        columns = state.pop("_tree_columns", None)
        if state.get("_packed") is None and trees:
            state["_packed"] = PackedEnsemble.pack(
                trees,
                n_features=state["_n_features"],
                columns=columns,
                scale=state["learning_rate"],
            )
        self.__dict__.update(state)

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`predict` is ready — keyed, like it, on ``_packed``."""
        return self._packed is not None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        """Fit the ensemble to ``(X, y)``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, d = X.shape
        if y.shape != (n,):
            raise ValueError("y must be 1-D with one entry per row of X")
        if n == 0:
            raise ValueError("cannot fit on zero samples")
        if not np.all(np.isfinite(y)):
            raise ValueError("targets must be finite (no NaN or inf)")
        if self.log_target:
            if np.any(y <= 0):
                raise ValueError("log_target requires strictly positive targets")
            target = np.log(y)
        else:
            target = y
        self._new_tree()  # validates the per-round tree parameters

        with telemetry.get().span(
            "ml.fit.boosting",
            category="fit",
            samples=n,
            rounds=self.n_estimators,
        ):
            base_score = float(target.mean())
            # Presort once per fit; every round's tree sorts integer
            # rank slices instead of re-ranking float columns.
            gid = _feature_group_ids(X)
            rows, cols = self._subsamples(n, d)
            args = (X, target, base_score, gid, rows, cols)
            packed = _native.boosting_fit(self, *args)
            if packed is None:
                packed = self._fit_rounds(*args)
            self._packed = packed
            self._base_score = base_score
            self._n_features = d
        return self

    def _new_tree(self) -> RegressionTree:
        return RegressionTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )

    def _subsamples(self, n: int, d: int):
        """Every round's row and column draws, in the fit's RNG order.

        ``rows`` is ``(n_estimators, n_rows)`` and ``cols`` is
        ``(n_estimators, n_cols)`` (sorted per round); either is
        ``None`` when its fraction keeps every index.  The per-round
        ``rng.choice`` loop is the fallback of
        :func:`repro.ml._native.choice_rows` and its oracle.
        """
        rng = np.random.default_rng(self.random_state)
        n_rows = max(1, int(round(self.subsample * n)))
        n_cols = max(1, int(round(self.colsample * d)))
        if n_rows < n and n_cols == d:
            # Rows only, so the draws follow each other: one compiled
            # call makes them all, when it can.
            rows = _native.choice_rows(rng, n, n_rows, self.n_estimators)
            if rows is not None:
                return rows, None
        rows = np.empty((self.n_estimators, n_rows), np.int64) if n_rows < n else None
        cols = np.empty((self.n_estimators, n_cols), np.int64) if n_cols < d else None
        for t in range(self.n_estimators):
            if rows is not None:
                rows[t] = rng.choice(n, size=n_rows, replace=False)
            if cols is not None:
                cols[t] = np.sort(rng.choice(d, size=n_cols, replace=False))
        return rows, cols

    def _fit_rounds(
        self,
        X: np.ndarray,
        target: np.ndarray,
        base_score: float,
        gid: np.ndarray,
        rows: np.ndarray | None,
        cols: np.ndarray | None,
    ) -> PackedEnsemble:
        """The numpy boosting loop: the fallback without a compiler, and
        the oracle of :func:`repro.ml._native.boosting_fit`."""
        n, d = X.shape
        pred = np.full(n, base_score)
        # The hessian of ½(pred − t)² is one for every row of every round.
        hess = np.ones(n)
        trees = []
        for t in range(self.n_estimators):
            grad = pred - target  # d/dpred ½(pred − t)²
            r = None if rows is None else rows[t]
            c = None if cols is None else cols[t]
            tree = self._new_tree()
            if r is None and c is None:
                tree.fit_gradients(X, grad, hess, group_ids=gid)
            elif c is None:
                # Row subsampling only: plain row gathers pick the same
                # elements as the np.ix_ outer product.
                tree.fit_gradients(X[r], grad[r], hess[r], group_ids=gid[r])
            else:
                r = np.arange(n) if r is None else r
                tree.fit_gradients(
                    X[np.ix_(r, c)],
                    grad[r],
                    hess[r],
                    group_ids=gid[np.ix_(r, c)],
                )
            update = tree.predict(X if c is None else X[:, c])
            pred = pred + self.learning_rate * update
            trees.append(tree)
        return PackedEnsemble.pack(
            trees, n_features=d, columns=cols, scale=self.learning_rate
        )

    def _check_fitted(self) -> PackedEnsemble:
        if self._packed is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self._packed

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for each row of ``X``."""
        packed = self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self._n_features}"
            )
        tel = telemetry.get()
        with tel.span(
            "ml.predict",
            category="predict",
            model="boosting",
            rows=X.shape[0],
            trees=packed.n_trees,
        ):
            pred = packed.predict(X, base_score=self._base_score)
            if self.log_target:
                return np.exp(pred)
            return pred

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Packed leaf assignment per ``(row, tree)`` (for caching layers)."""
        return self._check_fitted().leaf_indices(np.asarray(X, dtype=np.float64))

    def clone(self) -> "GradientBoostedTrees":
        """Return an unfitted copy with identical hyper-parameters."""
        return GradientBoostedTrees(
            n_estimators=self.n_estimators,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            subsample=self.subsample,
            colsample=self.colsample,
            log_target=self.log_target,
            random_state=self.random_state,
        )
