"""Reference (pre-vectorization) ML kernels, kept as the equivalence oracle.

These are verbatim copies of the original kernels that the fast layer
replaced: per-node per-feature argsort tree growth, the per-round
boosting loop over it, and Python loops over trees for ensemble/forest
prediction.  They define the bit-exact behaviour the kernels in
:mod:`repro.ml.tree`, :mod:`repro.ml.boosting`, :mod:`repro.ml.packed`
and :mod:`repro.ml._native` must reproduce — ``tests/test_ml_kernels.py``
compares old vs new across random shapes, and
``benchmarks/test_perf_ml.py`` times old vs new for ``BENCH_ml.json``.

Not part of the public API; nothing outside tests/benchmarks should
import this module.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import RegressionTree

__all__ = [
    "reference_boosting_fit",
    "reference_fit_gradients",
    "reference_tree_predict",
    "reference_ensemble_predict",
    "reference_forest_predict",
]

_NO_CHILD = -1


def reference_fit_gradients(
    tree, X: np.ndarray, g: np.ndarray, h: np.ndarray, lam: float
) -> None:
    """The original ``RegressionTree.fit_gradients`` node loop.

    Fills ``tree``'s flat node arrays in place.  ``tree`` supplies the
    hyper-parameters (``max_depth``, ``min_samples_leaf``,
    ``min_child_weight``, ``gamma``, ``max_features``, ``random_state``).
    """
    n, _ = X.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    rng = (
        np.random.default_rng(tree.random_state)
        if tree.max_features is not None
        else None
    )

    def new_node() -> int:
        feature.append(_NO_CHILD)
        threshold.append(np.nan)
        left.append(_NO_CHILD)
        right.append(_NO_CHILD)
        value.append(0.0)
        return len(feature) - 1

    def leaf_weight(rows: np.ndarray) -> float:
        G = g[rows].sum()
        H = h[rows].sum()
        return -G / (H + lam) if (H + lam) > 0 else 0.0

    def build(rows: np.ndarray, depth: int, node: int) -> None:
        value[node] = leaf_weight(rows)
        if depth >= tree.max_depth or rows.size < 2 * tree.min_samples_leaf:
            return
        split = _reference_best_split(tree, X, g, h, rows, lam, rng)
        if split is None:
            return
        j, thr, left_rows, right_rows = split
        feature[node] = j
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        build(left_rows, depth + 1, left_id)
        build(right_rows, depth + 1, right_id)

    root = new_node()
    build(np.arange(n), 0, root)

    tree.feature = np.asarray(feature, dtype=np.int64)
    tree.threshold = np.asarray(threshold, dtype=np.float64)
    tree.left = np.asarray(left, dtype=np.int64)
    tree.right = np.asarray(right, dtype=np.int64)
    tree.value = np.asarray(value, dtype=np.float64)


def _reference_best_split(tree, X, g, h, rows, lam, rng):
    """Per-feature argsort split search (the original ``_best_split``)."""
    n_features = X.shape[1]
    if tree.max_features is not None and tree.max_features < n_features:
        candidates = rng.choice(n_features, size=tree.max_features, replace=False)
    else:
        candidates = np.arange(n_features)

    G = g[rows].sum()
    H = h[rows].sum()
    parent_score = G * G / (H + lam)
    best_gain = tree.gamma
    best: tuple | None = None
    min_leaf = tree.min_samples_leaf

    for j in candidates:
        xj = X[rows, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        change = np.nonzero(xs[1:] != xs[:-1])[0]  # split after index i
        if change.size == 0:
            continue
        gs = np.cumsum(g[rows][order])
        hs = np.cumsum(h[rows][order])
        n_left = change + 1
        n_right = rows.size - n_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        GL = gs[change]
        HL = hs[change]
        ok &= (HL >= tree.min_child_weight) & (
            H - HL >= tree.min_child_weight
        )
        if not ok.any():
            continue
        GR = G - GL
        HR = H - HL
        gains = 0.5 * (
            GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score
        )
        gains = np.where(ok, gains, -np.inf)
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = gains[k]
            boundary = change[k]
            thr = 0.5 * (xs[boundary] + xs[boundary + 1])
            left_rows = rows[order[: boundary + 1]]
            right_rows = rows[order[boundary + 1 :]]
            best = (int(j), float(thr), left_rows, right_rows)
    return best


def reference_tree_predict(tree, X: np.ndarray) -> np.ndarray:
    """Per-tree frontier walk (the original ``RegressionTree.predict``)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    nodes = np.zeros(n, dtype=np.int64)
    active = tree.left[nodes] != _NO_CHILD
    while active.any():
        idx = np.nonzero(active)[0]
        cur = nodes[idx]
        go_left = X[idx, tree.feature[cur]] <= tree.threshold[cur]
        nodes[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
        active[idx] = tree.left[nodes[idx]] != _NO_CHILD
    return tree.value[nodes]


def reference_boosting_fit(model, X: np.ndarray, y: np.ndarray):
    """The original boosting loop over :func:`reference_fit_gradients`.

    ``model`` (a :class:`~repro.ml.boosting.GradientBoostedTrees`)
    supplies the hyper-parameters; its RNG is stepped exactly as the
    fast path steps it (each round draws rows, then columns).  Returns
    ``(trees, columns, base_score)``: every round's tree, the round's
    column map, and the initial prediction.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    target = np.log(y) if model.log_target else y
    n, d = X.shape
    rng = np.random.default_rng(model.random_state)
    base = float(target.mean())
    pred = np.full(n, base)
    n_rows = max(1, int(round(model.subsample * n)))
    n_cols = max(1, int(round(model.colsample * d)))
    trees = []
    columns = []
    for _ in range(model.n_estimators):
        grad = pred - target
        hess = np.ones(n)
        rows = (
            rng.choice(n, size=n_rows, replace=False)
            if n_rows < n
            else np.arange(n)
        )
        cols = (
            np.sort(rng.choice(d, size=n_cols, replace=False))
            if n_cols < d
            else np.arange(d)
        )
        tree = RegressionTree(
            max_depth=model.max_depth,
            min_samples_leaf=model.min_samples_leaf,
            min_child_weight=model.min_child_weight,
            reg_lambda=model.reg_lambda,
            gamma=model.gamma,
        )
        reference_fit_gradients(
            tree, X[np.ix_(rows, cols)], grad[rows], hess[rows], model.reg_lambda
        )
        update = reference_tree_predict(tree, X[:, cols])
        pred = pred + model.learning_rate * update
        trees.append(tree)
        columns.append(cols)
    return trees, columns, base


def reference_ensemble_predict(model, fitted, X: np.ndarray) -> np.ndarray:
    """Tree-at-a-time boosted prediction (the original ``predict`` loop).

    ``fitted`` is the ``(trees, columns, base_score)`` triple of
    :func:`reference_boosting_fit`; ``model`` supplies the learning rate
    and the target transform.
    """
    trees, columns, base = fitted
    X = np.asarray(X, dtype=np.float64)
    pred = np.full(X.shape[0], base)
    for tree, cols in zip(trees, columns):
        pred = pred + model.learning_rate * reference_tree_predict(
            tree, X[:, cols]
        )
    if model.log_target:
        return np.exp(pred)
    return pred


def reference_forest_predict(model, X: np.ndarray) -> np.ndarray:
    """Tree-at-a-time forest prediction (the original ``predict`` loop)."""
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros(X.shape[0])
    for tree in model._trees:
        total += reference_tree_predict(tree, X)
    return total / len(model._trees)
