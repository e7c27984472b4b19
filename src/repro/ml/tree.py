"""Exact greedy regression trees with second-order (XGBoost-style) gain.

A tree is grown on per-sample gradients ``g`` and hessians ``h`` of the
boosting objective.  Leaf weight and split gain follow Chen & Guestrin
(KDD '16):

    w*   = -G / (H + λ)
    gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ

Plain least-squares fitting (for random forests and standalone trees) is
the special case ``g = -y``, ``h = 1``, ``λ = 0`` whose leaf weight is the
mean of ``y``.

Split search is the presorted exact algorithm: each feature is ranked
*once per fit* into integer group ids (ties share an id, ids are
monotone in the feature value), and every node re-derives all features'
sorted orders with one multi-column stable integer sort, scoring every
candidate threshold of every feature with a single prefix-sum scan.
The integer re-sort — rather than partitioning presorted arrays down
the tree — is what keeps the output bit-identical to the historical
per-node-per-feature float argsort (:mod:`repro.ml._reference`): a
stable partition would order ties by the *parent's* sort, while the
original orders them by the node's own row order, and the prefix sums
feeding the gain comparisons are sensitive to that order at the ulp
level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RegressionTree"]

_NO_CHILD = -1


def _feature_group_ids(X: np.ndarray) -> np.ndarray:
    """Per-feature integer ranks: equal values share an id, ids sort like X.

    Computed from one stable argsort per feature (the presort).  A
    node-local stable argsort of a column of the result is bit-identical
    to a stable argsort of the raw feature values, including NaN
    placement: every NaN gets the dtype's largest value (above every
    rank), so NaNs sort last in the node's own row order, as a stable
    float sort leaves them.  NaN never equals NaN, so the split search
    treats each boundary after a NaN id as a change of value.

    Ranks are returned in the smallest dtype that holds them: numpy's
    stable sort on ≤16-bit integers is a short radix sort, an order of
    magnitude faster than on wide keys, and sort order depends only on
    the integer *values*, so the dtype cannot affect any downstream
    result.
    """
    n, d = X.shape
    order0 = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order0, axis=0)
    new_group = np.empty((n, d), dtype=np.int64)
    new_group[0] = 0
    new_group[1:] = xs[1:] != xs[:-1]
    dtype = np.uint16 if n <= np.iinfo(np.uint16).max else np.int32
    gid = np.empty((n, d), dtype=dtype)
    np.put_along_axis(
        gid, order0, np.cumsum(new_group, axis=0).astype(dtype), axis=0
    )
    gid[np.isnan(X)] = np.iinfo(dtype).max
    return gid


@dataclass
class _FitScratch:
    """Per-fit reusable buffers for the split search.

    Tiny-node trees spend comparable time allocating index/count
    arrays as computing gains; these are pure functions of the fit
    shape, so one fit-wide base array (sliced into views per node)
    replaces thousands of per-node allocations.  Nothing here affects
    any computed value — the slices hold exactly the integers the
    per-node ``arange`` calls produced.
    """

    col_idx: np.ndarray
    hl_base: np.ndarray


@dataclass
class RegressionTree:
    """CART regression tree (exact greedy, second-order gain).

    Parameters
    ----------
    max_depth:
        Maximum tree depth; depth 0 is a single leaf.
    min_samples_leaf:
        Minimum rows on each side of a split.
    min_child_weight:
        Minimum hessian mass on each side of a split (XGBoost semantics;
        equals a row count for squared loss).
    reg_lambda:
        L2 regularisation of leaf weights.
    gamma:
        Minimum gain required to keep a split.
    max_features:
        Number of features examined per split (``None`` = all); used for
        random-forest-style column subsampling at the *node* level.
    random_state:
        Seed for feature subsampling.
    """

    max_depth: int = 4
    min_samples_leaf: int = 1
    min_child_weight: float = 1e-6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    max_features: int | None = None
    random_state: int | None = None

    # flat node arrays, filled by fit
    feature: np.ndarray = field(init=False, repr=False, default=None)
    threshold: np.ndarray = field(init=False, repr=False, default=None)
    left: np.ndarray = field(init=False, repr=False, default=None)
    right: np.ndarray = field(init=False, repr=False, default=None)
    value: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("reg_lambda and gamma must be non-negative")

    # -- fitting ------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        group_ids: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Fit a plain least-squares tree (leaves predict means of ``y``)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return self.fit_gradients(
            X, -y, np.ones_like(y), reg_lambda=0.0, group_ids=group_ids
        )

    def fit_gradients(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        reg_lambda: float | None = None,
        group_ids: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Fit to gradient/hessian vectors of a boosting objective.

        ``group_ids`` optionally supplies the per-feature integer ranks
        (:func:`_feature_group_ids`) so a caller fitting many trees on
        row/column subsets of one matrix can presort *once* and pass
        slices.  Any integer matrix whose columns have the same stable
        sort order and the same equality pattern as the corresponding
        columns of ``X`` (NaNs as the dtype's largest value) is valid —
        in particular a row/column slice of the full matrix's ranks,
        un-renumbered, since relabelling ranks monotonically changes
        neither property.
        """
        X = np.asarray(X, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, _ = X.shape
        if g.shape != (n,) or h.shape != (n,):
            raise ValueError("g and h must be 1-D with one entry per row of X")
        if n == 0:
            raise ValueError("cannot fit a tree on zero samples")
        lam = self.reg_lambda if reg_lambda is None else reg_lambda
        if group_ids is None:
            gid = _feature_group_ids(X)
        else:
            gid = np.ascontiguousarray(group_ids)
            if gid.shape != X.shape:
                raise ValueError(
                    f"group_ids shape {gid.shape} does not match X {X.shape}"
                )
        # Squared-error boosting always passes h ≡ 1, making every
        # hessian prefix sum the exact integer sequence 1..m (float64
        # cumsums of ones are exact for any feasible m), so the split
        # search can synthesize them instead of gathering and summing.
        unit_h = bool(np.all(h == 1.0))
        # Per-fit scratch reused by every _best_split call: the column
        # broadcaster, the 1..n-1 count bases (sliced per node — views,
        # no allocation), and a per-node-size memo of the
        # min_samples_leaf mask (it depends only on the node row count).
        scratch = _FitScratch(
            col_idx=np.arange(X.shape[1], dtype=np.int64)[None, :],
            hl_base=np.arange(1, max(n, 2), dtype=np.float64)[:, None],
        )

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        rng = (
            np.random.default_rng(self.random_state)
            if self.max_features is not None
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
            H = float(rows.size) if unit_h else h[rows].sum()
            return -G / (H + lam) if (H + lam) > 0 else 0.0

        def build(rows: np.ndarray, depth: int, node: int) -> None:
            value[node] = leaf_weight(rows)
            if depth >= self.max_depth or rows.size < 2 * self.min_samples_leaf:
                return
            split = self._best_split(X, gid, g, h, rows, lam, rng, unit_h, scratch)
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
        # One errstate switch for the whole fit: _best_split divides by
        # zero-hessian masses on masked-out candidates at every node.
        with np.errstate(divide="ignore", invalid="ignore"):
            build(np.arange(n), 0, root)

        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        return self

    def _best_split(
        self,
        X: np.ndarray,
        gid: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        rows: np.ndarray,
        lam: float,
        rng: np.random.Generator | None,
        unit_h: bool = False,
        scratch: "_FitScratch | None" = None,
    ):
        """Return ``(feature, threshold, left_rows, right_rows)`` or None.

        Scores all candidate features at once: one stable multi-column
        sort of the presorted group ids, one prefix-sum scan, one
        vectorized gain evaluation.  Every intermediate array seen by
        the sums, the per-feature first-maximum, and the sequential
        cross-feature comparison is elementwise identical to the
        historical per-feature loop, so the chosen split (and every
        tie-break) is bit-identical.  ``unit_h`` short-circuits the
        hessian prefix sums to the exact sequence ``1..m`` (the value a
        float64 cumsum of ones produces bit-for-bit).
        """
        n_features = X.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            candidates = rng.choice(n_features, size=self.max_features, replace=False)
            sub = gid[np.ix_(rows, candidates)]
        else:
            candidates = None
            sub = gid[rows]

        m = rows.size
        g_node = g[rows]
        G = g_node.sum()
        H = float(m) if unit_h else h[rows].sum()
        parent_score = G * G / (H + lam)

        if scratch is not None and candidates is None:
            col_idx = scratch.col_idx
        else:
            col_idx = np.arange(sub.shape[1])[None, :]
        order = sub.argsort(axis=0, kind="stable")
        sorted_gid = sub[order, col_idx]
        gs = g_node[order].cumsum(axis=0)
        # Candidate boundary i splits after sorted row i, putting i+1
        # rows left.  The min_samples_leaf bounds select the contiguous
        # index range [lo, hi); boundaries outside it were always
        # masked to -inf, so restricting every array to the slice
        # up-front changes no gain value and no argmax winner (the
        # excluded entries could never be a maximum unless all were
        # -inf, in which case nothing is selected either way).
        lo = self.min_samples_leaf - 1
        hi = m - self.min_samples_leaf
        change = sorted_gid[lo + 1 : hi + 1] != sorted_gid[lo:hi]
        change |= sorted_gid[lo:hi] == np.iinfo(sorted_gid.dtype).max  # NaN
        GL = gs[lo:hi]
        if unit_h:
            HL = (
                scratch.hl_base[lo:hi]
                if scratch is not None
                else np.arange(lo + 1, hi + 1, dtype=np.float64)[:, None]
            )
        else:
            HL = h[rows][order].cumsum(axis=0)[lo:hi]
        GR = G - GL
        HR = H - HL
        # divide/invalid warnings are switched off for the whole fit
        gains = 0.5 * (
            GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score
        )
        # With unit hessians the left/right masses are the exact integer
        # counts 1..m-1, so a min_child_weight of at most 1 can never
        # exclude a candidate inside the slice — the hessian mask terms
        # are identically true there and only the tie mask remains.
        if unit_h and self.min_child_weight <= 1.0:
            ok = change
        else:
            ok = change & (HL >= self.min_child_weight) & (
                H - HL >= self.min_child_weight
            )
        gains[~ok] = -np.inf

        # First maximum per feature (rows not in `change` are -inf, so
        # this matches argmax over the compressed boundary list), then
        # the original sequential strictly-greater scan across features.
        col_arg = gains.argmax(axis=0)
        col_best = gains[col_arg, col_idx[0]]
        best_gain = self.gamma
        best_c = -1
        for c in range(col_best.size):
            if col_best[c] > best_gain:
                best_gain = col_best[c]
                best_c = c
        if best_c < 0:
            return None

        j = int(candidates[best_c]) if candidates is not None else best_c
        boundary = lo + int(col_arg[best_c])
        sorted_rows = rows[order[:, best_c]]
        thr = 0.5 * (X[sorted_rows[boundary], j] + X[sorted_rows[boundary + 1], j])
        left_rows = sorted_rows[: boundary + 1]
        right_rows = sorted_rows[boundary + 1 :]
        return (j, float(thr), left_rows, right_rows)

    # -- prediction ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total nodes in the fitted tree."""
        self._check_fitted()
        return self.feature.size

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (0 for a stump).

        Computed iteratively over the flat node arrays — children are
        always allocated after their parent, so a reverse sweep sees
        every subtree depth before its parent needs it — which keeps
        deep trees free of ``RecursionError``.
        """
        self._check_fitted()
        sub = np.zeros(self.feature.size, dtype=np.int64)
        for node in range(self.feature.size - 1, -1, -1):
            if self.left[node] != _NO_CHILD:
                sub[node] = 1 + max(sub[self.left[node]], sub[self.right[node]])
        return int(sub[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict leaf weights for each row of ``X``."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n = X.shape[0]
        nodes = np.zeros(n, dtype=np.int64)
        active = self.left[nodes] != _NO_CHILD
        while active.any():
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            go_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            nodes[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.left[nodes[idx]] != _NO_CHILD
        return self.value[nodes]

    def _check_fitted(self) -> None:
        if self.feature is None:
            raise RuntimeError("tree is not fitted; call fit() first")
