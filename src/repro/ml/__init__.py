"""From-scratch tree-ensemble regression (the paper's ML substrate).

The paper trains ``xgboost.XGBRegressor`` surrogates; xgboost is not
available offline, so this package reimplements the relevant model class:

* :class:`~repro.ml.tree.RegressionTree` — exact greedy CART with
  XGBoost-style second-order gain and L2 leaf regularisation,
* :class:`~repro.ml.boosting.GradientBoostedTrees` — Newton boosting with
  shrinkage, row/column subsampling, and optional log-target transform,
* :class:`~repro.ml.forest.RandomForestRegressor` — bagged trees, used by
  ablations, and
* :mod:`~repro.ml.metrics` — APE/MdAPE and ranking metrics from §7.2/§7.4.

The regime that matters here is tens of training samples over ~10
features, where boosted trees beat neural networks (paper §2.2); the
implementations are vectorised with numpy so scoring 2000-configuration
pools stays fast.
"""

from repro.ml.boosting import GradientBoostedTrees
from repro.ml.forest import RandomForestRegressor
from repro.ml.gaussian_process import GaussianProcessRegressor
from repro.ml.packed import PackedEnsemble
from repro.ml.metrics import (
    absolute_percentage_errors,
    mdape,
    rmse,
    top_n_overlap,
)
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.tree import RegressionTree

__all__ = [
    "GaussianProcessRegressor",
    "GradientBoostedTrees",
    "KNeighborsRegressor",
    "PackedEnsemble",
    "RandomForestRegressor",
    "RegressionTree",
    "absolute_percentage_errors",
    "mdape",
    "rmse",
    "top_n_overlap",
]
