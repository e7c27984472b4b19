"""High-fidelity surrogate: encoder + boosted-tree regressor.

Wraps a :class:`~repro.ml.GradientBoostedTrees` behind configuration
in/out, so algorithms deal in configurations while the regressor deals
in feature matrices.  This is the paper's ``xgboost.XGBRegressor``
surrogate (§7.3) in our from-scratch implementation, defaulting to a
log-target transform because both objectives are positive and heavy
tailed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.config.encoding import ConfigEncoder
from repro.config.space import Configuration
from repro.ml.boosting import GradientBoostedTrees

__all__ = ["SurrogateModel", "default_surrogate"]


@dataclass
class SurrogateModel:
    """A trainable configuration → objective-value model.

    ``extra_features`` lets ALpH append component-model predictions to
    the encoded configuration (its black-box combination, §4); it maps a
    list of configurations to an ``(n, k)`` matrix appended to the
    encoding.
    """

    encoder: ConfigEncoder
    regressor: GradientBoostedTrees
    extra_features: object | None = None
    #: Optional fitted-model registry (``fit_or_load`` contract).  A
    #: registry load is a deterministic refit-equivalent, so attaching
    #: one never changes predictions — it only skips wall-clock.  Not
    #: pickled: registries hold process-local caches/store handles.
    registry: object | None = None

    _fitted: bool = field(init=False, default=False)

    def _features(self, configs: Sequence[Configuration]) -> np.ndarray:
        X = self.encoder.encode(configs)
        if self.extra_features is not None:
            extra = np.asarray(self.extra_features(configs), dtype=np.float64)
            if extra.ndim == 1:
                extra = extra[:, None]
            if extra.shape[0] != X.shape[0]:
                raise ValueError("extra feature rows must match config count")
            X = np.hstack([X, extra])
        return X

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def fit(
        self, configs: Sequence[Configuration], values: np.ndarray
    ) -> "SurrogateModel":
        """Train (from scratch) on measured configurations."""
        values = np.asarray(values, dtype=np.float64)
        if len(configs) != values.size:
            raise ValueError("configs and values must align")
        if len(configs) == 0:
            raise ValueError("cannot fit a surrogate on zero samples")
        X = self._features(configs)
        template = self.regressor.clone()

        def _fit():
            template.fit(X, values)
            return template

        if self.registry is not None:
            from repro.store.registry import training_key

            key = training_key("surrogate", "", "", X, values, repr(template))
            self.regressor = self.registry.fit_or_load(key, _fit, kind="surrogate")
        else:
            self.regressor = _fit()
        self._fitted = True
        return self

    def predict(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Predict objective values (lower = better)."""
        if not self._fitted:
            raise RuntimeError("surrogate is not fitted")
        if len(configs) == 0:
            return np.empty(0)
        return self.regressor.predict(self._features(configs))

    def clone(self) -> "SurrogateModel":
        """Unfitted copy with the same encoder and hyper-parameters."""
        return SurrogateModel(
            encoder=self.encoder,
            regressor=self.regressor.clone(),
            extra_features=self.extra_features,
            registry=self.registry,
        )

    def __getstate__(self) -> dict:
        """Pickle without the registry (process-local, not state)."""
        state = dict(self.__dict__)
        state["registry"] = None
        return state


def default_surrogate(
    encoder: ConfigEncoder,
    random_state: int | None = None,
    extra_features: object | None = None,
    registry: object | None = None,
) -> SurrogateModel:
    """The reference surrogate: 150 depth-4 trees, shrinkage 0.08, log target."""
    return SurrogateModel(
        encoder=encoder,
        regressor=GradientBoostedTrees(
            n_estimators=150,
            learning_rate=0.08,
            max_depth=4,
            min_samples_leaf=2,
            reg_lambda=1.0,
            subsample=0.9,
            log_target=True,
            random_state=random_state,
        ),
        extra_features=extra_features,
        registry=registry,
    )
