"""Per-component performance models (paper §4, Alg. 1 lines 1–5).

Each configurable component gets one boosted-tree model per objective,
trained on its solo measurements (budgeted runs and/or free history).
Unconfigurable components (single-configuration spaces, e.g. the GP
plotters) get constant predictors from one solo run — the paper's
observation that G-Plot contributes a fixed ≈97 s to every GP
configuration flows straight through the ``max`` combination.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.config.encoding import ConfigEncoder
from repro.config.space import Configuration
from repro.core.objectives import Objective
from repro.insitu.measurement import objective_field
from repro.insitu.workflow import WorkflowDefinition
from repro.ml.boosting import GradientBoostedTrees
from repro.workflows.pools import ComponentHistory

__all__ = ["ComponentModelSet"]


def _component_regressor(random_state: int | None) -> GradientBoostedTrees:
    """Reference component-model regressor (small spaces, few samples)."""
    return GradientBoostedTrees(
        n_estimators=120,
        learning_rate=0.08,
        max_depth=4,
        min_samples_leaf=2,
        subsample=0.9,
        log_target=True,
        random_state=random_state,
    )


@dataclass
class _ComponentModel:
    """Model of one component for one objective."""

    label: str
    encoder: ConfigEncoder | None  # None for constant predictors
    regressor: GradientBoostedTrees | None
    constant: float | None

    def predict(self, comp_configs: Sequence[Configuration]) -> np.ndarray:
        if self.constant is not None:
            return np.full(len(comp_configs), self.constant)
        return self.regressor.predict(self.encoder.encode(comp_configs))


@dataclass
class ComponentModelSet:
    """Trained models ``M_j^cpnt`` for every component of a workflow.

    Build with :meth:`train`; query through
    :meth:`predict_components`, which extracts each component's
    sub-configuration from joint workflow configurations and returns an
    ``(n_components, n_configs)`` prediction matrix ready for the
    analytical coupling model.
    """

    workflow: WorkflowDefinition
    objective: Objective
    models: dict = field(default_factory=dict)
    #: per-label ``{component_config: predicted_value}`` caches.  Models
    #: are immutable once trained and every prediction is per-row
    #: independent (encoding, tree traversal, exp are all elementwise),
    #: so cached values are bit-identical to a fresh batched predict and
    #: the cache never needs invalidation.
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    @classmethod
    def train(
        cls,
        workflow: WorkflowDefinition,
        objective: Objective,
        component_data: dict[str, ComponentHistory],
        random_state: int | None = None,
        registry=None,
    ) -> "ComponentModelSet":
        """Train per-component models from solo measurements.

        Components absent from ``component_data`` (the unconfigurable
        ones) are modelled as constants via one closed-form solo run.
        When a :class:`~repro.store.registry.ModelRegistry` is given,
        fitted regressors are cached by a hash of their exact training
        inputs; fits are deterministic, so a registry hit returns the
        same model a refit would.
        """
        models: dict = {}
        for label in workflow.labels:
            app = workflow.app(label)
            if label in component_data and app.space.size() > 1:
                data = component_data[label]
                if len(data.configs) < 2:
                    raise ValueError(
                        f"component {label!r} needs at least 2 solo samples"
                    )
                encoder = ConfigEncoder(app.space)
                X = encoder.encode(data.configs)
                y = data.objective_values(objective.name)

                def fit(X=X, y=y):
                    regressor = _component_regressor(random_state)
                    regressor.fit(X, y)
                    return regressor

                if registry is not None:
                    from repro.store.registry import training_key

                    template = _component_regressor(random_state)
                    key = training_key(
                        "component-gbt",
                        label,
                        objective.name,
                        X,
                        y,
                        repr(template),
                    )
                    regressor = registry.fit_or_load(
                        key, fit, kind="component-gbt"
                    )
                else:
                    regressor = fit()
                models[label] = _ComponentModel(label, encoder, regressor, None)
            else:
                # Constant predictor from the single/default configuration.
                if app.space.size() == 1:
                    only = next(app.space.enumerate())
                else:
                    raise ValueError(
                        f"no solo data for configurable component {label!r}"
                    )
                solo = workflow.solo_run(label, only)
                value = getattr(solo, objective_field(objective.name))
                models[label] = _ComponentModel(label, None, None, value)
        return cls(workflow=workflow, objective=objective, models=models)

    def predict_components(
        self, configs: Sequence[Configuration]
    ) -> np.ndarray:
        """Per-component predictions for joint configurations.

        Returns an ``(n_components, n_configs)`` matrix ordered like
        ``workflow.labels``.

        Sub-configuration predictions are cached per component — every
        AL iteration rescores the same immutable candidate pool, and
        many joint configurations collapse to the same component
        sub-configuration — so steady-state scoring is dictionary
        lookups.  Cache hits/misses are counted on the ``pool_cache.*``
        telemetry counters.
        """
        if len(configs) == 0:
            return np.empty((len(self.workflow.labels), 0))
        tel = telemetry.get()
        hits = misses = 0
        rows = []
        for label in self.workflow.labels:
            cache = self._cache.setdefault(label, {})
            comp_configs = [
                self.workflow.component_config(label, c) for c in configs
            ]
            missing = [
                cc for cc in dict.fromkeys(comp_configs) if cc not in cache
            ]
            if missing:
                preds = self.models[label].predict(missing)
                for cc, p in zip(missing, preds):
                    cache[cc] = float(p)
            misses += len(missing)
            hits += len(comp_configs) - len(missing)
            rows.append(
                np.array([cache[cc] for cc in comp_configs], dtype=np.float64)
            )
        tel.counter("pool_cache.hits").inc(hits)
        tel.counter("pool_cache.misses").inc(misses)
        return np.vstack(rows)
