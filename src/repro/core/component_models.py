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
from repro.config.table import ConfigRows, ConfigTable
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

    def predict(self, values: np.ndarray) -> np.ndarray:
        """Predictions for the rows of a component value matrix."""
        if self.constant is not None:
            return np.full(len(values), self.constant)
        return self.regressor.predict(self.encoder.encode_values(values))


@dataclass
class ComponentModelSet:
    """Trained models ``M_j^cpnt`` for every component of a workflow.

    Build with :meth:`train`; query through
    :meth:`predict_components`, which reads each component's columns of
    joint workflow configurations and returns an
    ``(n_components, n_configs)`` prediction matrix ready for the
    analytical coupling model.
    """

    workflow: WorkflowDefinition
    objective: Objective
    models: dict = field(default_factory=dict)
    #: The problem's pool table, whose rows the models score: plain
    #: sequences of its configurations are read as its rows, and its
    #: predictions are held here (so they go with the session).
    pool: ConfigTable | None = field(default=None, repr=False)
    #: per-label predictions of every distinct component row of
    #: ``pool``, made on first use.  Models are immutable once trained
    #: and every prediction is per-row independent (encoding, tree
    #: traversal, exp are all elementwise), so gathered values are
    #: bit-identical to a fresh batched predict.
    _held: dict = field(init=False, repr=False, default_factory=dict)

    @classmethod
    def train(
        cls,
        workflow: WorkflowDefinition,
        objective: Objective,
        component_data: dict[str, ComponentHistory],
        random_state: int | None = None,
        registry=None,
        pool: ConfigTable | None = None,
    ) -> "ComponentModelSet":
        """Train per-component models from solo measurements.

        Components absent from ``component_data`` (the unconfigurable
        ones) are modelled as constants via one closed-form solo run.
        When a :class:`~repro.store.registry.ModelRegistry` is given,
        fitted regressors are cached by a hash of their exact training
        inputs; fits are deterministic, so a registry hit returns the
        same model a refit would.  ``pool`` is the table the set scores
        (:attr:`pool`).
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
        return cls(workflow=workflow, objective=objective, models=models, pool=pool)

    def _rows(self, configs: Sequence[Configuration]) -> ConfigRows:
        """``configs`` as rows of a table: a view as it is, a sequence of
        pool configurations as pool rows, anything else as a one-off
        table."""
        if isinstance(configs, ConfigRows):
            return configs
        if self.pool is not None:
            rows = self.pool.rows_of(configs)
            if rows is not None:
                return self.pool.view(rows)
        return ConfigTable.of(configs).view()

    def predict_components(
        self, configs: Sequence[Configuration]
    ) -> np.ndarray:
        """Per-component predictions for joint configurations.

        Returns an ``(n_components, n_configs)`` matrix ordered like
        ``workflow.labels``.

        Each model predicts every distinct component row of the
        configurations' table once (the distinct rows are memoised on
        the table) and the rows asked for are gathered from that; for
        the pool table the predictions are held, so every later call is
        a gather.  ``pool_cache.misses`` counts the distinct rows
        predicted, ``pool_cache.hits`` the rows answered from held
        predictions.
        """
        labels = self.workflow.labels
        if len(configs) == 0:
            return np.empty((len(labels), 0))
        view = self._rows(configs)
        table = view.table
        held = self._held if table is self.pool else {}
        out = np.empty((len(labels), len(view)))
        hits = misses = 0
        for k, label in enumerate(labels):
            distinct, inverse = table.distinct(self.workflow.component_slice(label))
            preds = held.get(label)
            if preds is None:
                preds = held[label] = self.models[label].predict(distinct)
                misses += len(distinct)
            else:
                hits += len(view)
            out[k] = preds[inverse[view.rows]]
        tel = telemetry.get()
        tel.counter("pool_cache.hits").inc(hits)
        tel.counter("pool_cache.misses").inc(misses)
        return out
