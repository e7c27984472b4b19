"""BO: Bayesian-optimization tuner (paper §9 future work).

The paper names Bayesian optimisation as an alternative black-box
technique for the bootstrapping method, attractive because it
"naturally consider[s] noise in selecting top configurations".  This
implements batched BO over the candidate pool with a Gaussian-process
surrogate (:mod:`repro.ml.gaussian_process`) and expected-improvement
acquisition, in two flavours:

* plain BO (``bootstrap=False``) — random seed batch, like AL; and
* **CEAL-BO** (``bootstrap=True``) — the bootstrapping method with BO as
  the black-box stage: the seed batch is the low-fidelity model's top
  picks plus ``m0/2`` random configurations, exactly CEAL's phase-2
  opening move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from repro.core.algorithms.base import PlannedBatches
from repro.core.driver import TuningSession
from repro.core.low_fidelity import LowFidelityModel
from repro.ml.gaussian_process import GaussianProcessRegressor

__all__ = ["BayesianOptimization"]


class _GpPoolModel:
    """Adapter: GP over encoded configurations with a ``predict`` API."""

    def __init__(self, encoder, gp: GaussianProcessRegressor):
        self.encoder = encoder
        self.gp = gp

    def fit(self, configs, values):
        self.gp.fit(self.encoder.encode(configs), np.asarray(values))
        return self

    def predict(self, configs):
        if len(configs) == 0:
            return np.empty(0)
        return self.gp.predict(self.encoder.encode(configs))

    def expected_improvement(self, configs, best_observed: float) -> np.ndarray:
        """EI of *improvement below* the incumbent (minimisation)."""
        X = self.encoder.encode(configs)
        mean, std = self.gp.predict_latent(X)
        best = float(self.gp.to_latent(np.array([best_observed]))[0])
        z = (best - mean) / np.maximum(std, 1e-12)
        # scipy.stats.norm's own cdf and pdf formulas, bit for bit, without
        # the scipy.stats import that every process would otherwise pay.
        pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
        return (best - mean) * ndtr(z) + std * pdf


@dataclass
class BayesianOptimization(PlannedBatches):
    """Batched expected-improvement acquisition over the candidate pool.

    Parameters
    ----------
    iterations:
        Acquisition batches after the seed batch.
    initial_fraction:
        Budget share of the seed batch.
    bootstrap:
        Seed with the low-fidelity (component-combined) model's top
        picks instead of pure random — BO slotted into the paper's
        bootstrapping method.  Its component models train on the
        problem's component histories, free of charge; a problem
        without histories is refused.
    """

    iterations: int = 6
    initial_fraction: float = 0.3
    bootstrap: bool = False
    name: str = "BO"

    _component_data = None

    def __post_init__(self) -> None:
        if self.bootstrap:
            self.name = "CEAL-BO"

    def prepare(self, session: TuningSession) -> None:
        if self.bootstrap:
            self._component_data = session.history_data(self.name)
        self.plan_budget(session.budget)
        self._build_models(session)

    def _build_models(self, session: TuningSession) -> None:
        problem = session.problem
        self._low_fidelity = (
            LowFidelityModel(problem.component_models(self._component_data))
            if self.bootstrap
            else None
        )
        self._model = _GpPoolModel(
            problem.workflow.encoder(), GaussianProcessRegressor()
        )

    def seed_batch(self, session: TuningSession, n: int):
        if not self.bootstrap:
            return super().seed_batch(session, n)
        tracker = session.tracker
        n_random = max(1, n // 3)
        batch = super().seed_batch(session, n_random)
        candidates = tracker.remaining
        top = tracker.take_top(
            self._low_fidelity.predict(candidates), candidates, n - n_random
        )
        tracker.mark(top)
        return batch + top

    def guided_batch(self, session: TuningSession, n: int):
        tracker = session.tracker
        session.fit_measured(self._model)
        candidates = tracker.remaining
        if not candidates:
            return []
        best = min(session.collector.measured.values())
        ei = self._model.expected_improvement(candidates, best)
        batch = tracker.take_top(-ei, candidates, n)
        tracker.mark(batch)
        session.annotate(max_ei=float(ei.max()))
        return batch

    def finalize(self, session: TuningSession):
        session.fit_measured(self._model)
        return self._model

    def state_dict(self) -> dict:
        return {
            **super().state_dict(),
            "component_data": self._component_data,
            "m_workflow": self._m_workflow,
            "m_init": self._m_init,
        }

    def load_state(self, state: dict, session: TuningSession) -> None:
        super().load_state(state, session)
        self._component_data = state["component_data"]
        self._m_workflow = state["m_workflow"]
        self._m_init = state["m_init"]
        # The GP refits from scratch on all measured data in every
        # acquisition step, so a fresh instance continues bit-identically.
        self._build_models(session)
