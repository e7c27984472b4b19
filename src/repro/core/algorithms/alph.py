"""ALpH: black-box component-model combination (paper §4).

ALpH shares CEAL's first ingredient — per-component performance models —
but combines them the black-box way: the component predictions
``{v_j}`` become extra *features* of a workflow surrogate
``M'_0 : (c, {v_j}) → v`` trained on actual workflow runs, with active
learning selecting which runs to pay for.  Because the combination
itself must be *learned* from workflow runs instead of being supplied by
the analytical coupling model, ALpH needs more data to exploit the
component knowledge — the deficiency §7.5 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.algorithms.base import PlannedBatches
from repro.core.component_models import ComponentModelSet
from repro.core.driver import TuningSession

__all__ = ["Alph", "ComponentFeatureMap"]


class ComponentFeatureMap:
    """Component-model predictions as surrogate features (§4).

    A class (not a closure) so ALpH can rebuild it on checkpoint resume
    from retrained component models.
    """

    def __init__(self, component_models: ComponentModelSet) -> None:
        self.component_models = component_models

    def __call__(self, configs) -> np.ndarray:
        return self.component_models.predict_components(configs).T


@dataclass
class Alph(PlannedBatches):
    """AL over a surrogate whose features include component predictions.

    Parameters
    ----------
    component_runs_fraction:
        Budget share spent running components when neither free
        histories (with ``use_history``) nor stored warm samples supply
        the Phase-1 data.
    use_history:
        Use the collector's free historical component measurements
        (the §7.5 setting) instead of paying for component runs.
    initial_fraction, iterations:
        As in plain active learning, over the budget left for workflow
        runs.
    """

    component_runs_fraction: float = 0.5
    use_history: bool = True
    initial_fraction: float = 0.3
    iterations: int = 5
    name: str = "ALpH"

    def prepare(self, session: TuningSession) -> None:
        m = session.budget
        batches = min(max(2, round(self.component_runs_fraction * m)), m - 2)
        self._component_data, source = session.component_data(
            self.use_history, batches
        )
        if source == "paid":
            session.annotate(component_batches=batches)
            m -= batches
        self._build_model(session)
        self.plan_budget(m)

    def _build_model(self, session: TuningSession) -> None:
        problem = session.problem
        component_models = problem.component_models(self._component_data)
        self._model = problem.make_surrogate(
            extra_features=ComponentFeatureMap(component_models)
        )

    def guided_batch(self, session: TuningSession, n: int):
        session.fit_measured(self._model)
        batch = session.rank_candidates(self._model, session.tracker.remaining, n)
        session.tracker.mark(batch)
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
        # Retraining the component models and rebuilding the (unfitted)
        # surrogate is deterministic given the restored solo data; the
        # surrogate itself refits on all measured data in every batch.
        self._build_model(session)
