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

from repro.core.algorithms.base import SearchStrategy, TuningAlgorithm
from repro.core.component_models import ComponentModelSet
from repro.core.driver import TuningSession

__all__ = ["Alph", "AlphStrategy", "ComponentFeatureMap"]


class ComponentFeatureMap:
    """Component-model predictions as surrogate features (§4).

    A class (not a closure) so strategies can rebuild it on
    checkpoint resume from retrained component models.
    """

    def __init__(self, component_models: ComponentModelSet) -> None:
        self.component_models = component_models

    def __call__(self, configs) -> np.ndarray:
        return self.component_models.predict_components(configs).T


class AlphStrategy(SearchStrategy):
    """AL over a surrogate whose features include component predictions."""

    name = "ALpH"

    def __init__(
        self,
        component_runs_fraction: float,
        use_history: bool,
        initial_fraction: float,
        iterations: int,
    ) -> None:
        self.component_runs_fraction = component_runs_fraction
        self.use_history = use_history
        self.initial_fraction = initial_fraction
        self.iterations = iterations
        self._cycle = 0
        self._plan: list[int] | None = None

    def prepare(self, session: TuningSession) -> None:
        problem = session.problem
        m = session.budget
        warm = None
        if problem.warm_start in ("components", "full") and not (
            self.use_history and problem.collector.histories
        ):
            from repro.store.warmstart import component_warm_data

            warm = component_warm_data(problem)
        if self.use_history and problem.collector.histories:
            self._component_data = problem.collector.free_component_history()
            self._m_workflow = m
        elif warm is not None:
            # Stored solo runs replace the paid component batches; the
            # whole budget stays available for workflow runs.
            self._component_data = warm
            self._m_workflow = m
            session.annotate(
                warm_components=sum(len(d.configs) for d in warm.values())
            )
        else:
            n_batches = min(
                max(2, round(self.component_runs_fraction * m)), m - 2
            )
            self._component_data = problem.collector.measure_components(
                n_batches, problem.rng
            )
            self._m_workflow = m - n_batches
            session.annotate(component_batches=n_batches)
        self._build_model(session)
        self._m_init = min(
            max(2, round(self.initial_fraction * self._m_workflow)),
            self._m_workflow - 1,
        )

    def _build_model(self, session: TuningSession) -> None:
        problem = session.problem
        component_models = problem.component_models(self._component_data)
        self._model = problem.make_surrogate(
            extra_features=ComponentFeatureMap(component_models)
        )

    def ask(self, session: TuningSession):
        tracker = session.tracker
        if self._cycle == 0:
            self._cycle = 1
            session.annotate(kind="seed")
            batch = session.problem.sample_unmeasured(
                tracker.remaining, self._m_init
            )
            tracker.mark(batch)
            return batch
        if self._plan is None:
            self._plan = session.plan_batches(
                self._m_workflow - self._m_init, self.iterations
            )
        index = self._cycle - 1
        if index >= len(self._plan):
            return []
        self._cycle += 1
        measured = session.collector.measured
        session.timed_fit(self._model, list(measured), list(measured.values()))
        candidates = tracker.remaining
        batch = session.rank_candidates(self._model, candidates, self._plan[index])
        tracker.mark(batch)
        return batch

    def finalize(self, session: TuningSession):
        measured = session.collector.measured
        session.timed_fit(self._model, list(measured), list(measured.values()))
        return self._model

    def state_dict(self) -> dict:
        return {
            "cycle": self._cycle,
            "plan": self._plan,
            "component_data": self._component_data,
            "m_workflow": self._m_workflow,
            "m_init": self._m_init,
        }

    def load_state(self, state: dict, session: TuningSession) -> None:
        self._component_data = state["component_data"]
        self._m_workflow = state["m_workflow"]
        self._m_init = state["m_init"]
        self._cycle = state["cycle"]
        self._plan = state["plan"]
        # Retraining the component models and rebuilding the (unfitted)
        # surrogate is deterministic given the restored solo data; the
        # surrogate itself refits on all measured data in every ask().
        self._build_model(session)


@dataclass
class Alph(TuningAlgorithm):
    """AL over a surrogate whose features include component predictions.

    Parameters
    ----------
    component_runs_fraction:
        Budget share spent running components when no historical
        measurements exist (ignored when the collector holds free
        histories and ``use_history`` is true).
    use_history:
        Use the collector's free historical component measurements
        (the §7.5 setting) instead of paying for component runs.
    initial_fraction, iterations:
        As in plain active learning.
    """

    component_runs_fraction: float = 0.5
    use_history: bool = True
    initial_fraction: float = 0.3
    iterations: int = 5
    name: str = "ALpH"

    def make_strategy(self) -> AlphStrategy:
        return AlphStrategy(
            self.component_runs_fraction,
            self.use_history,
            self.initial_fraction,
            self.iterations,
        )
