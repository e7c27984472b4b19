"""Pure low-fidelity tuner (ablation: white-box modeling alone).

Measures only the analytical coupling model's top-ranked configurations
and uses the ACM itself as the final searcher model.  This is the
"ACM without bootstrapping" arm of the design-choice ablations: it
isolates how far the component-combined model gets *without* the
high-fidelity phase, quantifying §3's claim that the low-fidelity model
alone is not accurate enough for auto-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.algorithms.base import SearchStrategy, TuningAlgorithm
from repro.core.driver import TuningSession
from repro.core.low_fidelity import LowFidelityModel

__all__ = ["LowFidelityOnly", "LowFidelityOnlyStrategy"]


class LowFidelityOnlyStrategy(SearchStrategy):
    """Rank the pool with the ACM, measure its top picks, return the ACM."""

    name = "LowFid"

    def __init__(self) -> None:
        self._asked = False

    def prepare(self, session: TuningSession) -> None:
        collector = session.problem.collector
        if not collector.histories:
            raise RuntimeError(
                f"{self.name} trains its component models on the problem's "
                "component histories, and this problem has none"
            )
        self._component_data = collector.free_component_history()
        self._m_workflow = session.budget
        self._build_model(session)

    def _build_model(self, session: TuningSession) -> None:
        self._model = LowFidelityModel(
            session.problem.component_models(self._component_data)
        )

    def ask(self, session: TuningSession):
        if self._asked:
            return []
        self._asked = True
        tracker = session.tracker
        candidates = tracker.remaining
        top = session.rank_candidates(self._model, candidates, self._m_workflow)
        tracker.mark(top)
        return top

    def finalize(self, session: TuningSession):
        return self._model

    def state_dict(self) -> dict:
        return {
            "asked": self._asked,
            "component_data": self._component_data,
            "m_workflow": self._m_workflow,
        }

    def load_state(self, state: dict, session: TuningSession) -> None:
        self._asked = state["asked"]
        self._component_data = state["component_data"]
        self._m_workflow = state["m_workflow"]
        self._build_model(session)


@dataclass
class LowFidelityOnly(TuningAlgorithm):
    """Rank the pool with the ACM, measure its top picks, return the ACM.

    The component models train on the problem's component histories,
    free of charge, so the whole budget goes to workflow runs; a problem
    without histories is refused.
    """

    name: str = "LowFid"

    def make_strategy(self) -> LowFidelityOnlyStrategy:
        return LowFidelityOnlyStrategy()
