"""AL: batched active learning (paper §7.3, after [6, 29]).

Seeds the surrogate with a random batch, then repeatedly retrains and
measures the model's predicted-best unmeasured configurations.  This is
the black-box technique CEAL "bootstraps": without the low-fidelity
model, AL's early batches are steered by a surrogate trained on random
(mostly mediocre) samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.algorithms.base import PlannedBatches
from repro.core.driver import TuningSession

__all__ = ["ActiveLearning"]


@dataclass
class ActiveLearning(PlannedBatches):
    """Random seed batch, then model-guided predicted-top batches.

    Parameters
    ----------
    initial_fraction:
        Share of the budget spent on the random seed batch.
    iterations:
        Number of model-guided batches after the seed.
    """

    initial_fraction: float = 0.3
    iterations: int = 5
    name: str = "AL"

    def __post_init__(self) -> None:
        if not 0 < self.initial_fraction < 1:
            raise ValueError("initial_fraction must be in (0, 1)")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def prepare(self, session: TuningSession) -> None:
        self.plan_budget(session.budget)
        self._model = session.problem.make_surrogate()

    def guided_batch(self, session: TuningSession, n: int):
        session.annotate(samples=session.collector.n_measured)
        session.fit_measured(self._model)
        batch = session.rank_candidates(self._model, session.tracker.remaining, n)
        session.tracker.mark(batch)
        return batch

    def finalize(self, session: TuningSession):
        session.fit_measured(self._model)
        return self._model

    def load_state(self, state: dict, session: TuningSession) -> None:
        # The surrogate is rebuilt, not restored: every guided batch and
        # finalize() refit it from scratch on all measured data, so a
        # fresh instance continues bit-identically.
        self.prepare(session)
        super().load_state(state, session)
