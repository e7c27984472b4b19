"""RS: random sampling (paper §7.3).

Measures ``m`` uniformly random pool configurations and trains the
surrogate once.  The canonical indiscriminate-sampling baseline: its
samples land mostly in mediocre regions, so its model is comparably
accurate everywhere but not *especially* accurate where it matters
(Fig. 6's intuition).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.algorithms.base import TuningAlgorithm
from repro.core.driver import TuningSession

__all__ = ["RandomSampling"]


@dataclass
class RandomSampling(TuningAlgorithm):
    """Measure one random batch of the full budget, fit once."""

    name = "RS"
    _asked = False

    def ask(self, session: TuningSession):
        if self._asked:
            return []
        self._asked = True
        session.annotate(kind="seed")
        batch = session.problem.sample_unmeasured(
            session.tracker.remaining, session.budget
        )
        session.tracker.mark(batch)
        return batch

    def finalize(self, session: TuningSession):
        if session.collector.n_measured < 2:
            raise RuntimeError("random sampling obtained fewer than 2 samples")
        model = session.problem.make_surrogate()
        session.fit_measured(model)
        return model

    def state_dict(self) -> dict:
        return {"asked": self._asked}

    def load_state(self, state: dict, session: TuningSession) -> None:
        self._asked = state["asked"]
