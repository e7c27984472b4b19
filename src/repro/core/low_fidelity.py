"""The low-fidelity workflow model ``M_L`` (paper §4).

Combines per-component model predictions with the objective's analytical
coupling function:

* execution time — ``Score_e(c) = max_j t_e(c_j)`` (Eqn. 1),
* computer time — ``Score_c(c) = Σ_j t_c(c_j)`` (Eqn. 2).

The output is a *score* used only for ranking configurations (lower =
better); it is systematically optimistic about coupled behaviour —
solo-trained component models cannot see synchronisation stalls or
fabric contention — which is exactly why CEAL treats it as low fidelity
and bootstraps a measured high-fidelity model from it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.config.space import Configuration
from repro.core.component_models import ComponentModelSet

__all__ = ["LowFidelityModel"]


@dataclass(frozen=True)
class LowFidelityModel:
    """ACM-combined component models; scores joint configurations."""

    component_models: ComponentModelSet

    def predict(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Low-fidelity scores (objective units, lower = better).

        Component predictions come from
        :meth:`~repro.core.component_models.ComponentModelSet.predict_components`,
        which predicts a pool's distinct component rows once and gathers
        from them, so repeated pool scoring is cheap.
        """
        with telemetry.get().span(
            "ml.predict",
            category="predict",
            model="low_fidelity",
            rows=len(configs),
        ):
            matrix = self.component_models.predict_components(configs)
            return self.component_models.objective.combine(matrix)

    def rank(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Indices of ``configs`` from best (lowest score) to worst."""
        return np.argsort(self.predict(configs), kind="stable")

    def top(self, configs: Sequence[Configuration], n: int) -> list[Configuration]:
        """The ``n`` best-scoring configurations."""
        if n < 0:
            raise ValueError("n must be non-negative")
        order = self.rank(configs)
        return [configs[i] for i in order[:n]]
