"""Optimisation objectives and their analytical coupling functions.

The paper optimises two metrics (§4): execution time, combined across
components with ``max`` (Eqn. 1 — the workflow is as slow as its
bottleneck), and computer time, combined with ``sum`` (Eqn. 2 — core
hours aggregate).  Both are minimised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Objective",
    "EXECUTION_TIME",
    "COMPUTER_TIME",
    "OBJECTIVES",
    "get_objective",
]


@dataclass(frozen=True)
class Objective:
    """One optimisation objective.

    Parameters
    ----------
    name:
        Key used throughout (:meth:`WorkflowMeasurement.objective`).
    acm_combine:
        ``"max"`` or ``"sum"`` — how the analytical coupling model folds
        per-component predictions into a workflow score (§4: ``max`` for
        bottleneck metrics, ``sum`` for aggregate metrics).
    unit:
        Human-readable unit for reports.
    """

    name: str
    acm_combine: str
    unit: str

    def __post_init__(self) -> None:
        if self.acm_combine not in ("max", "sum"):
            raise ValueError("acm_combine must be 'max' or 'sum'")

    def combine(self, component_values: np.ndarray) -> np.ndarray:
        """Fold an ``(n_components, n_configs)`` prediction matrix.

        Returns the per-configuration low-fidelity score (Eqns. 1–2).
        """
        component_values = np.asarray(component_values, dtype=np.float64)
        if component_values.ndim != 2:
            raise ValueError("expected an (n_components, n_configs) matrix")
        if self.acm_combine == "max":
            return component_values.max(axis=0)
        return component_values.sum(axis=0)


EXECUTION_TIME = Objective("execution_time", "max", "seconds")
COMPUTER_TIME = Objective("computer_time", "sum", "core-hours")

#: Every objective a run may name (CLI ``--objective``, serve
#: ``SessionSpec.objective``): name -> objective.
OBJECTIVES = {o.name: o for o in (EXECUTION_TIME, COMPUTER_TIME)}


def get_objective(name: str) -> Objective:
    """Look an objective up by name."""
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; choose from {sorted(OBJECTIVES)}"
        ) from None
