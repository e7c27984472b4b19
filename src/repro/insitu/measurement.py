"""Workflow measurements: the paper's two observables plus noise.

The paper measures, per configuration, the end-to-end wall-clock of each
component launched together; the configuration's *execution time* is the
longest component time and its *computer time* is
``execution_time × nodes × cores_per_node`` (§7.1).

Real measurements are noisy; here noise is a deterministic multiplicative
log-normal factor derived by hashing ``(workflow, config, seed)``, so a
fixed pool is exactly reproducible (the paper likewise measures its
2000-configuration pool once and reuses it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.config.space import Configuration
from repro.insitu.coupled import run_coupled
from repro.insitu.workflow import WorkflowDefinition

__all__ = ["WorkflowMeasurement", "measure_workflow", "stable_seed"]


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary hashable parts.

    ``hash()`` is process-salted for strings, so reproducible experiments
    hash the repr through blake2b instead.
    """
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class WorkflowMeasurement:
    """One measured workflow run.

    ``execution_seconds`` and ``computer_core_hours`` are the two
    optimisation objectives; ``component_seconds`` keeps the per-component
    wall-clocks for diagnostics and the ACM accuracy studies.

    ``config`` is always the *canonical* configuration form — a plain
    tuple (``Configuration = tuple``), regardless of the sequence type
    the caller measured.  Constructors normalise with ``tuple(config)``
    so the stored value hashes, compares, and round-trips through the
    measurement store unchanged.
    """

    config: Configuration
    execution_seconds: float
    computer_core_hours: float
    component_seconds: dict
    nodes: int
    steps: int

    def objective(self, name: str) -> float:
        """Value of objective ``"execution_time"`` or ``"computer_time"``."""
        if name == "execution_time":
            return self.execution_seconds
        if name == "computer_time":
            return self.computer_core_hours
        raise ValueError(f"unknown objective {name!r}")


def measure_workflow(
    workflow: WorkflowDefinition,
    config: Configuration,
    noise_sigma: float = 0.05,
    noise_seed: int = 0,
) -> WorkflowMeasurement:
    """Run ``workflow`` in-situ and return the paper's observables.

    Parameters
    ----------
    noise_sigma:
        Standard deviation of the log-normal measurement noise; 0 turns
        noise off.
    noise_seed:
        Salt for the deterministic noise (varies across experiment
        repetitions, fixed within one pool).

    The returned measurement's ``config`` is the canonical tuple form of
    ``config`` (see :class:`WorkflowMeasurement`).
    """
    result = run_coupled(workflow, config)
    if noise_sigma > 0:
        rng = np.random.default_rng(
            stable_seed(workflow.name, config, noise_seed)
        )
        factor = float(np.exp(rng.normal(0.0, noise_sigma)))
    else:
        factor = 1.0
    exec_seconds = result.execution_seconds * factor
    component_seconds = {
        label: seconds * factor
        for label, seconds in result.component_seconds.items()
    }
    return WorkflowMeasurement(
        config=tuple(config),
        execution_seconds=exec_seconds,
        computer_core_hours=workflow.machine.core_hours(
            exec_seconds, result.nodes
        ),
        component_seconds=component_seconds,
        nodes=result.nodes,
        steps=result.steps,
    )
