"""Tuning problems and results: the shared contract of all algorithms.

A :class:`TuningProblem` bundles the workflow, the objective, the
candidate pool, a budgeted :class:`~repro.core.collector.Collector`, the
feature encoder, a seeded random generator, and an optional
fitted-model registry.  Every algorithm consumes a problem and returns
an :class:`AutotuneResult` whose model drives the searcher (rank the
pool, recommend the predicted best).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.config.space import Configuration
from repro.config.table import ConfigRows
from repro.core.collector import Collector
from repro.core.component_models import ComponentModelSet
from repro.core.objectives import Objective
from repro.core.surrogate import SurrogateModel, default_surrogate
from repro.insitu.measurement import objective_field, stable_seed
from repro.insitu.workflow import WorkflowDefinition
from repro.workflows.pools import ComponentHistory, MeasuredPool

if TYPE_CHECKING:  # avoid an import cycle with repro.core.driver
    from repro.core.driver import TuningEvent

__all__ = ["TuningProblem", "AutotuneResult"]


@dataclass
class TuningProblem:
    """One auto-tuning task: find a good configuration under budget ``m``.

    ``warm_start`` selects how much stored history the session may
    reuse: ``"off"`` (cold), ``"components"`` (Phase-1 strategies seed
    component models from stored solo runs), or ``"full"``
    (additionally adopt matching stored workflow measurements as free
    samples before the first proposal).  Either mode is inert without a
    bound store.
    """

    workflow: WorkflowDefinition
    objective: Objective
    pool: MeasuredPool
    collector: Collector
    rng: np.random.Generator
    seed: int
    warm_start: str = "off"
    #: Fitted-model registry (``fit_or_load`` contract) every model of
    #: this problem is fitted through, or ``None`` to fit directly.
    #: Loading a registered model is equivalent to refitting — fits are
    #: deterministic functions of their inputs — so the registry saves
    #: wall-clock, never changes results.
    model_registry: object | None = field(default=None, repr=False)
    _encoder: object | None = field(init=False, default=None, repr=False)

    @classmethod
    def create(
        cls,
        workflow: WorkflowDefinition,
        objective: Objective,
        pool: MeasuredPool,
        budget_runs: int,
        seed: int = 0,
        histories: Mapping[str, ComponentHistory] | None = None,
        failure_rate: float = 0.0,
        store=None,
        warm_start: str = "off",
        encoder=None,
    ) -> "TuningProblem":
        """Assemble a problem with a fresh budgeted collector.

        ``store`` may be a :class:`~repro.store.db.MeasurementStore`
        or a database path; it is bound to the collector for
        write-through recording, enables the ``warm_start`` modes, and
        backs the problem's :class:`~repro.store.registry.ModelRegistry`
        (without a store, fits run directly and hash nothing).
        ``encoder`` optionally shares a prebuilt
        :class:`~repro.config.encoding.ConfigEncoder` instead of
        deriving a fresh one per surrogate — encoders keep no state
        between calls, so sharing never changes results.
        ``histories`` is shared as given, so a
        :class:`~repro.workflows.pools.ComponentHistories` mapping still
        generates each set only when a session first reads it.
        """
        if budget_runs < 2:
            raise ValueError("budget_runs must be at least 2")
        binding = registry = None
        if store is not None:
            from repro.store.db import MeasurementStore, StoreBinding
            from repro.store.registry import ModelRegistry

            if not isinstance(store, MeasurementStore):
                store = MeasurementStore(store)
            binding = StoreBinding(store, workflow, objective.name, seed)
            registry = ModelRegistry(store)
        from repro.store.warmstart import WARM_START_MODES

        if warm_start not in WARM_START_MODES:
            raise ValueError(
                f"warm_start must be one of {WARM_START_MODES}, "
                f"got {warm_start!r}"
            )
        collector = Collector(
            pool=pool,
            objective=objective,
            histories={} if histories is None else histories,
            budget_runs=budget_runs,
            failure_rate=failure_rate,
            failure_seed=stable_seed("failures", workflow.name, seed),
            store=binding,
        )
        rng = np.random.default_rng(
            stable_seed("tuning", workflow.name, objective.name, seed)
        )
        problem = cls(
            workflow=workflow,
            objective=objective,
            pool=pool,
            collector=collector,
            rng=rng,
            seed=seed,
            warm_start=warm_start,
            model_registry=registry,
        )
        problem._encoder = encoder
        return problem

    @property
    def store(self):
        """The collector's store binding (``None`` when unbound)."""
        return self.collector.store

    @property
    def pool_configs(self) -> ConfigRows:
        """The candidate set ``C_pool``, as a view of every pool row."""
        return self.pool.table.view()

    @property
    def budget(self) -> int:
        """The run budget ``m``."""
        return self.collector.budget_runs

    def make_surrogate(self, extra_features=None, salt: int = 0) -> SurrogateModel:
        """A fresh reference surrogate, deterministically seeded."""
        encoder = self._encoder if self._encoder is not None else self.workflow.encoder()
        return default_surrogate(
            encoder,
            random_state=stable_seed("surrogate", self.seed, salt) % (2**31),
            extra_features=extra_features,
            registry=self.model_registry,
        )

    def component_models(
        self, data: dict[str, ComponentHistory]
    ) -> ComponentModelSet:
        """Phase-1 per-component models trained on solo measurements ``data``."""
        return ComponentModelSet.train(
            self.workflow,
            self.objective,
            data,
            random_state=self.seed,
            registry=self.model_registry,
            pool=self.pool.table,
        )

    def sample_unmeasured(
        self, candidates: Sequence[Configuration], n: int
    ) -> list[Configuration]:
        """Draw ``n`` distinct random configurations from ``candidates``."""
        if n > len(candidates):
            raise ValueError(
                f"cannot draw {n} configurations from {len(candidates)} candidates"
            )
        idx = self.rng.choice(len(candidates), size=n, replace=False)
        return [candidates[i] for i in sorted(idx)]


@dataclass
class AutotuneResult:
    """What an algorithm hands back to the searcher and the evaluation.

    Attributes
    ----------
    algorithm:
        Algorithm name ("CEAL", "RS", ...).
    model:
        Final surrogate — anything with ``predict(configs) -> np.ndarray``
        scoring lower-is-better in objective units.
    measured:
        ``{config: measured value}`` of all paid workflow runs.
    runs_used, cost_execution_seconds, cost_computer_core_hours:
        Budget and cost accounting copied from the collector.
    trace:
        Typed per-cycle :class:`~repro.core.driver.TuningEvent` records
        emitted by the driver (batches, failures, fit wall-clock,
        model-switch state, strategy annotations).
    """

    algorithm: str
    workflow_name: str
    objective: Objective
    model: object
    measured: dict
    runs_used: int
    cost_execution_seconds: float
    cost_computer_core_hours: float
    trace: list[TuningEvent] = field(default_factory=list)

    def predict_pool(self, pool: MeasuredPool) -> np.ndarray:
        """Model scores over a pool (the test set)."""
        from repro import telemetry

        with telemetry.get().span(
            "driver.rank", category="predict", rows=len(pool.configs)
        ):
            return np.asarray(
                self.model.predict(pool.table.view()), dtype=np.float64
            )

    def best_config(self, pool: MeasuredPool) -> Configuration:
        """The searcher's recommendation: predicted-best pool configuration."""
        scores = self.predict_pool(pool)
        return pool.configs[int(np.argmin(scores))]

    def best_actual_value(self, pool: MeasuredPool) -> float:
        """Measured value of the recommendation (§7.2.1's metric)."""
        best = self.best_config(pool)
        return pool.lookup(best).objective(self.objective.name)

    def cost(self) -> float:
        """Data-collection cost ``c`` in the objective's units."""
        return getattr(self, "cost_" + objective_field(self.objective.name))

    @classmethod
    def from_collector(
        cls,
        algorithm: str,
        problem: TuningProblem,
        model,
        trace: list | None = None,
    ) -> "AutotuneResult":
        """Snapshot collector accounting into a result."""
        collector = problem.collector
        return cls(
            algorithm=algorithm,
            workflow_name=problem.workflow.name,
            objective=problem.objective,
            model=model,
            measured=collector.measured,
            runs_used=collector.runs_used,
            cost_execution_seconds=collector.cost_execution_seconds,
            cost_computer_core_hours=collector.cost_computer_core_hours,
            trace=trace or [],
        )
