"""User-facing auto-tuner facade, plus the recipes every caller shares.

Wires together pool generation, component histories, the budgeted
collector, a tuning algorithm (CEAL by default), and the searcher —
the full collector/modeler/searcher loop of paper Fig. 3 — behind one
call::

    from repro.core import AutoTuner
    from repro.workflows import make_lv

    outcome = AutoTuner(make_lv(), "computer_time", budget=50).tune()
    print(outcome.best_config, outcome.best_value)

Two recipes live here because every entry point (the facade, the
experiment runner, the figure drivers, the serve daemon, the CLI)
needs them and must agree on them bit for bit:

* :func:`build_problem_artifacts` turns (workflow, pool size, seed,
  noise, history size) into a frozen :class:`ProblemArtifacts` bundle,
  and :meth:`ProblemArtifacts.problem` makes a fresh
  :class:`~repro.core.problem.TuningProblem` from it;
* :data:`ALGORITHMS` / :func:`make_algorithm` map an algorithm name to
  a fresh algorithm instance.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.config.encoding import ConfigEncoder
from repro.config.space import Configuration
from repro.core.algorithms import (
    ActiveLearning,
    Alph,
    BayesianOptimization,
    Geist,
    LowFidelityOnly,
    RandomSampling,
    RegionBandit,
    TuningAlgorithm,
)
from repro.core.ceal import Ceal, CealSettings
from repro.core.metrics import recall_curve
from repro.core.objectives import Objective, get_objective
from repro.core.problem import AutotuneResult, TuningProblem
from repro.insitu.workflow import WorkflowDefinition
from repro.workflows.catalog import make_workflow
from repro.workflows.pools import (
    ComponentHistory,
    MeasuredPool,
    generate_component_history,
    generate_pool,
)

__all__ = [
    "ALGORITHMS",
    "AutoTuner",
    "ProblemArtifacts",
    "TuningOutcome",
    "build_problem_artifacts",
    "make_algorithm",
]

#: Every tuning algorithm a run may name (CLI ``--algorithm``, serve
#: ``SessionSpec.algorithm``, a suite factor's ``kind``): name ->
#: factory of a fresh instance from that algorithm's own keyword
#: parameters.
ALGORITHMS: dict[str, Callable[..., TuningAlgorithm]] = {
    "ceal": lambda **params: Ceal(CealSettings(**params)),
    "rs": RandomSampling,
    "al": ActiveLearning,
    "geist": Geist,
    "alph": Alph,
    "bandit": RegionBandit,
    "bo": BayesianOptimization,
    "ceal-bo": lambda **params: BayesianOptimization(bootstrap=True, **params),
    "lowfid": LowFidelityOnly,
}


def make_algorithm(name: str, use_history: bool = False) -> TuningAlgorithm:
    """A fresh instance of the algorithm registered as ``name``.

    ``use_history`` reaches only the two algorithms that read free
    historical component measurements, CEAL and ALpH.
    """
    if name in ("ceal", "alph"):
        return ALGORITHMS[name](use_history=use_history)
    return ALGORITHMS[name]()


@dataclass(frozen=True)
class ProblemArtifacts:
    """The immutable, shareable part of a tuning problem.

    Built workflow, measured pool, component histories (the §7.1 solo
    measurement sets the collector draws paid component runs from), and
    the ML feature encoder.  Nothing here is mutated after construction
    — pools and histories are frozen dataclasses over arrays, and the
    encoder keeps no state between calls — so any number of problems,
    sequential or concurrent, may share one bundle by reference with
    results identical to rebuilding it for each.
    """

    workflow: WorkflowDefinition
    pool: MeasuredPool
    histories: dict[str, ComponentHistory]
    encoder: ConfigEncoder

    def problem(
        self,
        objective: Objective | str,
        budget: int,
        seed: int,
        *,
        failure_rate: float = 0.0,
        store=None,
        warm_start: str = "off",
    ) -> TuningProblem:
        """A fresh problem (new collector and RNG) over these artifacts."""
        if isinstance(objective, str):
            objective = get_objective(objective)
        return TuningProblem.create(
            workflow=self.workflow,
            objective=objective,
            pool=self.pool,
            budget_runs=budget,
            seed=seed,
            histories=self.histories,
            failure_rate=failure_rate,
            store=store,
            warm_start=warm_start,
            encoder=self.encoder,
        )


def build_problem_artifacts(
    workflow: WorkflowDefinition | str,
    pool_size: int,
    seed: int,
    noise_sigma: float = 0.05,
    history_size: int = 500,
    *,
    pool: MeasuredPool | None = None,
) -> ProblemArtifacts:
    """The artifacts of one (workflow, pool size, seed, noise, history) recipe.

    Deterministic in its arguments: pools and histories come from the
    memoised generators.  Every component with more than one
    configuration gets a history of ``history_size`` solo samples.
    ``pool`` supplies a ready pool instead of generating ``pool_size``
    configurations.
    """
    if isinstance(workflow, str):
        workflow = make_workflow(workflow)
    if pool is None:
        pool = generate_pool(workflow, pool_size, seed=seed, noise_sigma=noise_sigma)
    histories = {
        label: generate_component_history(
            workflow, label, size=history_size, seed=seed, noise_sigma=noise_sigma
        )
        for label in workflow.labels
        if workflow.app(label).space.size() > 1
    }
    return ProblemArtifacts(workflow, pool, histories, workflow.encoder())


@dataclass(frozen=True)
class TuningOutcome:
    """Everything a user wants back from one tuning session."""

    result: AutotuneResult
    pool: MeasuredPool
    best_config: Configuration
    best_value: float
    pool_best_value: float
    runs_used: int
    cost: float

    @property
    def gap_to_pool_best(self) -> float:
        """Recommendation value normalised by the pool optimum (≥ 1)."""
        return self.best_value / self.pool_best_value

    def recall(self, max_n: int = 10) -> np.ndarray:
        """Recall curve of the final model over the pool (Fig. 7 style)."""
        return recall_curve(
            self.result.predict_pool(self.pool),
            self.pool.objective_values(self.result.objective.name),
            max_n,
        )


@dataclass
class AutoTuner:
    """Tune one workflow for one objective under a run budget.

    Parameters
    ----------
    workflow:
        The in-situ workflow to tune.
    objective:
        ``"execution_time"``, ``"computer_time"``, or an
        :class:`~repro.core.objectives.Objective`.
    budget:
        Total workflow-run budget ``m``.
    algorithm:
        Any :class:`~repro.core.algorithms.TuningAlgorithm`; defaults to
        CEAL with paper-default hyper-parameters.
    pool_size:
        Candidate-pool size (§5 sizing; the paper uses 2000).
    use_history:
        Make free historical component measurements available (§7.5).
    seed:
        Reproducibility seed for pool sampling and tuning randomness.
    noise_sigma:
        Measurement-noise level of the simulated runs.
    checkpoint_path:
        When set, the tuning session checkpoints its resumable state
        here after every measurement cycle (see
        :mod:`repro.core.driver`).  Each checkpoint records the
        arguments the session is built from (:meth:`recipe`).
    resume:
        Restore the session from ``checkpoint_path`` and finish it; the
        completed run is bit-identical to an uninterrupted one.  A
        checkpoint written with other arguments is refused with a
        :class:`~repro.core.driver.CheckpointError` naming the field.
    store:
        A :class:`~repro.store.db.MeasurementStore` (or database path):
        every paid measurement is durably recorded through it, and
        ``warm_start`` can draw on what earlier sessions stored.
    warm_start:
        ``"off"``, ``"components"``, or ``"full"`` (see
        :class:`~repro.core.problem.TuningProblem`); requires ``store``.
    """

    workflow: WorkflowDefinition
    objective: Objective | str
    budget: int = 50
    algorithm: object | None = None
    pool_size: int = 2000
    use_history: bool = False
    seed: int = 0
    noise_sigma: float = 0.05
    history_size: int = 500
    pool: MeasuredPool | None = None
    checkpoint_path: str | None = None
    resume: bool = False
    store: object | None = None
    warm_start: str = "off"

    def __post_init__(self) -> None:
        if isinstance(self.objective, str):
            self.objective = get_objective(self.objective)
        if self.algorithm is None:
            self.algorithm = make_algorithm("ceal", self.use_history)

    def recipe(self) -> dict:
        """The arguments the tuning session is built from, as plain data."""
        return {
            "workflow": self.workflow.name,
            "objective": self.objective.name,
            "budget": self.budget,
            "pool_size": self.pool_size,
            "seed": self.seed,
            "noise_sigma": self.noise_sigma,
            "history_size": self.history_size,
            "use_history": self.use_history,
            "warm_start": self.warm_start,
        }

    def tune(self) -> TuningOutcome:
        """Run the full collector/modeler/searcher loop."""
        artifacts = build_problem_artifacts(
            self.workflow,
            self.pool_size,
            self.seed,
            self.noise_sigma,
            self.history_size,
            pool=self.pool,
        )
        pool = artifacts.pool
        problem = artifacts.problem(
            self.objective,
            self.budget,
            self.seed,
            store=self.store,
            warm_start=self.warm_start,
        )
        # Only forward checkpoint options when asked for: user-supplied
        # algorithms may override ``tune(problem)`` without them.
        if self.checkpoint_path is not None or self.resume:
            result = self.algorithm.tune(
                problem,
                checkpoint_path=self.checkpoint_path,
                resume=self.resume,
                recipe=self.recipe(),
            )
        else:
            result = self.algorithm.tune(problem)
        best_config = result.best_config(pool)
        best_value = pool.lookup(best_config).objective(self.objective.name)
        return TuningOutcome(
            result=result,
            pool=pool,
            best_config=best_config,
            best_value=best_value,
            pool_best_value=pool.best_value(self.objective.name),
            runs_used=result.runs_used,
            cost=result.cost(),
        )
