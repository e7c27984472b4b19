"""Measured configuration pools (the paper's §7.1 experimental protocol).

Two kinds of pre-measured data back every experiment:

* :class:`MeasuredPool` — ``p`` random *feasible* workflow
  configurations (paper: ``p = 2000``, sized by the tail bound of §5,
  ``p ≈ -n·ln(1-P)``), each measured once in the in-situ mode.  The pool
  doubles as the auto-tuners' candidate set ``C_pool`` and as the test
  set for recall/MdAPE metrics.  Its observables are the read-only
  columns of one :func:`~repro.insitu.fast.measure_batch` call; a
  configuration's :class:`~repro.insitu.WorkflowMeasurement` is built
  only when :meth:`MeasuredPool.lookup` asks for it.
* :class:`ComponentHistory` — solo runs of one component with their
  standalone execution/computer times.  It is the one type of Phase-1
  data: the §7.1 history sets (paper: 500 random configurations per
  configurable component; the historical measurements ``D_hist`` of
  §7.5), the paid component batches the collector draws from them
  (:meth:`ComponentHistory.subset`), and the stored solo runs a warm
  start reuses.

A problem's history sets are a :class:`ComponentHistories` mapping,
which generates each one on first read: only the component-model
algorithms read them.

Generation is deterministic given the seed, and results are memoised in
process by two :class:`~repro.lru.LruCache` instances (128 entries each;
counters ``pool.memo.*`` and ``history.memo.*``), keyed by the
workflow's structure (name, components, couplings, steps, buffer hook
and machine), so two workflows that share a name but not their apps, or
two machines' pools of one workflow, never share an entry.  Parallel
trial workers are forked after the parent built its pools, so they
inherit the memo; any other process regenerates bit-identical pools
from the seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.config.space import Configuration
from repro.config.table import ConfigTable
from repro.insitu.fast import measure_batch
from repro.insitu.measurement import (
    MeasuredBatch,
    WorkflowMeasurement,
    objective_field,
    stable_seed,
)
from repro.insitu.workflow import WorkflowDefinition
from repro.lru import LruCache

__all__ = [
    "MeasuredPool",
    "ComponentHistories",
    "ComponentHistory",
    "generate_pool",
    "generate_component_history",
    "pool_size_for",
]

_POOL_MEMO = LruCache("pool.memo", 128)
_HISTORY_MEMO = LruCache("history.memo", 128)


class _Same:
    """A memo-key stand-in for an unhashable object (a dataclass app):
    keys are equal when the objects are of one type and equal."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _Same)
            and type(other.obj) is type(self.obj)
            and other.obj == self.obj
        )

    def __hash__(self) -> int:
        return hash(type(self.obj))


def _workflow_key(workflow: WorkflowDefinition) -> tuple:
    """What a workflow's measurements depend on, as a memo key part."""
    return (
        workflow.name,
        tuple((label, _Same(app)) for label, app in workflow.components),
        workflow.couplings,
        workflow.n_steps,
        workflow.buffer_hook,
        workflow.machine,
    )


def pool_size_for(top_fraction: float, probability: float) -> int:
    """Pool size so its best config is in the top ``top_fraction`` w.p. ``probability``.

    The §5 bound: ``p ≈ -n · ln(1 - P)`` with ``n = 1/top_fraction``.
    For the paper's example (0.2 %, 98.2 %) this gives ≈ 2000.
    """
    if not 0 < top_fraction < 1 or not 0 < probability < 1:
        raise ValueError("top_fraction and probability must be in (0, 1)")
    return math.ceil(-(1.0 / top_fraction) * math.log(1.0 - probability))


@dataclass(frozen=True)
class MeasuredPool:
    """Random feasible configurations with measured in-situ performance.

    ``measured`` holds the pool's observables as read-only columns, row
    ``i`` for ``configs[i]``; memoised pools are shared by every session
    and serve worker.  ``table`` is the pool's
    :class:`~repro.config.table.ConfigTable`, built once from the DES
    pass's value matrix: models score row views of it.  :meth:`lookup`
    finds a configuration's row through the table and builds its
    :class:`WorkflowMeasurement` on demand.
    """

    workflow_name: str
    measured: MeasuredBatch

    def __post_init__(self):
        table = ConfigTable(self.measured.configs, self.measured.values)
        object.__setattr__(self, "table", table)

    @property
    def configs(self) -> tuple[Configuration, ...]:
        """The pool's configurations, in measurement order."""
        return self.measured.configs

    def __len__(self) -> int:
        return len(self.configs)

    @property
    def nbytes(self) -> int:
        """Bytes of the pool's columns and value matrix, for the memo's
        byte gauge."""
        return self.measured.nbytes + self.table.nbytes

    def objective_values(self, objective: str) -> np.ndarray:
        """The read-only column of one objective, aligned with :attr:`configs`."""
        return self.measured.objective_values(objective)

    def best_index(self, objective: str) -> int:
        """Index of the pool's best configuration for ``objective``."""
        return int(np.argmin(self.objective_values(objective)))

    def best_value(self, objective: str) -> float:
        """The pool's best measured value (the "1" of the paper's plots)."""
        return float(self.objective_values(objective).min())

    def lookup(self, config: Configuration) -> WorkflowMeasurement:
        """Measurement of a pool configuration (``KeyError`` off the pool)."""
        try:
            row = self.table.row_of(config)
        except KeyError:
            raise KeyError(f"configuration {config!r} is not in the pool") from None
        return self.measured.measurement(row)


@dataclass(frozen=True)
class ComponentHistory:
    """Solo measurements of one component, row ``i`` for ``configs[i]``."""

    label: str
    configs: tuple[Configuration, ...]
    execution_seconds: np.ndarray
    computer_core_hours: np.ndarray

    def __len__(self) -> int:
        return len(self.configs)

    def objective_values(self, objective: str) -> np.ndarray:
        """Per-config solo values of a workflow-level objective."""
        return getattr(self, objective_field(objective))

    def subset(self, indices) -> "ComponentHistory":
        """History restricted to ``indices`` (budgeted component runs)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ComponentHistory(
            label=self.label,
            configs=tuple(self.configs[i] for i in indices),
            execution_seconds=self.execution_seconds[indices],
            computer_core_hours=self.computer_core_hours[indices],
        )


class ComponentHistories(Mapping):
    """The history sets of a workflow's configurable components, each
    generated on first read.

    Keys are the labels of every component with more than one
    configuration, known up front, so ``len`` and iteration generate
    nothing.  Reading a label's :class:`ComponentHistory` runs the
    memoised :func:`generate_component_history` once and keeps the
    result.  Read-only, so problems and threads may share one instance.
    """

    def __init__(
        self,
        workflow: WorkflowDefinition,
        size: int,
        seed: int,
        noise_sigma: float,
    ):
        self._recipe = (workflow, size, seed, noise_sigma)
        self._labels = tuple(
            label for label in workflow.labels if workflow.app(label).space.size() > 1
        )
        self._read: dict[str, ComponentHistory] = {}

    def __getitem__(self, label: str) -> ComponentHistory:
        history = self._read.get(label)
        if history is None:
            if label not in self._labels:
                raise KeyError(label)
            workflow, size, seed, noise_sigma = self._recipe
            history = self._read.setdefault(
                label,
                generate_component_history(
                    workflow, label, size=size, seed=seed, noise_sigma=noise_sigma
                ),
            )
        return history

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)


def generate_pool(
    workflow: WorkflowDefinition,
    size: int = 2000,
    seed: int = 2021,
    noise_sigma: float = 0.05,
    replicates: int = 1,
) -> MeasuredPool:
    """Sample and measure ``size`` random feasible configurations.

    Deterministic given the workflow and ``(size, seed, noise_sigma,
    replicates)``, and memoised under them; pass distinct seeds for
    independent pools.

    ``replicates > 1`` measures each configuration that many times with
    independent noise and records the mean — the noise-mitigation
    practice the paper's §9 describes ("existing methods select the
    average/median of three to five measurements").  The noise-ablation
    benchmark contrasts tuning quality on single-shot vs averaged pools.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    key = (_workflow_key(workflow), size, seed, noise_sigma, replicates)
    pool = _POOL_MEMO.get(key)
    if pool is not None:
        return pool
    with telemetry.get().span(
        "pool.generate", category="pool", workflow=workflow.name, size=size
    ):
        rng = np.random.default_rng(
            stable_seed("pool", workflow.name, size, seed)
        )
        configs = workflow.space.sample(
            rng, size, constraint=workflow.constraint, unique=True
        )
        # One array pass for the whole pool: the DES sweep (the oracle
        # is the fallback for ineligible workflows) and the noise.
        pool = MeasuredPool(
            workflow.name,
            measure_batch(
                workflow,
                configs,
                noise_sigma=noise_sigma,
                noise_seed=seed,
                replicates=replicates,
            ),
        )
    _POOL_MEMO.put(key, pool)
    return pool


def generate_component_history(
    workflow: WorkflowDefinition,
    label: str,
    size: int = 500,
    seed: int = 2021,
    noise_sigma: float = 0.05,
) -> ComponentHistory:
    """Sample and solo-measure ``size`` random component configurations.

    Deterministic given the workflow and ``(label, size, seed,
    noise_sigma)``, and memoised under them like :func:`generate_pool`.
    """
    key = (_workflow_key(workflow), label, size, seed, noise_sigma)
    history = _HISTORY_MEMO.get(key)
    if history is not None:
        return history
    with telemetry.get().span(
        "history.generate",
        category="pool",
        workflow=workflow.name,
        label=label,
        size=size,
    ):
        history = _generate_history(workflow, label, size, seed, noise_sigma)
    _HISTORY_MEMO.put(key, history)
    return history


def _generate_history(
    workflow: WorkflowDefinition,
    label: str,
    size: int,
    seed: int,
    noise_sigma: float,
) -> ComponentHistory:
    """Sample ``size`` solo configurations and run them in one array pass.

    Equal to solo-running each configuration with
    :meth:`~repro.insitu.WorkflowDefinition.solo_run` and drawing one
    scalar ``noise_rng.normal`` factor per configuration: ``normal``
    with ``size=n`` draws the scalar calls' stream, and ``np.exp``
    rounds each element as it rounds a scalar.
    """
    app = workflow.app(label)
    rng = np.random.default_rng(
        stable_seed("history", workflow.name, label, size, seed)
    )
    configs = app.space.sample(
        rng, size, constraint=workflow.component_constraint(label), unique=True
    )
    steps = np.array(
        [workflow.solo_steps(label, config) for config in configs], dtype=np.int64
    )
    exec_times, comp_hours = app.solo_run_batch(
        workflow.machine, tuple(app.space.value_matrix(configs).T), steps
    )
    noise_rng = np.random.default_rng(
        stable_seed("history-noise", workflow.name, label, size, seed)
    )
    factors = np.exp(noise_rng.normal(0.0, noise_sigma, size=size))
    return ComponentHistory(
        label=label,
        configs=tuple(configs),
        execution_seconds=exec_times * factors,
        computer_core_hours=comp_hours * factors,
    )
