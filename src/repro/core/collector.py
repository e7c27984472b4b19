"""The collector: measured runs, budget accounting, cost accounting.

Experiments follow the paper's protocol: the candidate set is a
pre-measured pool, so "running the workflow" is a lookup — but the
collector still enforces the run budget ``m`` and accumulates the *cost*
``c`` of §7.2.3 (the sum of the training samples' execution times or
computer times), which the practicality metric divides by the achieved
improvement.  The pool is the only measurement backend: every strategy
proposes pool configurations and warm start adopts only those, so a
configuration outside the pool is a ``KeyError``.

Component applications are "run" against pre-measured solo histories
(paper §7.1: 500 solo configurations per configurable component).  One
*batch* — every component once — is charged as one workflow run
(§6: cost of ``m_R`` component batches ≡ ``m_R`` runs), and comes back
as a :class:`~repro.workflows.pools.ComponentHistory` subset, the one
type of solo measurements.  The free histories themselves are
:attr:`Collector.histories`.

An optional failure injector models the job-level faults the paper's
Swift/T collector tolerates via ``MPI_Comm_launch``: a failed run
consumes budget and cost but yields no training sample.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.config.space import Configuration
from repro.core.objectives import Objective
from repro.insitu.measurement import objective_field
from repro.workflows.pools import ComponentHistory, MeasuredPool

__all__ = ["BudgetExhausted", "Collector"]


class BudgetExhausted(RuntimeError):
    """Raised when a measurement would exceed the run budget."""


@dataclass
class Collector:
    """Budgeted access to workflow and component measurements.

    Parameters
    ----------
    pool:
        Pre-measured workflow pool (ground truth for pool configs).
    objective:
        The metric being optimised; ``measure_batch`` returns its values.
    histories:
        Per-label :class:`~repro.workflows.pools.ComponentHistory` sets
        components are "run" against (free to read, §7.5); any mapping,
        so a :class:`~repro.workflows.pools.ComponentHistories` stays
        ungenerated until a session reads it.
    budget_runs:
        Total workflow-run budget ``m``; ``None`` disables enforcement.
    failure_rate / failure_seed:
        Optional fault injection: each run fails independently with this
        probability (budget and cost are still charged).
    store:
        Optional :class:`~repro.store.db.StoreBinding`: every paid
        ``measure_batch``/``measure_components`` batch is durably recorded
        through it (write-through, one transaction per batch).  Purely
        observational — results are bit-identical with or without it.
    """

    pool: MeasuredPool
    objective: Objective
    histories: Mapping = field(default_factory=dict)
    budget_runs: int | None = None
    failure_rate: float = 0.0
    failure_seed: int = 0
    store: object | None = None

    runs_used: int = field(init=False, default=0)
    # One accumulator per observable, named after it (``cost`` reads
    # ``"cost_" + objective_field(name)``).
    cost_execution_seconds: float = field(init=False, default=0.0)
    cost_computer_core_hours: float = field(init=False, default=0.0)
    failures: int = field(init=False, default=0)
    _measured: dict = field(init=False, default_factory=dict)
    _fail_rng: np.random.Generator = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        self._fail_rng = np.random.default_rng(self.failure_seed)

    # -- budget ---------------------------------------------------------------

    @property
    def runs_remaining(self) -> int | float:
        """Remaining run budget (``math.inf`` when unenforced).

        Returning infinity instead of a magic sentinel keeps unenforced
        budgets honest in reports: arithmetic and comparisons behave,
        and the value can never masquerade as a real remaining count.
        """
        if self.budget_runs is None:
            return math.inf
        return self.budget_runs - self.runs_used

    def _charge(self, runs: int) -> None:
        if self.budget_runs is not None and self.runs_used + runs > self.budget_runs:
            raise BudgetExhausted(
                f"requested {runs} runs with only {self.runs_remaining} left "
                f"of budget {self.budget_runs}"
            )
        self.runs_used += runs

    # -- workflow runs -----------------------------------------------------------

    def measure_batch(self, configs: Sequence[Configuration]) -> dict:
        """Run the workflow at ``configs``; return ``{config: value}``.

        The canonical batched measurement entry: each configuration is
        looked up in the pool (an off-pool configuration raises
        ``KeyError``).  Failed runs (fault injection) are charged but
        omitted from the result.  Re-measuring an already-measured
        configuration is a programming error — it would silently waste
        budget.
        """
        tel = telemetry.get()
        if not tel.enabled:
            return self._measure(configs)
        failures_before = self.failures
        with tel.span(
            "collector.measure", category="collector", batch=len(configs)
        ) as span:
            out = self._measure(configs)
            span.set(measured=len(out), failures=self.failures - failures_before)
        tel.counter("runs_measured").inc(len(configs))
        if self.failures > failures_before:
            tel.counter("run_failures").inc(self.failures - failures_before)
        return out

    def _measure(self, configs: Sequence[Configuration]) -> dict:
        out: dict = {}
        recorded: list = []
        try:
            for config in configs:
                config = tuple(config)
                if config in self._measured:
                    raise ValueError(
                        f"configuration {config!r} was already measured; "
                        "algorithms must draw fresh configurations"
                    )
                self._charge(1)
                measurement = self.pool.lookup(config)
                self.cost_execution_seconds += measurement.execution_seconds
                self.cost_computer_core_hours += measurement.computer_core_hours
                if self.failure_rate > 0 and self._fail_rng.random() < self.failure_rate:
                    self.failures += 1
                    continue
                value = measurement.objective(self.objective.name)
                self._measured[config] = value
                out[config] = value
                recorded.append((config, measurement))
        finally:
            # Even a batch aborted mid-way (exhausted budget) durably
            # records the measurements it did pay for.
            if self.store is not None and recorded:
                self.store.record_workflow(recorded)
        return out

    def adopt(self, measurements: dict) -> int:
        """Adopt free, already-measured values (warm start).

        The configurations enter :attr:`measured` without consuming
        budget or accumulating cost — they were paid for by an earlier
        session and replayed from the measurement store.  Already-known
        configurations are skipped; returns the number adopted.
        """
        count = 0
        for config, value in measurements.items():
            config = tuple(config)
            if config in self._measured:
                continue
            self._measured[config] = float(value)
            count += 1
        return count

    @property
    def measured(self) -> dict:
        """All successful workflow measurements so far ``{config: value}``."""
        return dict(self._measured)

    @property
    def n_measured(self) -> int:
        """Number of successful workflow measurements so far."""
        return len(self._measured)

    # -- component runs -------------------------------------------------------------

    def measure_components(
        self, n_batches: int, rng: np.random.Generator
    ) -> dict[str, ComponentHistory]:
        """Run every component ``n_batches`` times at random configurations.

        Draws without replacement from each component's history set and
        charges ``n_batches`` workflow runs plus the solo costs.
        """
        tel = telemetry.get()
        if not tel.enabled:
            return self._measure_components(n_batches, rng)
        with tel.span(
            "collector.measure_components",
            category="collector",
            batches=n_batches,
        ) as span:
            out = self._measure_components(n_batches, rng)
            span.set(components=len(out))
        tel.counter("component_batches").inc(n_batches)
        return out

    def _measure_components(
        self, n_batches: int, rng: np.random.Generator
    ) -> dict[str, ComponentHistory]:
        if n_batches < 0:
            raise ValueError("n_batches must be non-negative")
        if n_batches == 0:
            return {}
        if not self.histories:
            raise RuntimeError("collector has no component histories to draw from")
        for label, history in self.histories.items():
            if n_batches > len(history):
                raise ValueError(
                    f"component {label!r} has only {len(history)} solo "
                    f"measurements, cannot run {n_batches}"
                )
        self._charge(n_batches)
        out: dict[str, ComponentHistory] = {}
        for label, history in self.histories.items():
            idx = rng.choice(len(history), size=n_batches, replace=False)
            out[label] = batch = history.subset(idx)
            self.cost_execution_seconds += float(batch.execution_seconds.sum())
            self.cost_computer_core_hours += float(batch.computer_core_hours.sum())
        if self.store is not None:
            for label, batch in out.items():
                self.store.record_components(
                    label,
                    batch.configs,
                    batch.execution_seconds,
                    batch.computer_core_hours,
                )
        return out

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Picklable snapshot of all mutable accounting state.

        Preserves the measured-dict insertion order and the failure
        RNG's bit-generator state, so a collector restored into a fresh
        session continues bit-identically.
        """
        return {
            "runs_used": self.runs_used,
            "cost_execution_seconds": self.cost_execution_seconds,
            "cost_computer_core_hours": self.cost_computer_core_hours,
            "failures": self.failures,
            "measured": tuple(self._measured.items()),
            "fail_rng_state": self._fail_rng.bit_generator.state,
            # The store binding itself is reconstructed by the caller;
            # only the session id round-trips, so a resumed run keeps
            # recording under the session it started as and the store's
            # row-key dedupe never sees a second session's duplicates.
            "store_session": (
                self.store.session if self.store is not None else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.runs_used = state["runs_used"]
        self.cost_execution_seconds = state["cost_execution_seconds"]
        self.cost_computer_core_hours = state["cost_computer_core_hours"]
        self.failures = state["failures"]
        self._measured = dict(state["measured"])
        self._fail_rng.bit_generator.state = state["fail_rng_state"]
        session = state.get("store_session")
        if self.store is not None and session:
            self.store.session = session

    def cost(self, objective: Objective | None = None) -> float:
        """Accumulated data-collection cost ``c`` in objective units."""
        objective = objective or self.objective
        return getattr(self, "cost_" + objective_field(objective.name))
