"""Batched coupled-run measurement: the vectorized DES fast path.

:func:`~repro.insitu.coupled.run_coupled` executes one configuration at
a time through the event engine — generators, heap scheduling, and a
fresh :class:`~repro.insitu.transport.StagingChannelModel` per message.
Per-configuration DES runs dominate every pool build and every paid
measurement batch, so this module replays the *same arithmetic* without
the event engine:

1. **One array cost pass.**  Validity, placements, start-up, per-step
   compute, payloads and channel publish/drain seconds of the whole
   batch come from the apps' array forms (``placement_batch``,
   ``step_profile_batch``, ``startup_seconds_batch``) and
   :func:`~repro.insitu.transport.channel_costs_batch`: a few numpy
   operations per component and coupling, not a Python loop per
   configuration.  ``math.log2`` and ``**`` terms take one scalar call
   per distinct argument, so every cost is the scalar path's float.
2. **Steady-state recurrence.**  All catalog apps declare
   ``stationary_steps``: a component's per-step costs (drain, compute,
   publish) are constant across the run, so the coupled timeline reduces
   to a short recurrence over steps — each resume timestamp is either a
   float addition (``now + delay``) or a selection (``max``) of another
   component's timestamp, exactly the operations the event heap would
   perform, in the same order.  The whole ``ask()`` batch advances in
   lock-step as numpy arrays (one lane per configuration).
3. **Columns, not objects.**  The sweep yields one array per observable;
   :func:`measure_batch` scales them by the batch's noise factors
   (:func:`~repro.insitu.measurement.noise_factors`, one seed pass) and
   returns a :class:`~repro.insitu.measurement.MeasuredBatch`.
   :func:`run_coupled_batch` is the per-configuration view of the same
   columns.

Because additions and selections are replayed in the engine's order, the
fast path is **bit-identical** to the oracle — enforced by
``tests/test_insitu_fast.py`` and the pinned regression suite.  The
sweep disengages (falling back to per-config :func:`run_coupled`) when

* any component app sets ``stationary_steps = False``,
* two couplings compare equal (they would share one staging store,
  which the per-coupling recurrence does not model), or
* the batch is not a numeric matrix (a row of the wrong length, or a
  non-numeric value); the oracle then raises or runs each row itself.

The derivation (buffer back-pressure as a ``max`` over the consumer's
lagged removal times) is documented in DESIGN.md §12.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro import telemetry
from repro.cluster.allocation import allocation_ok
from repro.insitu.coupled import CoupledRunResult, run_coupled
from repro.insitu.measurement import MeasuredBatch, noise_factors, stable_seed
from repro.insitu.transport import channel_costs_batch
from repro.insitu.workflow import WorkflowDefinition

__all__ = [
    "fast_path_reason",
    "measure_batch",
    "run_coupled_batch",
]


def fast_path_reason(workflow: WorkflowDefinition) -> str | None:
    """Why ``workflow`` cannot use the sweep (``None`` when it can)."""
    if len(set(workflow.couplings)) != len(workflow.couplings):
        return "duplicate couplings would share one staging store"
    for label in workflow.labels:
        if not getattr(workflow.app(label), "stationary_steps", False):
            return f"component {label!r} declares non-stationary step profiles"
    return None


# -- per-workflow sweep plan ---------------------------------------------------------


@dataclass(frozen=True)
class _SweepPlan:
    """Topology of one workflow, indexed for the recurrence.

    ``order`` is a topological order of the component labels, so a
    consumer's step-``i`` get always sees its producers' step-``i``
    put-grant times, written earlier in the same sweep iteration.  Coupling
    indices refer to ``workflow.couplings`` and preserve the
    ``inputs_of``/``outputs_of`` iteration order of the DES processes.
    """

    order: tuple[str, ...]
    inputs: dict
    outputs: dict


def _plan(workflow: WorkflowDefinition) -> _SweepPlan:
    order = tuple(nx.topological_sort(workflow.graph))
    inputs = {
        label: tuple(
            i for i, c in enumerate(workflow.couplings) if c.consumer == label
        )
        for label in workflow.labels
    }
    outputs = {
        label: tuple(
            i for i, c in enumerate(workflow.couplings) if c.producer == label
        )
        for label in workflow.labels
    }
    return _SweepPlan(order=order, inputs=inputs, outputs=outputs)


# -- the batch's constant costs ------------------------------------------------------


@dataclass(frozen=True)
class _BatchCosts:
    """The constant per-step costs of a batch, one array row per configuration.

    ``startup``/``compute`` map component labels to arrays;
    ``drain``/``publish``/``buffers`` are lists aligned with
    ``workflow.couplings``.
    """

    steps: np.ndarray
    nodes: np.ndarray
    startup: dict
    compute: dict
    drain: list
    publish: list
    buffers: list


def _check(workflow: WorkflowDefinition, configs: list, ok: np.ndarray) -> None:
    """Raise the per-configuration loop's first error when ``ok`` rejects a row.

    The scalar validation is the arbiter: once any row is rejected, it
    runs in batch order on every row up to the last rejected one, so
    the batch raises exactly the error :func:`run_coupled` would raise
    first.
    """
    rejected = np.flatnonzero(~ok)
    if rejected.size:
        for config in configs[: rejected[-1] + 1]:
            workflow.placements(config)


def _batch_costs(
    workflow: WorkflowDefinition, plan: _SweepPlan, configs: list, values
) -> _BatchCosts:
    """Validate the batch and compute its constant costs as arrays."""
    machine = workflow.machine
    # Space membership first: placements are defined on the space only.
    _check(workflow, configs, workflow.space.contains_batch(values))
    columns = {
        label: workflow.component_columns(label, values) for label in workflow.labels
    }
    placements = {
        label: workflow.app(label).placement_batch(columns[label])
        for label in workflow.labels
    }
    _check(workflow, configs, allocation_ok(placements.values(), machine))

    n_streams = len(workflow.couplings)
    payload: list = [None] * n_streams
    startup = {}
    compute = {}
    for label in plan.order:
        app = workflow.app(label)
        # Accumulate in inputs_of order — float addition order matters.
        input_bytes = np.zeros(len(configs))
        for ci in plan.inputs[label]:
            input_bytes = input_bytes + payload[ci]
        compute[label], output_bytes = app.step_profile_batch(
            machine, columns[label], input_bytes
        )
        for ci in plan.outputs[label]:
            payload[ci] = output_bytes
        startup[label] = app.startup_seconds_batch(machine, columns[label])

    publish = []
    drain = []
    for ci, coupling in enumerate(workflow.couplings):
        costs = channel_costs_batch(
            machine,
            placements[coupling.producer],
            placements[coupling.consumer],
            payload[ci],
            concurrent_streams=n_streams,
        )
        publish.append(costs[0])
        drain.append(costs[1])

    return _BatchCosts(
        steps=workflow.steps_batch(values),
        nodes=sum(p.nodes for p in placements.values()),
        startup=startup,
        compute=compute,
        drain=drain,
        publish=publish,
        buffers=[
            workflow.buffer_messages_batch(coupling, values)
            for coupling in workflow.couplings
        ],
    )


# -- the vectorized recurrence -------------------------------------------------------


def _sweep(plan: _SweepPlan, costs: _BatchCosts, group: np.ndarray, n_steps: int):
    """Advance the batch rows ``group`` through ``n_steps`` steps.

    Replays the engine's arithmetic: a resume timestamp is ``prev +
    cost`` after a timeout, the other endpoint's timestamp after a
    blocking put/get.  Message ``i`` enters a coupling's buffer at the
    put-grant time ``a_i = max(call, r_{i-B})`` (``r_j`` = the
    consumer's ``j``-th removal, ``B`` = buffer depth) and is removed at
    ``r_i = max(get_call, a_i)`` — both pure selections, so every lane
    of the batch lands on exactly the floats the event heap would.
    """
    n = len(group)
    lanes = np.arange(n)
    compute = {label: costs.compute[label][group] for label in plan.order}
    drain = [d[group] for d in costs.drain]
    publish = [p[group] for p in costs.publish]
    buffers = [b[group] for b in costs.buffers]
    # Put-grant and removal timestamps per coupling, per step, per lane.
    a_hist = [np.empty((n_steps, n)) for _ in drain]
    r_hist = [np.empty((n_steps, n)) for _ in drain]

    clock = {label: costs.startup[label][group] for label in plan.order}
    busy = dict(clock)

    for i in range(n_steps):
        for label in plan.order:
            t = clock[label]
            b = busy[label]
            for ci in plan.inputs[label]:
                removed = np.maximum(t, a_hist[ci][i])
                r_hist[ci][i] = removed
                t = removed + drain[ci]
                b = b + drain[ci]
            t = t + compute[label]
            b = b + compute[label]
            for ci in plan.outputs[label]:
                t = t + publish[ci]
                b = b + publish[ci]
                lag = i - buffers[ci]
                if lag.max() >= 0:
                    gate = r_hist[ci][np.maximum(lag, 0), lanes]
                    t = np.where(lag >= 0, np.maximum(t, gate), t)
                a_hist[ci][i] = t
            clock[label] = t
            busy[label] = b
    return clock, busy


@dataclass(frozen=True)
class _Runs:
    """A batch's noise-free coupled runs, one array per observable.

    ``component_seconds``/``busy_seconds`` map each label, in
    ``workflow.labels`` order, to a float64 column; ``nodes`` and
    ``steps`` are int64 columns.
    """

    component_seconds: dict
    busy_seconds: dict
    nodes: np.ndarray
    steps: np.ndarray

    @classmethod
    def of(cls, labels, results: list) -> "_Runs":
        """The columns of a list of :class:`CoupledRunResult`."""

        def columns(field):
            return {
                label: np.array(
                    [getattr(r, field)[label] for r in results], dtype=np.float64
                )
                for label in labels
            }

        return cls(
            component_seconds=columns("component_seconds"),
            busy_seconds=columns("busy_seconds"),
            nodes=np.array([r.nodes for r in results], dtype=np.int64),
            steps=np.array([r.steps for r in results], dtype=np.int64),
        )

    def results(self) -> list[CoupledRunResult]:
        """The per-configuration view of the batch."""
        clock = {k: v.tolist() for k, v in self.component_seconds.items()}
        busy = {k: v.tolist() for k, v in self.busy_seconds.items()}
        results = []
        for row, (nodes, steps) in enumerate(
            zip(self.nodes.tolist(), self.steps.tolist())
        ):
            component_seconds = {label: clock[label][row] for label in clock}
            results.append(
                CoupledRunResult(
                    component_seconds=component_seconds,
                    execution_seconds=max(component_seconds.values()),
                    busy_seconds={label: busy[label][row] for label in busy},
                    steps=steps,
                    nodes=nodes,
                )
            )
        return results


def _coupled_runs(
    workflow: WorkflowDefinition, configs: list, values: np.ndarray | None
) -> _Runs:
    """The noise-free coupled runs of a batch, as columns.

    The one place that chooses between the vectorized sweep and the
    per-configuration :func:`run_coupled` oracle; ``values`` is the
    batch's :func:`_value_matrix`.
    """
    if not configs or values is None or fast_path_reason(workflow) is not None:
        return _Runs.of(
            workflow.labels, [run_coupled(workflow, c) for c in configs]
        )
    tel = telemetry.get()
    if not tel.enabled:
        return _run_batch(workflow, configs, values)
    with tel.span(
        "insitu.fast_sweep",
        category="insitu",
        workflow=workflow.name,
        batch=len(configs),
    ):
        runs = _run_batch(workflow, configs, values)
    tel.counter("des.fast_runs").inc(len(configs))
    return runs


def run_coupled_batch(
    workflow: WorkflowDefinition,
    configs,
) -> list[CoupledRunResult]:
    """Coupled-run results for a whole batch of configurations.

    Bit-identical to ``[run_coupled(workflow, c) for c in configs]``;
    uses the vectorized sweep when the workflow is eligible and the
    batch is a numeric matrix, the DES oracle otherwise.
    """
    configs = list(configs)
    values = _value_matrix(workflow.space, configs)
    return _coupled_runs(workflow, configs, values).results()


def _value_matrix(space, configs: list):
    """The batch as a numeric ``(n, dimension)`` matrix, or ``None``."""
    if not configs:
        return None
    try:
        values = space.value_matrix(configs)
    except ValueError:
        return None
    return None if values.dtype == object else values


def _run_batch(workflow, configs, values) -> _Runs:
    plan = _plan(workflow)
    costs = _batch_costs(workflow, plan, configs, values)
    labels = workflow.labels
    clock = {label: np.empty(len(configs)) for label in labels}
    busy = {label: np.empty(len(configs)) for label in labels}
    # Step counts can be configuration-dependent (HS); sweep each group
    # of equal-length timelines as one numpy batch.
    for n_steps in np.unique(costs.steps).tolist():
        group = np.flatnonzero(costs.steps == n_steps)
        group_clock, group_busy = _sweep(plan, costs, group, n_steps)
        for label in labels:
            clock[label][group] = group_clock[label]
            busy[label][group] = group_busy[label]
    return _Runs(
        component_seconds=clock,
        busy_seconds=busy,
        nodes=costs.nodes,
        steps=costs.steps,
    )


# -- measurement ---------------------------------------------------------------------


def measure_batch(
    workflow: WorkflowDefinition,
    configs,
    noise_sigma: float = 0.05,
    noise_seed: int = 0,
    replicates: int = 1,
) -> MeasuredBatch:
    """Measure a batch of configurations as columns.

    Row for row bit-identical to :func:`measure_workflow` (including the
    per-replicate noise seeds and averaging of ``generate_pool``).  The
    coupled run is noise-free, so it runs once per configuration
    (:func:`run_coupled_batch`'s sweep or oracle) and each replicate
    redraws only the :func:`noise_factors` column.  Every observable is
    scaled by its row's factor in the scalar path's operation order, and
    replicates average a C-contiguous ``(n, replicates)`` matrix with
    ``mean(axis=1)``, which equals ``np.mean`` of each row's list.  The
    sweep's numeric value matrix of the batch is kept, as float64, in
    the batch's ``values``.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    configs = tuple(tuple(config) for config in configs)
    batch = list(configs)
    values = _value_matrix(workflow.space, batch)
    runs = _coupled_runs(workflow, batch, values)
    seeds = (
        [noise_seed]
        if replicates == 1
        else [stable_seed(noise_seed, rep) for rep in range(replicates)]
    )
    factors = np.column_stack(
        [noise_factors(workflow.name, configs, noise_sigma, s) for s in seeds]
    )
    # The longest component time: np.maximum is a selection, so exact.
    exec_seconds = functools.reduce(np.maximum, runs.component_seconds.values())
    observed = exec_seconds[:, None] * factors
    core_hours = workflow.machine.core_hours(observed, runs.nodes[:, None])
    return MeasuredBatch(
        configs=configs,
        execution_seconds=observed.mean(axis=1),
        computer_core_hours=core_hours.mean(axis=1),
        component_seconds={
            label: (seconds[:, None] * factors).mean(axis=1)
            for label, seconds in runs.component_seconds.items()
        },
        nodes=runs.nodes,
        steps=runs.steps,
        values=None if values is None else values.astype(np.float64),
    )
