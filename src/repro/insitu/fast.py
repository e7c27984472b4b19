"""Batched coupled-run measurement: the vectorized DES fast path.

:func:`~repro.insitu.coupled.run_coupled` executes one configuration at
a time through the event engine — generators, heap scheduling, and a
fresh :class:`~repro.insitu.transport.StagingChannelModel` per message.
Per-configuration DES runs dominate every pool build and every paid
measurement batch, so this module replays the *same arithmetic* without
the event engine:

1. **Memoized channel costs.**  Per (producer placement, consumer
   placement, payload) triple, publish/drain seconds are computed once
   instead of once per message.
2. **Steady-state recurrence.**  All catalog apps declare
   ``stationary_steps``: a component's per-step costs (drain, compute,
   publish) are constant across the run, so the coupled timeline reduces
   to a short recurrence over steps — each resume timestamp is either a
   float addition (``now + delay``) or a selection (``max``) of another
   component's timestamp, exactly the operations the event heap would
   perform, in the same order.  The whole ``ask()`` batch advances in
   lock-step as numpy arrays (one lane per configuration).

Because additions and selections are replayed in the engine's order, the
fast path is **bit-identical** to the oracle — enforced by
``tests/test_insitu_fast.py`` and the pinned regression suite.  The
sweep disengages (falling back to per-config :func:`run_coupled`) when

* ``REPRO_NO_FAST_DES=1`` is set (mirrors ``REPRO_NO_NATIVE``),
* any component app sets ``stationary_steps = False``, or
* two couplings compare equal (they would share one staging store,
  which the per-coupling recurrence does not model).

The derivation (buffer back-pressure as a ``max`` over the consumer's
lagged removal times) is documented in DESIGN.md §12.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro import telemetry
from repro.config.space import Configuration
from repro.insitu.coupled import CoupledRunResult, run_coupled
from repro.insitu.measurement import (
    WorkflowMeasurement,
    observe_run,
    stable_seed,
)
from repro.insitu.transport import StagingChannelModel
from repro.insitu.workflow import WorkflowDefinition

__all__ = [
    "fast_path_enabled",
    "fast_path_reason",
    "measure_batch",
    "run_coupled_batch",
    "run_coupled_fast",
]


def fast_path_enabled() -> bool:
    """False when ``REPRO_NO_FAST_DES`` forces the DES oracle."""
    return not os.environ.get("REPRO_NO_FAST_DES")


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


# -- per-configuration constant costs ------------------------------------------------


@dataclass(frozen=True)
class _RunCosts:
    """The constant per-step costs of one configuration.

    ``startup``/``compute`` align with the plan's ``order``;
    ``drain``/``publish``/``buffers`` align with ``workflow.couplings``.
    """

    n_steps: int
    nodes: int
    startup: tuple
    compute: tuple
    drain: tuple
    publish: tuple
    buffers: tuple


def _run_costs(
    workflow: WorkflowDefinition,
    config: Configuration,
    plan: _SweepPlan,
    channel_cache: dict,
) -> _RunCosts:
    """Validate ``config`` and extract its constant per-step costs.

    Validation mirrors :func:`run_coupled` exactly (same checks, same
    messages) so callers observe identical errors on either path.
    """
    machine = workflow.machine
    workflow.space.validate(config)
    if not workflow.constraint(config):
        raise ValueError(
            f"configuration {config!r} is infeasible on {workflow.name} "
            f"(needs {workflow.constraint.total_nodes(config)} nodes, cap "
            f"{machine.max_nodes}; or oversubscribed cores)"
        )
    n_steps = workflow.steps(config)
    placements = {
        label: workflow.app(label).placement(
            workflow.component_config(label, config)
        )
        for label in workflow.labels
    }
    for placement in placements.values():
        placement.validate(machine)

    n_streams = len(workflow.couplings)
    payload: list = [None] * n_streams
    startup = []
    compute = []
    for label in plan.order:
        app = workflow.app(label)
        comp_config = workflow.component_config(label, config)
        # Accumulate in inputs_of order — float addition order matters.
        input_bytes = 0.0
        for ci in plan.inputs[label]:
            input_bytes += payload[ci]
        profile = app.step_profile(machine, comp_config, input_bytes)
        for ci in plan.outputs[label]:
            payload[ci] = profile.output_bytes
        startup.append(app.startup_seconds(machine, comp_config))
        compute.append(profile.compute_seconds)

    drain = []
    publish = []
    buffers = []
    for ci, coupling in enumerate(workflow.couplings):
        key = (placements[coupling.producer], placements[coupling.consumer],
               payload[ci])
        costs = channel_cache.get(key)
        if costs is None:
            channel = StagingChannelModel(
                machine=machine,
                producer=placements[coupling.producer],
                consumer=placements[coupling.consumer],
                message_bytes=payload[ci],
                concurrent_streams=n_streams,
            )
            costs = (channel.publish_seconds(), channel.drain_seconds())
            channel_cache[key] = costs
        publish.append(costs[0])
        drain.append(costs[1])
        buffers.append(workflow.buffer_messages(coupling, config))

    return _RunCosts(
        n_steps=n_steps,
        nodes=sum(p.nodes for p in placements.values()),
        startup=tuple(startup),
        compute=tuple(compute),
        drain=tuple(drain),
        publish=tuple(publish),
        buffers=tuple(buffers),
    )


# -- the vectorized recurrence -------------------------------------------------------


def _sweep(plan: _SweepPlan, runs: list, n_steps: int, n_couplings: int):
    """Advance every configuration's timeline through ``n_steps`` steps.

    Replays the engine's arithmetic: a resume timestamp is ``prev +
    cost`` after a timeout, the other endpoint's timestamp after a
    blocking put/get.  Message ``i`` enters a coupling's buffer at the
    put-grant time ``a_i = max(call, r_{i-B})`` (``r_j`` = the
    consumer's ``j``-th removal, ``B`` = buffer depth) and is removed at
    ``r_i = max(get_call, a_i)`` — both pure selections, so every lane
    of the batch lands on exactly the floats the event heap would.
    """
    n = len(runs)
    lanes = np.arange(n)
    startup = {
        label: np.array([r.startup[k] for r in runs], dtype=np.float64)
        for k, label in enumerate(plan.order)
    }
    compute = {
        label: np.array([r.compute[k] for r in runs], dtype=np.float64)
        for k, label in enumerate(plan.order)
    }
    drain = [
        np.array([r.drain[ci] for r in runs], dtype=np.float64)
        for ci in range(n_couplings)
    ]
    publish = [
        np.array([r.publish[ci] for r in runs], dtype=np.float64)
        for ci in range(n_couplings)
    ]
    buffers = [
        np.array([r.buffers[ci] for r in runs], dtype=np.int64)
        for ci in range(n_couplings)
    ]
    # Put-grant and removal timestamps per coupling, per step, per lane.
    a_hist = [np.empty((n_steps, n)) for _ in range(n_couplings)]
    r_hist = [np.empty((n_steps, n)) for _ in range(n_couplings)]

    clock = {label: startup[label].copy() for label in plan.order}
    busy = {label: startup[label].copy() for label in plan.order}

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


def run_coupled_batch(
    workflow: WorkflowDefinition,
    configs,
) -> list[CoupledRunResult]:
    """Coupled-run results for a whole batch of configurations.

    Bit-identical to ``[run_coupled(workflow, c) for c in configs]``;
    uses the vectorized sweep when the workflow is eligible and
    ``REPRO_NO_FAST_DES`` is unset, the DES oracle otherwise.
    """
    configs = list(configs)
    if not fast_path_enabled() or fast_path_reason(workflow) is not None:
        return [run_coupled(workflow, config) for config in configs]
    if not configs:
        return []
    tel = telemetry.get()
    if tel.enabled:
        with tel.span(
            "insitu.fast_sweep",
            category="insitu",
            workflow=workflow.name,
            batch=len(configs),
        ):
            results = _run_batch(workflow, configs)
        tel.counter("des.fast_runs").inc(len(configs))
    else:
        results = _run_batch(workflow, configs)
    return results


def _run_batch(workflow, configs) -> list[CoupledRunResult]:
    plan = _plan(workflow)
    channel_cache: dict = {}
    costs = [
        _run_costs(workflow, config, plan, channel_cache) for config in configs
    ]
    # Step counts can be configuration-dependent (HS); sweep each group
    # of equal-length timelines as one numpy batch.
    groups: dict[int, list[int]] = {}
    for index, run in enumerate(costs):
        groups.setdefault(run.n_steps, []).append(index)

    n_couplings = len(workflow.couplings)
    results: list = [None] * len(configs)
    for n_steps, indices in groups.items():
        runs = [costs[i] for i in indices]
        clock, busy = _sweep(plan, runs, n_steps, n_couplings)
        for lane, index in enumerate(indices):
            component_seconds = {
                label: float(clock[label][lane]) for label in workflow.labels
            }
            results[index] = CoupledRunResult(
                component_seconds=component_seconds,
                execution_seconds=max(component_seconds.values()),
                busy_seconds={
                    label: float(busy[label][lane])
                    for label in workflow.labels
                },
                steps=n_steps,
                nodes=runs[lane].nodes,
            )
    return results


def run_coupled_fast(
    workflow: WorkflowDefinition,
    config: Configuration,
    tracer=None,
) -> CoupledRunResult:
    """Single-configuration convenience over :func:`run_coupled_batch`.

    Tracing needs real events, so a ``tracer`` always routes through the
    oracle.
    """
    if tracer is not None:
        return run_coupled(workflow, config, tracer)
    return run_coupled_batch(workflow, [config])[0]


# -- measurement ---------------------------------------------------------------------


def measure_batch(
    workflow: WorkflowDefinition,
    configs,
    noise_sigma: float = 0.05,
    noise_seed: int = 0,
    replicates: int = 1,
) -> list[WorkflowMeasurement]:
    """Measure a batch of configurations through :func:`run_coupled_batch`.

    Bit-identical to calling :func:`measure_workflow` per configuration
    (including the per-replicate noise seeds and averaging of
    ``generate_pool``); the coupled run itself is noise-free, so
    replicates reuse one run and redraw only the noise factors.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    configs = list(configs)
    results = run_coupled_batch(workflow, configs)
    out = []
    for config, result in zip(configs, results):
        if replicates == 1:
            out.append(
                observe_run(workflow, config, result, noise_sigma, noise_seed)
            )
            continue
        runs = [
            observe_run(
                workflow, config, result, noise_sigma,
                stable_seed(noise_seed, rep),
            )
            for rep in range(replicates)
        ]
        out.append(_mean_measurement(runs))
    return out


def _mean_measurement(runs: list) -> WorkflowMeasurement:
    """Average replicate measurements (same reduction as ``generate_pool``)."""
    labels = runs[0].component_seconds.keys()
    return WorkflowMeasurement(
        config=runs[0].config,
        execution_seconds=float(np.mean([r.execution_seconds for r in runs])),
        computer_core_hours=float(
            np.mean([r.computer_core_hours for r in runs])
        ),
        component_seconds={
            label: float(np.mean([r.component_seconds[label] for r in runs]))
            for label in labels
        },
        nodes=runs[0].nodes,
        steps=runs[0].steps,
    )
