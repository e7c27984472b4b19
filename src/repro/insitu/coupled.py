"""Coupled in-situ execution as a discrete-event simulation.

Every component runs as a DES process:

1. pay its startup cost,
2. per step: pull one message from each input coupling (blocking on
   emptiness, then paying the drain cost), compute the step, and publish
   to each output coupling (paying the publish cost, then blocking if the
   bounded staging buffer is full).

The end-to-end wall-clock of a component is when its process finishes;
the workflow's execution time is the longest component wall-clock, the
paper's §7.1 protocol.  Because producers and consumers rendezvous
through bounded buffers, the simulated coupled time is systematically
*larger* than the analytical ``max`` of solo times whenever the pipeline
stalls — the exact fidelity gap CEAL's bootstrapping exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.config.space import Configuration
from repro.des import Environment, Store
from repro.insitu.transport import StagingChannelModel
from repro.insitu.workflow import WorkflowDefinition

__all__ = ["CoupledRunResult", "run_coupled"]


@dataclass(frozen=True)
class _Message:
    """One step's payload on a coupling."""

    step: int
    payload_bytes: float


@dataclass(frozen=True)
class CoupledRunResult:
    """Raw outcome of a coupled DES run (noise-free).

    Attributes
    ----------
    component_seconds:
        End-to-end wall-clock per component label.
    execution_seconds:
        Longest component wall-clock.
    busy_seconds:
        Per-component non-waiting time (startup + compute + transport);
        the gap to ``component_seconds`` is synchronisation stall.
    steps:
        Number of streamed steps.
    nodes:
        Total node footprint.
    """

    component_seconds: dict
    execution_seconds: float
    busy_seconds: dict
    steps: int
    nodes: int

    def stall_seconds(self, label: str) -> float:
        """Synchronisation stall of a component (waiting on couplings)."""
        return self.component_seconds[label] - self.busy_seconds[label]


def run_coupled(
    workflow: WorkflowDefinition,
    config: Configuration,
    tracer=None,
) -> CoupledRunResult:
    """Execute ``workflow`` under ``config`` in the in-situ mode.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.insitu.tracing.RunTracer`; when given,
        every activity interval (startup, compute, publish, drain,
        blocking waits) is recorded without affecting the simulation.

    Raises
    ------
    ValueError
        If the configuration is outside the joint space or infeasible on
        the workflow's machine.
    """
    machine = workflow.machine
    placements = workflow.placements(config)
    n_steps = workflow.steps(config)

    # Producer output sizes are configuration-dependent, so channel models
    # are derived from the producer's step profile under its actual input.
    n_streams = len(workflow.couplings)
    env = Environment()
    stores: dict = {}
    channels: dict = {}

    def channel_for(coupling, message_bytes: float) -> StagingChannelModel:
        return StagingChannelModel(
            machine=machine,
            producer=placements[coupling.producer],
            consumer=placements[coupling.consumer],
            message_bytes=message_bytes,
            concurrent_streams=n_streams,
        )

    for coupling in workflow.couplings:
        stores[coupling] = Store(
            env, capacity=workflow.buffer_messages(coupling, config)
        )

    finish: dict = {}
    busy: dict = {label: 0.0 for label in workflow.labels}

    def trace(label: str, kind: str, step: int, start: float) -> None:
        if tracer is not None:
            tracer.record(label, kind, step, start, env.now)

    def component_process(label: str):
        app = workflow.app(label)
        comp_config = workflow.component_config(label, config)
        inputs = workflow.inputs_of(label)
        outputs = workflow.outputs_of(label)
        startup = app.startup_seconds(machine, comp_config)
        busy[label] += startup
        t0 = env.now
        yield env.timeout(startup)
        trace(label, "startup", -1, t0)
        for step in range(n_steps):
            input_bytes = 0.0
            for coupling in inputs:
                t0 = env.now
                message = yield stores[coupling].get()
                trace(label, "wait_get", step, t0)
                drain = channel_for(coupling, message.payload_bytes).drain_seconds()
                busy[label] += drain
                t0 = env.now
                yield env.timeout(drain)
                trace(label, "drain", step, t0)
                input_bytes += message.payload_bytes
            profile = app.step_profile(machine, comp_config, input_bytes)
            busy[label] += profile.compute_seconds
            t0 = env.now
            yield env.timeout(profile.compute_seconds)
            trace(label, "compute", step, t0)
            for coupling in outputs:
                publish = channel_for(
                    coupling, profile.output_bytes
                ).publish_seconds()
                busy[label] += publish
                t0 = env.now
                yield env.timeout(publish)
                trace(label, "publish", step, t0)
                t0 = env.now
                yield stores[coupling].put(
                    _Message(step=step, payload_bytes=profile.output_bytes)
                )
                trace(label, "wait_put", step, t0)
        finish[label] = env.now

    tel = telemetry.get()
    if tel.enabled:
        with tel.span(
            "insitu.run_coupled",
            category="insitu",
            workflow=workflow.name,
            steps=n_steps,
        ) as span:
            processes = [
                env.process(component_process(label))
                for label in workflow.labels
            ]
            env.run(env.all_of(processes))
            span.set(des_events=env.events_processed)
        tel.counter("des.events").inc(env.events_processed)
        tel.counter("des.runs").inc()
        tel.gauge("des.peak_heap").set_max(env.peak_heap)
    else:
        processes = [
            env.process(component_process(label)) for label in workflow.labels
        ]
        env.run(env.all_of(processes))

    nodes = sum(p.nodes for p in placements.values())
    return CoupledRunResult(
        component_seconds=dict(finish),
        execution_seconds=max(finish.values()),
        busy_seconds=busy,
        steps=n_steps,
        nodes=nodes,
    )
