"""In-situ coupled execution of workflows on the simulated machine.

A :class:`~repro.insitu.workflow.WorkflowDefinition` is a DAG of
component applications joined by streaming couplings (the paper's Fig. 1
patterns).  :func:`~repro.insitu.coupled.run_coupled` executes it as a
discrete-event simulation: every component is a process that computes
its step, publishes to bounded staging buffers (back-pressure blocks the
producer, emptiness blocks the consumer), and pulls upstream data across
a shared fabric.  This reproduces the phenomena the paper attributes to
in-situ coupling — synchronisation stalls, pipelining, fabric contention
— and therefore the systematic error of component-model-based
(low-fidelity) predictions.

:func:`~repro.insitu.measurement.measure_workflow` wraps a coupled run
into the paper's two observables: execution time (longest component
wall-clock) and computer time (wall-clock × nodes × cores per node),
with optional deterministic measurement noise.

:mod:`repro.insitu.fast` evaluates whole batches of configurations
through one vectorized steady-state sweep, bit-identical to per-config
``run_coupled`` runs (the DES stays on as the verbatim oracle and the
fallback for non-stationary workflows); its ``measure_batch`` returns a
batch's observables as the columns of a
:class:`~repro.insitu.measurement.MeasuredBatch`.
"""

from repro.insitu.coupled import CoupledRunResult, run_coupled
from repro.insitu.fast import (
    fast_path_reason,
    measure_batch,
    run_coupled_batch,
)
from repro.insitu.measurement import (
    MeasuredBatch,
    WorkflowMeasurement,
    measure_workflow,
)
from repro.insitu.tracing import RunTracer, TraceEvent
from repro.insitu.transport import StagingChannelModel
from repro.insitu.workflow import Coupling, WorkflowDefinition

__all__ = [
    "Coupling",
    "CoupledRunResult",
    "MeasuredBatch",
    "RunTracer",
    "StagingChannelModel",
    "TraceEvent",
    "WorkflowDefinition",
    "WorkflowMeasurement",
    "fast_path_reason",
    "measure_batch",
    "measure_workflow",
    "run_coupled",
    "run_coupled_batch",
]
