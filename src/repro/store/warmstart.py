"""Warm-starting tuning sessions from stored measurements.

Two layers, matching the paper's two reuse claims:

* **Component warm-start** (``--warm-start components``): Phase 1 of
  CEAL/ALpH seeds its per-component models from *stored solo runs of
  the same component*, matched by (label, component space signature,
  machine signature, objective) across **any** workflow — the paper's
  cross-workflow reuse of historical component measurements (§7.5).
  They come back as :class:`~repro.workflows.pools.ComponentHistory`
  objects, the type of every Phase-1 data source.  With enough stored
  samples the session pays zero component batches.

* **Measurement adoption** (``--warm-start full``): before the first
  proposal, stored *workflow* measurements whose context matches the
  session's (same workflow, space, encoding, machine, objective) and
  whose configurations exist in the current candidate pool are adopted
  into the collector as free, already-measured samples.  Strategies see
  them through ``collector.measured`` / the candidate tracker exactly
  like paid runs, so every algorithm benefits without code changes.

Both layers are strictly additive: with an empty or absent store they
find nothing and the session proceeds bit-identically to a cold run;
with a populated store the result is a deterministic function of the
store's contents (query order is the store's insertion order).
"""

from __future__ import annotations

from repro import telemetry
from repro.store.signatures import space_signature
from repro.workflows.pools import ComponentHistory

__all__ = [
    "MIN_WARM_SAMPLES",
    "WARM_START_MODES",
    "adopt_stored_measurements",
    "component_warm_data",
]

#: Valid ``warm_start`` modes of a tuning problem.
WARM_START_MODES = ("off", "components", "full")

#: Minimum stored solo samples per configurable component before the
#: warm-start replaces paid component batches.  Below this the stored
#: corpus cannot support a useful component model (2 is the hard floor
#: of ``ComponentModelSet.train``; 4 keeps a margin).
MIN_WARM_SAMPLES = 4


def component_warm_data(
    problem, min_samples: int = MIN_WARM_SAMPLES
) -> dict[str, ComponentHistory] | None:
    """Stored solo measurements covering every configurable component.

    Returns ``{label: ComponentHistory}`` when the bound store holds
    at least ``min_samples`` matching solo runs for *every* configurable
    component of the problem's workflow — matched cross-workflow by
    (label, space signature, machine signature, objective) — or ``None``
    when any component falls short (the caller then pays for fresh
    batches as usual).
    """
    binding = problem.collector.store
    if binding is None:
        return None
    workflow = problem.workflow
    objective = problem.objective.name
    out: dict[str, ComponentHistory] = {}
    for label in workflow.labels:
        app = workflow.app(label)
        if app.space.size() <= 1:
            continue
        matches = binding.store.query(
            kind="component",
            space_sig=space_signature(app.space),
            label=label,
            machine_sig=binding.machine_sig,
            objective=objective,
        )
        if len(matches) < max(min_samples, 2):
            return None
        out[label] = ComponentHistory(
            label=label,
            configs=matches.configs,
            execution_seconds=matches.values("execution_time"),
            computer_core_hours=matches.values("computer_time"),
        )
    if not out:
        return None
    tel = telemetry.get()
    if tel.enabled:
        tel.counter("store.warm_components").inc(sum(map(len, out.values())))
    return out


def adopt_stored_measurements(session) -> int:
    """Adopt matching stored workflow measurements into the session.

    Only configurations present in the current candidate pool (and not
    already measured) are adopted; they are marked attempted in the
    tracker and recorded in the collector free of budget and cost.
    Returns the number of adopted measurements.
    """
    problem = session.problem
    collector = problem.collector
    binding = collector.store
    if binding is None:
        return 0
    context = binding.workflow_context()
    matches = binding.store.query(
        kind="workflow",
        space_sig=context.space_sig,
        workflow=context.workflow,
        machine_sig=context.machine_sig,
        objective=context.objective,
    )
    if not len(matches):
        return 0
    pool = problem.pool.table
    adopted: dict = {}
    for record in matches:
        config = record.config
        if config in pool and config not in adopted:
            adopted[config] = record.value
    if not adopted:
        return 0
    count = collector.adopt(adopted)
    session.tracker.mark(adopted)
    tel = telemetry.get()
    if tel.enabled:
        tel.counter("store.warm_measurements").inc(count)
    return count
