"""Repeated-trial execution of tuning algorithms (the §7 protocol).

One *trial* = one algorithm tuning one workflow/objective with budget
``m`` and a fresh seed, against the shared pre-measured pool.  The paper
averages 100 trials per configuration; ``repeats`` controls that here.

Trial metrics cover every evaluation of §7.2: actual performance of the
predicted best configuration (normalised by the pool optimum), recall
curves, MdAPE over all and the top 2 % of the test set, and the
data-collection cost feeding the practicality metric.

Trials are independent given their seeds, so :func:`run_trials` can fan
them out across worker processes (``jobs`` argument, ``REPRO_JOBS``
environment override, ``--jobs`` on the CLI).  Parallel execution is
bit-identical to serial execution: every per-trial seed is derived up
front from ``(pool_seed, algorithm name, repeat)`` — never from worker
identity or scheduling order — and results are re-sorted into the
serial (algorithm-major, repeat-minor) order before returning.

The fan-out uses the ``fork`` start method so the shared measured pool
and component histories are inherited by workers instead of pickled;
only trial indices go out and :class:`TrialMetrics` come back.  Each
trial builds its algorithm from a plain-data
:class:`~repro.experiments.presets.AlgorithmFactor` through
:data:`repro.core.autotuner.ALGORITHMS`, the table the CLI and the
serve daemon use.  On platforms without ``fork`` the engine silently
degrades to serial execution.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.autotuner import ProblemArtifacts, build_problem_artifacts
from repro.core.metrics import mdape_on_top_fraction, recall_curve
from repro.core.objectives import Objective, get_objective
from repro.experiments.presets import AlgorithmFactor, resolve_algorithm
from repro.insitu.workflow import WorkflowDefinition

__all__ = [
    "SUMMARY_PERCENTILES",
    "TrialMetrics",
    "build_trial_context",
    "fanout",
    "hash_name",
    "resolve_jobs",
    "run_trials",
    "summarize",
    "trial_seed",
]


@dataclass
class TrialMetrics:
    """Metrics of one tuning trial.

    ``seed`` is the *effective* seed handed to
    :meth:`~repro.core.problem.TuningProblem.create`, so a single trial
    can be reproduced from its saved metrics row alone; ``repeat`` is
    the repeat index within the trial batch.  ``wall_seconds`` is the
    measured wall-clock time of the trial and ``fit_seconds`` the share
    of it spent fitting models (summed from the trial's
    :class:`~repro.core.driver.TuningEvent` records); both are
    wall-clock and therefore the only fields that are not deterministic
    across runs.
    """

    algorithm: str
    workflow: str
    objective: str
    budget: int
    seed: int
    best_value: float
    normalized: float
    recall: np.ndarray
    mdape_all: float
    mdape_top2: float
    cost: float
    runs_used: int
    repeat: int = 0
    wall_seconds: float = 0.0
    fit_seconds: float = 0.0
    trace: list = field(default_factory=list)


def hash_name(name: str) -> int:
    """Stable per-name offset so algorithms draw distinct random streams.

    CRC-32 of the UTF-8 name: unlike an ordinal sum, anagrams ("AL" vs
    a user-registered "LA") do not collide onto one random stream.
    """
    return zlib.crc32(name.encode("utf-8"))


def trial_seed(pool_seed: int, name: str, rep: int) -> int:
    """Effective seed of one (algorithm, repeat) trial.

    Derived only from ``(pool_seed, name, rep)`` so the value is fixed
    before any trial runs — worker scheduling order cannot perturb it.
    """
    return pool_seed * 1_000_003 + rep + hash_name(name)


# -- process fan-out ---------------------------------------------------------------

#: ``(worker, context, capture)`` of the fan-out in flight.  Set in the
#: parent immediately before the pool forks, so workers inherit it
#: through copy-on-write memory instead of pickling (the context holds
#: DES-backed workflow objects that do not pickle).
#: ``capture`` records whether the parent had telemetry enabled at fork
#: time.
_FANOUT_STATE: tuple | None = None


def _run_captured(worker, context, index: int):
    """Run one task under a fresh in-memory telemetry hub.

    The task's spans and metrics are recorded into a hub private to the
    task (never the parent's — a forked child appending to an inherited
    hub would be lost, and a file sink inherited across ``fork`` would
    interleave writes).  Returns ``(result, snapshot)`` for the parent
    to merge with task-index attribution.
    """
    hub = telemetry.Telemetry()
    with telemetry.use(hub):
        with hub.span("runner.task", category="runner", task=index):
            result = worker(context, index)
    return result, hub.snapshot()


def _fanout_entry(index: int):
    worker, context, capture = _FANOUT_STATE
    if not capture:
        return index, worker(context, index), None
    result, payload = _run_captured(worker, context, index)
    return index, result, payload


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Resolve a ``jobs`` request to a positive worker count.

    ``None`` falls back to the ``REPRO_JOBS`` environment variable and
    then to ``1`` (serial).  ``"auto"`` or any value ``<= 0`` means one
    worker per CPU.
    """
    if jobs is None:
        jobs = os.environ.get("REPRO_JOBS") or "1"
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text in ("auto", ""):
            jobs = 0
        else:
            try:
                jobs = int(text)
            except ValueError:
                raise ValueError(
                    f"jobs must be an integer or 'auto', got {jobs!r}"
                ) from None
    if jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


def fanout(
    worker,
    context,
    n_tasks: int,
    jobs: int | str | None = None,
    on_complete=None,
) -> list:
    """Run ``worker(context, i)`` for ``i in range(n_tasks)``, maybe in parallel.

    Results are returned in index order regardless of completion order.
    ``worker`` and ``context`` are shared with forked workers by
    inheritance and never pickled; worker *return values* must pickle.
    Falls back to serial execution when ``jobs`` resolves to 1, when
    ``fork`` is unavailable, or when already inside a fan-out worker.

    When telemetry is enabled, every task — serial or parallel — runs
    under a private in-memory hub whose snapshot is merged back into
    the caller's hub in task-index order with the task index as the
    worker id.  The merged telemetry is therefore identical across
    ``jobs`` settings in every non-timing field, and task results are
    bit-identical to a run without telemetry.

    ``on_complete(index, result)`` — when given — is called in the
    *parent* process as each task finishes, in completion order (not
    index order).  It exists for observe-only consumers like the live
    progress sink: results are already final when it fires, so nothing
    it does can perturb them.
    """
    global _FANOUT_STATE
    tel = telemetry.get()
    n_jobs = min(resolve_jobs(jobs), n_tasks)
    if n_jobs <= 1 or _FANOUT_STATE is not None:
        return _fanout_serial(worker, context, n_tasks, tel, on_complete)
    if "fork" not in multiprocessing.get_all_start_methods():
        warnings.warn(
            "repro: parallel trials need the 'fork' start method; "
            "running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return _fanout_serial(worker, context, n_tasks, tel, on_complete)
    _FANOUT_STATE = (worker, context, tel.enabled)
    try:
        mp = multiprocessing.get_context("fork")
        with mp.Pool(processes=n_jobs) as pool:
            results: list = [None] * n_tasks
            payloads: list = [None] * n_tasks
            for index, result, payload in pool.imap_unordered(
                _fanout_entry, range(n_tasks), chunksize=1
            ):
                results[index] = result
                payloads[index] = payload
                if on_complete is not None:
                    on_complete(index, result)
    finally:
        _FANOUT_STATE = None
    # Merge after the pool drains, in task order: worker scheduling must
    # not perturb the combined telemetry.
    for index, payload in enumerate(payloads):
        tel.merge_worker(payload, worker=index)
    return results


def _fanout_serial(worker, context, n_tasks: int, tel, on_complete=None) -> list:
    """Serial fan-out, with the same per-task capture as parallel runs.

    Inside a fan-out worker (nested call) the current hub already *is*
    the task's capture hub, so nested tasks record into it directly.
    """
    if not tel.enabled or _FANOUT_STATE is not None:
        results = []
        for index in range(n_tasks):
            result = worker(context, index)
            if on_complete is not None:
                on_complete(index, result)
            results.append(result)
        return results
    results = []
    for index in range(n_tasks):
        result, payload = _run_captured(worker, context, index)
        tel.merge_worker(payload, worker=index)
        if on_complete is not None:
            on_complete(index, result)
        results.append(result)
    return results


# -- trial execution ---------------------------------------------------------------


@dataclass
class _TrialContext:
    """Everything one trial needs, shared across workers by fork."""

    artifacts: ProblemArtifacts
    objective: Objective
    truth: np.ndarray
    pool_best: float
    budget: int
    failure_rate: float
    recall_max_n: int
    tasks: list  # (AlgorithmFactor, rep, seed) in serial order
    store: object | None = None


def _run_one_trial(ctx: _TrialContext, index: int) -> TrialMetrics:
    factor, rep, seed = ctx.tasks[index]
    started = time.perf_counter()
    tel = telemetry.get()
    pool = ctx.artifacts.pool
    problem = ctx.artifacts.problem(
        ctx.objective,
        ctx.budget,
        seed,
        failure_rate=ctx.failure_rate,
        store=ctx.store,
    )
    if problem.store is not None:
        # Distinguish repeats in provenance: (seed, repeat) keys the
        # store's row dedupe, and forked workers inherit the store
        # object (its connection reopens per pid).
        problem.store.repeat = rep
    algorithm = resolve_algorithm(
        factor, ctx.artifacts.workflow.name, ctx.budget
    )
    with tel.span(
        "runner.trial",
        category="runner",
        algorithm=factor.name,
        repeat=rep,
        seed=seed,
    ):
        result = algorithm.tune(problem)
    if tel.enabled:
        tel.counter("trials_run").inc()
        rank_started = time.perf_counter()
        with tel.span(
            "runner.rank_pool", category="runner", pool=len(pool)
        ):
            scores = result.predict_pool(pool)
        tel.histogram("pool_rank_seconds").observe(
            time.perf_counter() - rank_started
        )
    else:
        scores = result.predict_pool(pool)
    best = pool.configs[int(np.argmin(scores))]
    best_value = pool.lookup(best).objective(ctx.objective.name)
    return TrialMetrics(
        algorithm=factor.name,
        workflow=ctx.artifacts.workflow.name,
        objective=ctx.objective.name,
        budget=ctx.budget,
        seed=seed,
        best_value=best_value,
        normalized=best_value / ctx.pool_best,
        recall=recall_curve(scores, ctx.truth, ctx.recall_max_n),
        mdape_all=mdape_on_top_fraction(scores, ctx.truth, None),
        mdape_top2=mdape_on_top_fraction(scores, ctx.truth, 0.02),
        cost=result.cost(),
        runs_used=result.runs_used,
        repeat=rep,
        wall_seconds=time.perf_counter() - started,
        fit_seconds=sum(e.fit_seconds for e in result.trace),
        trace=result.trace,
    )


def run_trials(
    workflow: WorkflowDefinition | str,
    objective: Objective | str,
    algorithms: Sequence[AlgorithmFactor],
    budget: int,
    repeats: int = 20,
    pool_size: int = 2000,
    pool_seed: int = 2021,
    noise_sigma: float = 0.05,
    history_size: int = 500,
    recall_max_n: int = 10,
    failure_rate: float = 0.0,
    jobs: int | str | None = None,
    store: object | None = None,
) -> list[TrialMetrics]:
    """Run every algorithm ``repeats`` times and collect trial metrics.

    Histories are always generated and attached (they are the §7.1
    component measurement sets the collector draws *paid* component runs
    from).  Whether an algorithm may read them for free is the
    algorithm's own ``use_history`` parameter.  A CEAL factor with
    ``preset=True`` resolves to the tuned settings of this
    ``(workflow, budget)`` cell.

    ``jobs`` fans the (algorithm, repeat) trials out across that many
    worker processes (``"auto"`` / ``<= 0`` = one per CPU; default
    ``REPRO_JOBS`` or serial).  Results are identical to serial
    execution in every deterministic field — only ``wall_seconds``
    varies between runs.

    ``store`` (a :class:`~repro.store.db.MeasurementStore` or path)
    records every trial's paid measurements write-through; forked
    workers write to the same database under WAL concurrency.
    """
    tasks = [
        (factor, rep, trial_seed(pool_seed, factor.name, rep))
        for factor in algorithms
        for rep in range(repeats)
    ]
    ctx = build_trial_context(
        workflow,
        objective,
        budget=budget,
        tasks=tasks,
        pool_size=pool_size,
        pool_seed=pool_seed,
        noise_sigma=noise_sigma,
        history_size=history_size,
        recall_max_n=recall_max_n,
        failure_rate=failure_rate,
        store=store,
    )
    return fanout(_run_one_trial, ctx, len(tasks), jobs)


def build_trial_context(
    workflow: WorkflowDefinition | str,
    objective: Objective | str,
    *,
    budget: int,
    tasks: Sequence[tuple],
    pool_size: int = 2000,
    pool_seed: int = 2021,
    noise_sigma: float = 0.05,
    history_size: int = 500,
    recall_max_n: int = 10,
    failure_rate: float = 0.0,
    store: object | None = None,
) -> _TrialContext:
    """Materialise the shared state of one trial batch.

    Generates (or recalls from the memo) the measured pool and
    component histories, resolves names to objects, and packages
    everything a :func:`fanout` worker needs.  ``tasks`` is the serial
    ``(factor, rep, seed)`` list; :func:`run_trials` derives it from its
    algorithm grid, while the suite engine
    (:mod:`repro.experiments.suite`) passes only the *pending* cells of
    a resumed matrix.
    """
    if store is not None:
        from repro.store.db import MeasurementStore

        if not isinstance(store, MeasurementStore):
            store = MeasurementStore(store)
    objective = (
        get_objective(objective) if isinstance(objective, str) else objective
    )
    artifacts = build_problem_artifacts(
        workflow, pool_size, pool_seed, noise_sigma, history_size
    )
    truth = artifacts.pool.objective_values(objective.name)
    return _TrialContext(
        artifacts=artifacts,
        objective=objective,
        truth=truth,
        pool_best=float(truth.min()),
        budget=budget,
        failure_rate=failure_rate,
        recall_max_n=recall_max_n,
        tasks=list(tasks),
        store=store,
    )


#: Tail-latency percentiles reported by :func:`summarize`.
SUMMARY_PERCENTILES = (50, 90, 99)


def summarize(trials: Sequence[TrialMetrics]) -> dict:
    """Aggregate trials per algorithm: means of every §7.2 metric.

    Wall-clock metrics additionally carry tail percentiles
    (``wall_seconds_p50``/``_p90``/``_p99`` and the same for
    ``fit_seconds``) — a mean alone hides stragglers, and benchmark
    JSON needs the tail to compare scheduling strategies.
    """
    by_algo: dict[str, list[TrialMetrics]] = {}
    for t in trials:
        by_algo.setdefault(t.algorithm, []).append(t)
    out: dict = {}
    for name, ts in by_algo.items():
        wall = np.array([t.wall_seconds for t in ts])
        fit = np.array([t.fit_seconds for t in ts])
        row = {
            "normalized": float(np.mean([t.normalized for t in ts])),
            "normalized_std": float(np.std([t.normalized for t in ts])),
            "best_value": float(np.mean([t.best_value for t in ts])),
            "recall": np.mean([t.recall for t in ts], axis=0),
            "mdape_all": float(np.mean([t.mdape_all for t in ts])),
            "mdape_top2": float(np.mean([t.mdape_top2 for t in ts])),
            "cost": float(np.mean([t.cost for t in ts])),
            "runs_used": float(np.mean([t.runs_used for t in ts])),
            "wall_seconds": float(wall.mean()),
            "fit_seconds": float(fit.mean()),
            "repeats": len(ts),
        }
        for p in SUMMARY_PERCENTILES:
            row[f"wall_seconds_p{p}"] = float(np.percentile(wall, p))
            row[f"fit_seconds_p{p}"] = float(np.percentile(fit, p))
        out[name] = row
    return out
