"""Declarative experiment suites: spec → run matrix → stats report.

The figure drivers used to hand-wire their own algorithm grids,
budgets, and repeats, and every claim rested on single-run means.  This
module turns that pattern into one engine, structured like bentoo's
Design→Prepare→Run→Collect→Analysis pipeline:

* **Design** — a :class:`SuiteSpec` names the factors (workflows ×
  objectives × budgets × algorithms × repeats × pool seeds) either
  programmatically (the figure drivers are now thin spec builders) or
  from a TOML/JSON file (:func:`load_spec`).
* **Prepare** — :func:`compile_matrix` expands the spec into an
  explicit, deterministic list of :class:`SuiteCell` runs.  Each cell
  is content-hashed over every determinism-relevant field
  (:meth:`SuiteCell.key`), so a cell *is* its inputs.
* **Run** — :func:`run_suite` executes pending cells through the
  existing :func:`~repro.experiments.runner.fanout` worker pool.  With
  a :class:`~repro.store.db.MeasurementStore` attached, finished cells
  persist as metadata rows keyed by their content hash and are skipped
  on re-run: a killed suite resumes where it left off and finishes
  bit-identically (cell results are deterministic given their key, so
  cached and fresh cells are indistinguishable in the report).
* **Collect + Analysis** — :meth:`SuiteResult.report` aggregates per
  algorithm with bootstrap confidence intervals and paired significance
  tests (:mod:`repro.experiments.stats`) instead of bare means.

Determinism contract: everything in a cell's :class:`TrialMetrics`
except wall-clock timings is a pure function of the cell key, and the
report reads only those deterministic fields — so any execution
schedule (serial, parallel, interrupted + resumed, fully cached)
produces the same report bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from repro import telemetry
from repro.experiments import stats
from repro.telemetry import progress
from repro.experiments.presets import AlgorithmFactor
from repro.experiments.runner import (
    TrialMetrics,
    _run_one_trial,
    build_trial_context,
    fanout,
    trial_seed,
)

__all__ = [
    "SUITE_SCHEMA_VERSION",
    "SuiteCell",
    "SuiteGroup",
    "SuiteIncompleteError",
    "SuiteResult",
    "SuiteSpec",
    "compile_matrix",
    "load_spec",
    "practicality",
    "run_suite",
    "spec_from_dict",
]

#: Version of the cell-identity and report schemas.  Bump whenever a
#: change alters what a cell computes — old cached cells then miss and
#: re-run instead of leaking stale results into new reports.
SUITE_SCHEMA_VERSION = 1

#: Metadata-key prefix of cached cell results in a measurement store.
_CELL_KEY_PREFIX = "suite/cell/"

#: Per-cell seed derivations.  ``trial`` is the runner's standard
#: ``trial_seed(pool_seed, name, rep)`` (independent streams per
#: algorithm); ``sweep`` is the sensitivity sweeps' historical
#: ``pool_seed + 37·rep`` (the *same* stream for every algorithm, so
#: settings are compared on identical draws).
SEED_SCHEMES = ("trial", "sweep")


class SuiteIncompleteError(RuntimeError):
    """Raised when a report is requested from a partially-run suite."""


@dataclass(frozen=True)
class SuiteGroup:
    """One block of the matrix: a shared pool × algorithms × repeats.

    Algorithms inside a group tune against the *same* measured pool and
    component histories, which is what makes their trials pairable in
    the analysis stage.
    """

    workflow: str
    objective: str
    budget: int
    algorithms: tuple
    repeats: int
    pool_size: int
    pool_seed: int
    noise_sigma: float = 0.05
    history_size: int = 500
    failure_rate: float = 0.0
    recall_max_n: int = 10
    seed_scheme: str = "trial"

    def __post_init__(self):
        if self.seed_scheme not in SEED_SCHEMES:
            raise ValueError(
                f"unknown seed scheme {self.seed_scheme!r}; "
                f"expected one of {SEED_SCHEMES}"
            )
        if self.repeats < 1:
            raise ValueError("a suite group needs at least one repeat")
        names = [f.name for f in self.algorithms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate algorithm names in group: {names}")

    def cell_seed(self, name: str, rep: int) -> int:
        if self.seed_scheme == "sweep":
            return self.pool_seed + 37 * rep
        return trial_seed(self.pool_seed, name, rep)


@dataclass(frozen=True)
class SuiteSpec:
    """A complete experiment design: named, ordered groups + analysis knobs."""

    name: str
    groups: tuple
    confidence: float = 0.95


@dataclass(frozen=True)
class SuiteCell:
    """One run of the matrix: a single (algorithm, repeat) trial.

    ``identity()`` collects every field that determines the trial's
    deterministic outputs; ``key()`` hashes it.  Two cells with equal
    keys compute equal results, which is the entire resume story.
    """

    group_index: int
    workflow: str
    objective: str
    budget: int
    algorithm: AlgorithmFactor
    repeat: int
    seed: int
    pool_size: int
    pool_seed: int
    noise_sigma: float
    history_size: int
    failure_rate: float
    recall_max_n: int

    def identity(self) -> dict:
        return {
            "schema": SUITE_SCHEMA_VERSION,
            "workflow": self.workflow,
            "objective": self.objective,
            "budget": self.budget,
            "algorithm": self.algorithm.identity(),
            "repeat": self.repeat,
            "seed": self.seed,
            "pool_size": self.pool_size,
            "pool_seed": self.pool_seed,
            "noise_sigma": self.noise_sigma,
            "history_size": self.history_size,
            "failure_rate": self.failure_rate,
            "recall_max_n": self.recall_max_n,
        }

    def key(self) -> str:
        canonical = json.dumps(
            self.identity(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compile_matrix(spec: SuiteSpec) -> tuple:
    """Expand a spec into its explicit, deterministic run matrix.

    Cell order is group-major, then algorithm-major, repeat-minor —
    exactly the serial order :func:`~repro.experiments.runner.run_trials`
    executes, so rebasing a legacy driver onto the engine permutes
    nothing.
    """
    cells = []
    for gi, group in enumerate(spec.groups):
        for factor in group.algorithms:
            for rep in range(group.repeats):
                cells.append(
                    SuiteCell(
                        group_index=gi,
                        workflow=group.workflow,
                        objective=group.objective,
                        budget=group.budget,
                        algorithm=factor,
                        repeat=rep,
                        seed=group.cell_seed(factor.name, rep),
                        pool_size=group.pool_size,
                        pool_seed=group.pool_seed,
                        noise_sigma=group.noise_sigma,
                        history_size=group.history_size,
                        failure_rate=group.failure_rate,
                        recall_max_n=group.recall_max_n,
                    )
                )
    return tuple(cells)


# -- cell result codec ---------------------------------------------------------------


def _metrics_payload(m: TrialMetrics) -> dict:
    """Deterministic fields of a trial, JSON-stable.

    Wall-clock timings and the event trace are execution artefacts, not
    results — they are dropped so a cached cell round-trips to exactly
    what the report reads.
    """
    return {
        "algorithm": m.algorithm,
        "workflow": m.workflow,
        "objective": m.objective,
        "budget": m.budget,
        "seed": m.seed,
        "repeat": m.repeat,
        "best_value": m.best_value,
        "normalized": m.normalized,
        "recall": [float(x) for x in m.recall],
        "mdape_all": m.mdape_all,
        "mdape_top2": m.mdape_top2,
        "cost": m.cost,
        "runs_used": m.runs_used,
    }


def _metrics_from_payload(d: dict) -> TrialMetrics:
    return TrialMetrics(
        algorithm=d["algorithm"],
        workflow=d["workflow"],
        objective=d["objective"],
        budget=d["budget"],
        seed=d["seed"],
        repeat=d["repeat"],
        best_value=d["best_value"],
        normalized=d["normalized"],
        recall=np.asarray(d["recall"], dtype=np.float64),
        mdape_all=d["mdape_all"],
        mdape_top2=d["mdape_top2"],
        cost=d["cost"],
        runs_used=d["runs_used"],
    )


def _load_cached(store, cell: SuiteCell) -> TrialMetrics | None:
    payload = store.get_metadata(_CELL_KEY_PREFIX + cell.key())
    if payload is None:
        return None
    # Paranoia against hash collisions and schema drift: the stored
    # identity must match byte-for-byte, else treat as a miss (the cell
    # re-runs and overwrites the row).
    if payload.get("cell") != cell.identity():
        return None
    return _metrics_from_payload(payload["metrics"])


def _store_cell(store, cell: SuiteCell, metrics: TrialMetrics) -> None:
    store.set_metadata(
        _CELL_KEY_PREFIX + cell.key(),
        {"cell": cell.identity(), "metrics": _metrics_payload(metrics)},
    )


# -- execution -----------------------------------------------------------------------


@dataclass
class _MatrixContext:
    """Fan-out context of one suite run, inherited by forked workers.

    ``contexts`` holds one prepared trial context per group (only for
    groups with pending cells); ``plan[i]`` routes fan-out task ``i`` to
    ``(group_index, local_task_index)``.
    """

    contexts: dict
    plan: list


def _run_matrix_cell(ctx: _MatrixContext, index: int) -> TrialMetrics:
    group_index, local = ctx.plan[index]
    return _run_one_trial(ctx.contexts[group_index], local)


@dataclass
class SuiteResult:
    """Outcome of one :func:`run_suite` invocation."""

    spec: SuiteSpec
    cells: tuple
    trials: list  # TrialMetrics | None (None = still pending)
    cells_run: int
    cells_cached: int

    @property
    def complete(self) -> bool:
        return all(t is not None for t in self.trials)

    def by_group(self) -> list:
        """Trials per spec group, in cell (algorithm-major) order."""
        grouped: list = [[] for _ in self.spec.groups]
        for cell, trial in zip(self.cells, self.trials):
            grouped[cell.group_index].append(trial)
        return grouped

    def group_trials(self, index: int) -> list:
        return self.by_group()[index]

    def report(self) -> dict:
        """The suite's statistical analysis (see :func:`build_report`)."""
        missing = sum(t is None for t in self.trials)
        if missing:
            raise SuiteIncompleteError(
                f"suite {self.spec.name!r}: {missing} of {len(self.trials)} "
                "cells still pending — run the suite (with its store) to "
                "completion before reporting"
            )
        return build_report(self.spec, self.by_group())


def run_suite(
    spec: SuiteSpec,
    jobs: int | str | None = None,
    store=None,
    max_cells: int | None = None,
    record_measurements: bool = False,
) -> SuiteResult:
    """Execute a suite's run matrix, resuming from ``store`` if given.

    ``store`` (path or :class:`~repro.store.db.MeasurementStore`)
    persists each finished cell under its content-hash key; cells
    already present are *not* re-executed.  ``max_cells`` bounds how
    many pending cells this invocation executes (matrix order), which
    supports budgeted incremental runs — without a store the skipped
    remainder is lost, so pair ``max_cells`` with a store.
    ``record_measurements`` additionally write-throughs every paid
    trial measurement into the store's measurement tables (purely
    additive; results are bit-identical either way).
    """
    if store is not None:
        from repro.store.db import MeasurementStore

        if not isinstance(store, MeasurementStore):
            store = MeasurementStore(store)
    cells = compile_matrix(spec)
    tel = telemetry.get()
    with tel.span(
        "suite.run", category="suite", suite=spec.name, cells=len(cells)
    ):
        trials: list = [None] * len(cells)
        if store is not None:
            with tel.span("suite.lookup", category="suite"):
                for i, cell in enumerate(cells):
                    trials[i] = _load_cached(store, cell)
        cached = sum(t is not None for t in trials)
        pending = [i for i, t in enumerate(trials) if t is None]
        if max_cells is not None:
            pending = pending[: max(0, max_cells)]
        contexts: dict = {}
        plan: list = []
        for i in pending:
            cell = cells[i]
            gi = cell.group_index
            if gi not in contexts:
                group = spec.groups[gi]
                with tel.span(
                    "suite.prepare",
                    category="suite",
                    workflow=group.workflow,
                    pool=group.pool_size,
                ):
                    contexts[gi] = build_trial_context(
                        group.workflow,
                        group.objective,
                        budget=group.budget,
                        tasks=[],
                        pool_size=group.pool_size,
                        pool_seed=group.pool_seed,
                        noise_sigma=group.noise_sigma,
                        history_size=group.history_size,
                        recall_max_n=group.recall_max_n,
                        failure_rate=group.failure_rate,
                        store=store if record_measurements else None,
                    )
            ctx = contexts[gi]
            plan.append((gi, len(ctx.tasks)))
            ctx.tasks.append((cell.algorithm, cell.repeat, cell.seed))
        sink = progress.get()
        if sink.enabled:
            # First heartbeat counts cache hits; later ones arrive from
            # the parent-side fan-out callback as cells finish.
            done_box = [cached]
            sink.suite_cell(
                suite=spec.name,
                done=cached,
                total=len(cells),
                cached=cached,
            )

            def _on_cell_done(index, result) -> None:
                done_box[0] += 1
                sink.suite_cell(
                    suite=spec.name,
                    done=done_box[0],
                    total=len(cells),
                    cached=cached,
                )
        else:
            _on_cell_done = None
        if pending:
            results = fanout(
                _run_matrix_cell,
                _MatrixContext(contexts=contexts, plan=plan),
                len(pending),
                jobs,
                on_complete=_on_cell_done,
            )
            for i, metrics in zip(pending, results):
                trials[i] = metrics
                if store is not None:
                    _store_cell(store, cells[i], metrics)
        if tel.enabled:
            tel.counter("suite.cells_run").inc(len(pending))
            tel.counter("suite.cells_cached").inc(cached)
    return SuiteResult(
        spec=spec,
        cells=cells,
        trials=trials,
        cells_run=len(pending),
        cells_cached=cached,
    )


# -- analysis ------------------------------------------------------------------------

#: Metrics carried per algorithm with bootstrap CIs.  ``normalized`` and
#: ``best_value`` are lower-is-better §7.2 headline metrics; recall is
#: reported at the group's top-n.
_CI_METRICS = ("normalized", "best_value", "cost", "mdape_all", "mdape_top2")

#: Metrics compared pairwise between algorithms of one group.
_PAIRED_METRICS = ("normalized", "best_value", "recall_at_top")


def _metric_values(trials: list, metric: str) -> list:
    if metric == "recall_at_top":
        return [float(t.recall[-1]) for t in trials]
    return [getattr(t, metric) for t in trials]


def practicality(group: SuiteGroup, trials: list) -> dict | None:
    """The §7.2.3 practicality of one algorithm's trials in ``group``.

    ``least_uses`` is the paper's N = c / Δp from the algorithm's mean
    collection cost and mean tuned value against the expert
    configuration (per-trial ratios would average incomparable subsets
    when some trials fail to beat the expert); it is ``inf`` when the
    mean never beats the expert.  ``None`` when the workflow has no
    expert configuration for the objective.
    """
    from repro.core.metrics import least_number_of_uses
    from repro.insitu.measurement import measure_workflow
    from repro.workflows.catalog import expert_config, make_workflow

    try:
        config = expert_config(group.workflow, group.objective)
    except ValueError:
        return None
    workflow = make_workflow(group.workflow)
    expert = measure_workflow(workflow, config, noise_sigma=0).objective(
        group.objective
    )
    mean_cost = float(np.mean([t.cost for t in trials]))
    mean_value = float(np.mean([t.best_value for t in trials]))
    return {
        "least_uses": least_number_of_uses(mean_cost, mean_value, expert),
        "recouped_fraction": float(
            np.mean([t.best_value < expert for t in trials])
        ),
        "expert_value": float(expert),
    }


def build_report(spec: SuiteSpec, grouped_trials: list) -> dict:
    """Statistical report over a complete matrix of trials.

    Reads only deterministic trial fields and resamples with fixed
    seeds, so the report is a pure function of the spec — identical
    across serial/parallel/resumed/cached executions.
    """
    tel = telemetry.get()
    with tel.span("suite.report", category="suite", suite=spec.name):
        groups_out = []
        for group, trials in zip(spec.groups, grouped_trials):
            by_algo: dict = {}
            for t in trials:
                by_algo.setdefault(t.algorithm, []).append(t)
            algo_out = {}
            for factor in group.algorithms:
                ts = by_algo[factor.name]
                entry: dict = {"n": len(ts)}
                for metric in _CI_METRICS:
                    entry[metric] = stats.bootstrap_ci(
                        _metric_values(ts, metric), confidence=spec.confidence
                    )
                entry["recall"] = {
                    "top_n": group.recall_max_n,
                    "mean": [
                        float(x)
                        for x in np.mean([t.recall for t in ts], axis=0)
                    ],
                    "at_top": stats.bootstrap_ci(
                        _metric_values(ts, "recall_at_top"),
                        confidence=spec.confidence,
                    ),
                }
                block = practicality(group, ts)
                if block is not None:
                    # JSON has no infinity: a never-recouped cost is null.
                    if not np.isfinite(block["least_uses"]):
                        block["least_uses"] = None
                    entry["practicality"] = block
                algo_out[factor.name] = entry
            comparisons = []
            for a, b in itertools.combinations(
                [f.name for f in group.algorithms], 2
            ):
                for metric in _PAIRED_METRICS:
                    x = _metric_values(by_algo[a], metric)
                    y = _metric_values(by_algo[b], metric)
                    comparisons.append(
                        {
                            "a": a,
                            "b": b,
                            "metric": metric,
                            "permutation": stats.paired_permutation_test(x, y),
                            "wilcoxon": stats.wilcoxon_signed_rank(x, y),
                        }
                    )
            groups_out.append(
                {
                    "workflow": group.workflow,
                    "objective": group.objective,
                    "budget": group.budget,
                    "pool_size": group.pool_size,
                    "pool_seed": group.pool_seed,
                    "repeats": group.repeats,
                    "seed_scheme": group.seed_scheme,
                    "algorithms": algo_out,
                    "comparisons": comparisons,
                }
            )
        return {
            "schema_version": SUITE_SCHEMA_VERSION,
            "suite": spec.name,
            "confidence": spec.confidence,
            "cells": len(compile_matrix(spec)),
            "groups": groups_out,
        }


# -- spec files ----------------------------------------------------------------------


def spec_from_dict(data: dict, name: str = "suite") -> SuiteSpec:
    """Build a spec from parsed TOML/JSON data (see ``examples/suites/``).

    Layout::

        [suite]            # name, repeats, pool_size, pool_seeds,
                           # confidence, and optional per-group knobs
        [factors]          # workflows, objectives, budgets
        [[algorithms]]     # name, kind, params

    The matrix is the full cross product of workflows × objectives ×
    budgets × pool seeds, each cell-block carrying every algorithm ×
    repeat.
    """
    suite = dict(data.get("suite") or {})
    factors = dict(data.get("factors") or {})
    algo_rows = data.get("algorithms") or []
    if not algo_rows:
        raise ValueError("suite spec declares no [[algorithms]]")
    for section in ("workflows", "objectives", "budgets"):
        if not factors.get(section):
            raise ValueError(f"suite spec factors.{section} is missing/empty")

    algorithms = tuple(
        AlgorithmFactor.make(
            row["name"], row["kind"], **dict(row.get("params") or {})
        )
        for row in algo_rows
    )
    pool_seeds = suite.get("pool_seeds")
    if pool_seeds is None:
        pool_seeds = [suite.get("pool_seed", 2021)]
    base = SuiteGroup(
        workflow="",
        objective="",
        budget=0,
        algorithms=algorithms,
        repeats=int(suite.get("repeats", 10)),
        pool_size=int(suite.get("pool_size", 1000)),
        pool_seed=0,
        noise_sigma=float(suite.get("noise_sigma", 0.05)),
        history_size=int(suite.get("history_size", 500)),
        failure_rate=float(suite.get("failure_rate", 0.0)),
        recall_max_n=int(suite.get("recall_max_n", 10)),
        seed_scheme=str(suite.get("seed_scheme", "trial")),
    )
    groups = tuple(
        replace(
            base,
            workflow=str(workflow),
            objective=str(objective),
            budget=int(budget),
            pool_seed=int(pool_seed),
        )
        for workflow in factors["workflows"]
        for objective in factors["objectives"]
        for budget in factors["budgets"]
        for pool_seed in pool_seeds
    )
    return SuiteSpec(
        name=str(suite.get("name", name)),
        groups=groups,
        confidence=float(suite.get("confidence", 0.95)),
    )


def _parse_toml(text: str) -> dict:
    """Parse TOML via stdlib ``tomllib`` (3.11+) or ``tomli`` if present."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ModuleNotFoundError:
            raise ValueError(
                "TOML suite specs need Python 3.11+ (tomllib) or the "
                "'tomli' package; use an equivalent .json spec instead"
            ) from None
    return tomllib.loads(text)


def load_spec(path) -> SuiteSpec:
    """Load a suite spec from a ``.toml`` or ``.json`` file."""
    from pathlib import Path

    path = Path(path)
    name = path.stem
    if path.suffix.lower() == ".toml":
        data = _parse_toml(path.read_text())
    elif path.suffix.lower() == ".json":
        data = json.loads(path.read_text())
    else:
        raise ValueError(
            f"suite spec {path} must be a .toml or .json file"
        )
    return spec_from_dict(data, name=name)
