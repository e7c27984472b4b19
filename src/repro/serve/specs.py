"""Session specs: the JSON-serialisable recipe of one tuning session.

A served session must be *reconstructible from a small JSON document*:
eviction drops the in-memory session and keeps only its checkpoint on
disk, which carries the spec; crash recovery re-lists those files and
rebuilds.  Everything a :class:`~repro.core.problem.TuningProblem`
needs — pool, component histories, RNG — is a deterministic function
of the spec fields, so a
rehydrated problem is bit-identical to the one the checkpoint was
written from (the same property PR 2's ``--resume`` relies on).

``build_algorithm`` and ``build_problem`` are thin: the algorithm
comes from the shared registry
(:func:`repro.core.autotuner.make_algorithm`) and the problem from the
shared recipe (:func:`repro.core.autotuner.build_problem_artifacts`)
that :class:`~repro.core.autotuner.AutoTuner` also uses, so a session
driven through the server matches an offline
``algorithm.tune(problem)`` run bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

from repro.core.autotuner import (
    ALGORITHMS,
    build_problem_artifacts,
    make_algorithm,
)
from repro.core.objectives import OBJECTIVES
from repro.serve.artifacts import spec_key
from repro.serve.protocol import ServeError
from repro.store.warmstart import WARM_START_MODES
from repro.workflows.catalog import WORKFLOW_FACTORIES

__all__ = [
    "ALGORITHMS",
    "SessionSpec",
    "build_algorithm",
    "build_problem",
]


@dataclass(frozen=True)
class SessionSpec:
    """Deterministic recipe of one served tuning session.

    Field semantics match the ``repro tune`` CLI / ``AutoTuner``:
    ``seed`` drives pool sampling, component histories, and the tuning
    RNG; ``warm_start`` needs the daemon to be bound to a measurement
    store.  ``history_size`` is exposed (the AutoTuner default is 500)
    so hundred-session load tests can keep setup cheap.  Fields are
    type-checked, not coerced: the integer fields take integers only
    (not bools), ``use_history`` a bool, ``noise_sigma`` a number.
    """

    workflow: str = "LV"
    objective: str = "computer_time"
    algorithm: str = "ceal"
    budget: int = 50
    pool_size: int = 1000
    seed: int = 0
    use_history: bool = False
    warm_start: str = "off"
    noise_sigma: float = 0.05
    history_size: int = 500

    def __post_init__(self) -> None:
        # Tuples, not the owners' dicts: an unhashable JSON value must
        # fail the membership test, not raise from it.
        workflows, objectives = tuple(WORKFLOW_FACTORIES), tuple(OBJECTIVES)
        if self.workflow not in workflows:
            raise ServeError(
                "bad_request",
                f"workflow must be one of {workflows}, got {self.workflow!r}",
            )
        if self.objective not in objectives:
            raise ServeError(
                "bad_request",
                f"objective must be one of {objectives}, "
                f"got {self.objective!r}",
            )
        if self.algorithm not in ALGORITHMS:
            raise ServeError(
                "bad_request",
                f"algorithm must be one of {tuple(ALGORITHMS)}, "
                f"got {self.algorithm!r}",
            )
        if self.warm_start not in WARM_START_MODES:
            raise ServeError(
                "bad_request",
                f"warm_start must be one of {WARM_START_MODES}, "
                f"got {self.warm_start!r}",
            )
        for name in ("budget", "pool_size", "seed", "history_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ServeError(
                    "bad_request", f"{name} must be an integer, got {value!r}"
                )
        if not isinstance(self.use_history, bool):
            raise ServeError(
                "bad_request",
                f"use_history must be true or false, got {self.use_history!r}",
            )
        if self.budget < 2:
            raise ServeError("bad_request", "budget must be at least 2")
        if self.pool_size < 2:
            raise ServeError("bad_request", "pool_size must be at least 2")
        # Every component model trains on its solo history, which needs
        # at least two samples.
        if self.history_size < 2:
            raise ServeError("bad_request", "history_size must be at least 2")
        noise = self.noise_sigma
        try:
            valid = (
                not isinstance(noise, bool)
                and isinstance(noise, numbers.Real)
                and math.isfinite(noise)
                and noise >= 0
            )
        except OverflowError:  # an integer too large for a float
            valid = False
        if not valid:
            raise ServeError(
                "bad_request", "noise_sigma must be a finite number >= 0"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSpec":
        """Build a spec from a JSON body, rejecting unknown fields."""
        if not isinstance(data, dict):
            raise ServeError("bad_request", "spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServeError(
                "bad_request", f"unknown spec field(s): {', '.join(unknown)}"
            )
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ServeError("bad_request", f"bad spec: {exc}") from None

    def as_dict(self) -> dict:
        return asdict(self)


def build_algorithm(spec: SessionSpec):
    """The spec's tuning algorithm instance."""
    return make_algorithm(spec.algorithm, spec.use_history)


def build_problem(spec: SessionSpec, store=None, artifacts=None):
    """A fresh :class:`~repro.core.problem.TuningProblem` for ``spec``.

    Deterministic given (spec, store contents) — which is what makes
    eviction and crash recovery transparent.  ``artifacts`` (a cached
    :class:`~repro.core.autotuner.ProblemArtifacts` bundle for the
    spec's :func:`~repro.serve.artifacts.spec_key`) skips regenerating
    the pool and histories: the immutable pieces are shared by
    reference while the mutable problem state (collector, RNG) is built
    fresh, so a cache-served problem is bit-identical to a rebuilt one.
    """
    if artifacts is None:
        artifacts = build_problem_artifacts(*spec_key(spec))
    return artifacts.problem(
        spec.objective,
        int(spec.budget),
        int(spec.seed),
        store=store,
        warm_start=spec.warm_start,
    )
