"""Algorithm base classes: every tuning algorithm is its own strategy.

A tuning algorithm is one plain dataclass.  Its fields are its
hyper-parameters; its methods are the
:class:`~repro.core.driver.SearchStrategy` hooks (the proposal policy).
The shared :class:`~repro.core.driver.TuningDriver` owns the
measurement loop, budget enforcement, telemetry, and checkpoint/resume.

:meth:`TuningAlgorithm.make_strategy` copies the algorithm for one
session.  Per-session state lives only on that copy: ``prepare`` and
``load_state`` set it, or it is an immutable class default.  So one
algorithm instance can tune any number of problems, one after another.

:class:`PlannedBatches` is the loop of AL, ALpH, BO/CEAL-BO and GEIST:
a random seed batch, then a fixed plan of model-guided batches.

``split_batches`` and ``CandidateTracker`` live in
:mod:`repro.core.driver`; they are re-exported here.
"""

from __future__ import annotations

import abc
import dataclasses
from pathlib import Path

from repro.config.space import Configuration
from repro.core.driver import (
    CandidateTracker,
    SearchStrategy,
    TuningDriver,
    TuningSession,
    split_batches,
)
from repro.core.problem import AutotuneResult, TuningProblem

__all__ = [
    "CandidateTracker",
    "PlannedBatches",
    "SearchStrategy",
    "TuningAlgorithm",
    "split_batches",
]


class TuningAlgorithm(SearchStrategy):
    """A budgeted auto-tuning algorithm: hyper-parameters plus policy.

    Subclasses are dataclasses.  They stay unfrozen and without
    ``__slots__``: per-session state is set on the session's copy, and
    instrumentation may patch methods on an instance.
    """

    def make_strategy(self) -> "TuningAlgorithm":
        """A fresh copy of this algorithm to drive one session."""
        return dataclasses.replace(self)

    def tune(
        self,
        problem: TuningProblem,
        *,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
        max_cycles: int | None = None,
        recipe=None,
    ) -> AutotuneResult | None:
        """Spend the problem's budget and return the final surrogate.

        ``checkpoint_path`` / ``resume`` / ``max_cycles`` pass through
        to :meth:`~repro.core.driver.TuningDriver.run`, and ``recipe``
        to the driver's checkpoints; the defaults run the session in
        one shot.
        """
        driver = TuningDriver(checkpoint_path=checkpoint_path, recipe=recipe)
        return driver.run(
            self.make_strategy(), problem, resume=resume, max_cycles=max_cycles
        )


class PlannedBatches(TuningAlgorithm):
    """A random seed batch, then a plan of model-guided batches.

    The seed batch takes ``initial_fraction`` of the workflow budget
    (at least 2 runs, at most all but one); the rest is split into
    ``iterations`` near-equal batches
    (:meth:`~repro.core.driver.TuningSession.plan_batches`), each filled
    by :meth:`guided_batch`.  Subclasses declare ``initial_fraction``
    and ``iterations`` fields, call :meth:`plan_budget` in ``prepare``,
    and restore ``_m_workflow`` / ``_m_init`` in ``load_state``.  The
    checkpoint keys ``cycle`` and ``plan`` belong to this loop.
    """

    _cycle = 0
    _plan = None

    def plan_budget(self, m_workflow: int) -> None:
        """Share ``m_workflow`` runs between the seed and planned batches."""
        self._m_workflow = m_workflow
        self._m_init = min(
            max(2, round(self.initial_fraction * m_workflow)), m_workflow - 1
        )

    def ask(self, session: TuningSession) -> list[Configuration]:
        if self._cycle == 0:
            self._cycle = 1
            session.annotate(kind="seed")
            return self.seed_batch(session, self._m_init)
        if self._plan is None:
            self._plan = session.plan_batches(
                self._m_workflow - self._m_init, self.iterations
            )
        index = self._cycle - 1
        if index >= len(self._plan):
            return []
        self._cycle += 1
        return self.guided_batch(session, self._plan[index])

    def seed_batch(self, session: TuningSession, n: int) -> list[Configuration]:
        """``n`` random unmeasured configurations, marked attempted."""
        batch = session.problem.sample_unmeasured(session.tracker.remaining, n)
        session.tracker.mark(batch)
        return batch

    @abc.abstractmethod
    def guided_batch(self, session: TuningSession, n: int) -> list[Configuration]:
        """The next planned batch of (at most) ``n`` configurations."""

    def state_dict(self) -> dict:
        return {"cycle": self._cycle, "plan": self._plan}

    def load_state(self, state: dict, session: TuningSession) -> None:
        # The plan is restored, not recomputed, so its one-time
        # ``batch_plan`` annotation is not re-emitted after a resume.
        self._cycle = state["cycle"]
        self._plan = state["plan"]
