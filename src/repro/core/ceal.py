"""CEAL: Component-based Ensemble Active Learning (paper Alg. 1).

Phase 1 (white box): run each component ``m_R`` times (or reuse free
historical measurements), train per-component boosted-tree models, and
combine them with the objective's analytical coupling function into the
low-fidelity model ``M_L``.

Phase 2 (black box, bootstrapped): seed the measured set with ``m_0/2``
random configurations plus ``M_L``'s top ``m_B``; then iterate
measure → (model-switch detection) → retrain ``M_H`` → rank the pool
with the currently selected model → take its top ``m_B``.  The switch
detector hands ranking over to ``M_H`` once its batch recall beats
``M_L``'s, and injects reserved random samples if ``M_H`` looks biased
(Alg. 1 lines 16–24).

The measurement loop itself lives in
:class:`~repro.core.driver.TuningDriver`; :class:`CealStrategy` supplies
the proposal policy through the ask/tell contract and reports each
iteration's switch-detector state as a typed
:class:`~repro.core.driver.ModelSwitchState`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.algorithms.base import SearchStrategy, TuningAlgorithm
from repro.core.driver import ModelSwitchState, TuningSession, clip_to_budget
from repro.core.low_fidelity import LowFidelityModel
from repro.core.model_switch import ModelSwitchDetector

__all__ = ["CealSettings", "Ceal", "CealStrategy"]


@dataclass(frozen=True)
class CealSettings:
    """Hyper-parameters of Alg. 1.

    The paper tunes hyper-parameters per algorithm (§7.3) and reports
    wide stability plateaus (Fig. 13).  Defaults here are the settings
    our own sensitivity sweep selects: without historical measurements
    ``m_R = 0.5 m``, ``m_0 = 0.10 m``, ``I = 8`` (the paper's Fig. 13
    run used ``m_R = 0.8 m``, ``m_0 = 0.05 m``, inside its reported
    30–80 % stability range); with histories ``m_R = 0``,
    ``m_0 = 0.15 m``, ``I = 8`` (the paper reports faster convergence
    with histories and uses ``I = 3`` there; our landscapes converge at
    8 — see the Fig. 13 bench).

    Parameters
    ----------
    use_history:
        Treat the collector's component histories as free (§7.5) instead
        of paying ``m_R`` component batches.
    component_runs_fraction:
        ``m_R / m``; ``None`` selects the paper default for the mode.
    random_fraction:
        ``m_0 / m`` (upper bound on random samples); ``None`` selects the
        paper default.
    iterations:
        ``I``; ``None`` selects the paper default.
    switch_enabled:
        Ablation toggle: disable the model-switch detector (the
        low-fidelity model ranks the pool for every batch and is the
        final searcher model).
    bias_guard_enabled:
        Ablation toggle: disable the Alg. 1 line 20 random-sample
        injection.
    """

    use_history: bool = False
    component_runs_fraction: float | None = None
    random_fraction: float | None = None
    iterations: int | None = None
    switch_enabled: bool = True
    bias_guard_enabled: bool = True

    def resolve(self, m: int) -> tuple[int, int, int]:
        """Concrete ``(m_R, m_0, I)`` for budget ``m``."""
        if m < 4:
            raise ValueError("CEAL needs a budget of at least 4 runs")
        if self.use_history:
            frac_r = 0.0 if self.component_runs_fraction is None else (
                self.component_runs_fraction
            )
            frac_0 = 0.15 if self.random_fraction is None else self.random_fraction
            iters = 8 if self.iterations is None else self.iterations
        else:
            frac_r = 0.5 if self.component_runs_fraction is None else (
                self.component_runs_fraction
            )
            frac_0 = 0.10 if self.random_fraction is None else self.random_fraction
            iters = 8 if self.iterations is None else self.iterations
        if not 0 <= frac_r < 1 or not 0 < frac_0 < 1 or iters < 1:
            raise ValueError("invalid CEAL hyper-parameter fractions")
        m_r = int(round(frac_r * m))
        m_0 = max(2, int(round(frac_0 * m)))
        # Keep at least one model-guided run per iteration.
        m_r = min(m_r, max(0, m - m_0 - iters))
        iters = min(iters, max(1, m - m_r - m_0))
        return m_r, m_0, iters


class CealStrategy(SearchStrategy):
    """The ask/tell form of Alg. 1.

    ``ask`` hands the driver whatever Alg. 1 queued for measurement
    (seed batch, model-guided top picks, bias-guard injections, then a
    residual sweep for rounding leftovers); ``tell`` runs the
    model-switch detection and retrains ``M_H``.
    """

    name = "CEAL"

    def __init__(self, settings: CealSettings) -> None:
        self.settings = settings
        self._pending: list = []
        self._i = 0
        self._phase = "loop"
        self._cycle_kind = "iteration"

    # -- lifecycle ------------------------------------------------------------

    def prepare(self, session: TuningSession) -> None:
        problem = session.problem
        collector = problem.collector
        m = session.budget
        self.m_r, self.m_0, self.iterations = self.settings.resolve(m)

        # -- Phase 1: low-fidelity model (Alg. 1 lines 1–6) -------------------
        warm = None
        if problem.warm_start in ("components", "full") and not (
            self.settings.use_history and collector.histories
        ):
            from repro.store.warmstart import component_warm_data

            warm = component_warm_data(problem)
        if self.settings.use_history and collector.histories:
            self._component_data = collector.free_component_history()
        elif warm is not None:
            # Stored solo runs stand in for the paid component batches:
            # m_R drops to zero and the freed budget flows into Phase 2
            # through the m_B formula below.
            self._component_data = warm
            self.m_r = 0
            session.annotate(
                warm_components=sum(len(d.configs) for d in warm.values())
            )
        elif self.m_r > 0:
            self._component_data = collector.measure_components(
                self.m_r, problem.rng
            )
        else:
            self._component_data = (
                collector.free_component_history() if collector.histories else {}
            )
        self._build_low_fidelity(session)

        # -- Phase 2 bootstrap (lines 7–12) -----------------------------------
        tracker = session.tracker
        self.m0_used = max(1, self.m_0 // 2)  # m'_0 (line 7)
        self.m_b = max(1, (m - self.m_0 - self.m_r) // self.iterations)  # line 8
        to_measure = problem.sample_unmeasured(tracker.remaining, self.m0_used)
        tracker.mark(to_measure)
        candidates = tracker.remaining
        top = session.rank_candidates(
            self.low_fidelity,
            candidates,
            min(self.m_b, collector.runs_remaining - len(to_measure)),
        )
        tracker.mark(top)
        self._pending = to_measure + top

        self.high_fidelity = problem.make_surrogate()  # M_H (line 12)
        self.detector = ModelSwitchDetector()
        self.use_high = False  # M = M_L (line 11)
        session.annotate(
            m_r=self.m_r, m_0=self.m_0, iterations=self.iterations
        )

    def _build_low_fidelity(self, session: TuningSession) -> None:
        self.low_fidelity = LowFidelityModel(
            session.problem.component_models(self._component_data)
        )

    def _selected_model(self):
        if self.use_high and self.high_fidelity.is_fitted:
            return self.high_fidelity
        return self.low_fidelity

    # -- ask/tell -------------------------------------------------------------

    def ask(self, session: TuningSession):
        collector = session.collector
        tracker = session.tracker
        if self._phase == "loop":
            if self._i >= self.iterations:
                self._phase = "residual"
            else:
                self._i += 1
                batch = clip_to_budget(self._pending, collector)
                self._pending = []
                if batch:
                    self._cycle_kind = "loop"
                    if self._i == 1:
                        session.annotate(kind="seed")
                    return batch
                self._phase = "residual"
        if self._phase == "residual":
            # Spend any residual budget (rounding, unused random
            # reserve) on the selected model's current top picks.
            self._phase = "done"
            residual = collector.runs_remaining
            candidates = tracker.remaining
            if residual > 0 and candidates:
                model = self._selected_model()
                top = session.rank_candidates(
                    model, candidates, min(residual, len(candidates))
                )
                tracker.mark(top)
                self._cycle_kind = "residual"
                session.annotate(kind="residual")
                return top
        return []

    def tell(self, session: TuningSession, batch, results: dict) -> None:
        if self._cycle_kind == "residual":
            measured = session.collector.measured
            if len(measured) >= 2:
                session.timed_fit(
                    self.high_fidelity,
                    list(measured),
                    np.array(list(measured.values())),
                )
            return
        self._tell_iteration(session, results)

    def _tell_iteration(self, session: TuningSession, results: dict) -> None:
        collector = session.collector
        tracker = session.tracker
        batch_configs = list(results)
        batch_values = np.array(list(results.values()))
        measured = collector.measured
        all_configs = list(measured)
        all_values = np.array(list(measured.values()))

        decision = None
        if (
            self.settings.switch_enabled
            and not self.use_high
            and len(batch_configs) >= 1
        ):
            # -- model switch detection (lines 16–24) -------------------------
            batch_low = self.low_fidelity.predict(batch_configs)
            if self.high_fidelity.is_fitted:
                batch_high = self.high_fidelity.predict(batch_configs)
                all_high = self.high_fidelity.predict(all_configs)
            else:
                batch_high = None
                all_high = None
            decision = self.detector.evaluate(
                batch_low, batch_high, batch_values, all_high, all_values
            )
            if (
                self.settings.bias_guard_enabled
                and decision.inject_random
                and self.m0_used < self.m_0
            ):
                n_extra = max(1, (self.m_0 - self.m0_used) // 2)  # lines 20–22
                n_extra = min(
                    n_extra, collector.runs_remaining, len(tracker.remaining)
                )
                if n_extra > 0:
                    extra = session.problem.sample_unmeasured(
                        tracker.remaining, n_extra
                    )
                    tracker.mark(extra)
                    self._pending.extend(extra)
                    self.m0_used += n_extra
            if decision.switch:
                self.use_high = True  # line 23
                # Unreserved random budget reinforces later batches
                # (line 24).
                self.m_b += max(
                    0,
                    (self.m_0 - self.m0_used)
                    // max(self.iterations - self._i, 1),
                )

        if len(measured) >= 2:
            session.timed_fit(self.high_fidelity, all_configs, all_values)  # line 25

        session.annotate(
            model_switch=ModelSwitchState(
                model="high" if self.use_high else "low",
                s_high=decision.s_high if decision else None,
                s_low=decision.s_low if decision else None,
                switched=bool(decision.switch) if decision else False,
                injected=len(self._pending),
            )
        )

        if self._i >= self.iterations:
            return
        # -- select the next batch (lines 26–27) ------------------------------
        candidates = tracker.remaining
        if not candidates:
            return
        model = self._selected_model()
        scores = model.predict(candidates)
        remaining_iters = self.iterations - self._i
        budget_left = collector.runs_remaining - len(self._pending)
        take = self.m_b if remaining_iters > 1 else budget_left
        take = max(0, min(take, budget_left))
        top = tracker.take_top(scores, candidates, take)
        tracker.mark(top)
        self._pending.extend(top)

    def finalize(self, session: TuningSession):
        # Alg. 1 line 28 returns M_H; Fig. 3 however feeds the *selected*
        # model into configuration evaluation.  When the switch detector
        # never certified M_H (its batch recall never reached M_L's),
        # returning it would hand the searcher a model that demonstrably
        # ranks worse than the low-fidelity one, so the selected model is
        # returned instead.
        return self._selected_model()

    def summary(self, session: TuningSession) -> dict:
        return {
            "switched": self.use_high,
            "m_r": self.m_r,
            "m_0": self.m_0,
            "iterations": self.iterations,
        }

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "m_r": self.m_r,
            "m_0": self.m_0,
            "iterations": self.iterations,
            "m0_used": self.m0_used,
            "m_b": self.m_b,
            "use_high": self.use_high,
            "high_fitted": self.high_fidelity.is_fitted,
            "detector_switched": self.detector.switched,
            "pending": list(self._pending),
            "i": self._i,
            "phase": self._phase,
            "cycle_kind": self._cycle_kind,
            "component_data": self._component_data,
        }

    def load_state(self, state: dict, session: TuningSession) -> None:
        problem = session.problem
        self.m_r = state["m_r"]
        self.m_0 = state["m_0"]
        self.iterations = state["iterations"]
        self.m0_used = state["m0_used"]
        self.m_b = state["m_b"]
        self.use_high = state["use_high"]
        self._pending = list(state["pending"])
        self._i = state["i"]
        self._phase = state["phase"]
        self._cycle_kind = state["cycle_kind"]
        self._component_data = state["component_data"]
        # Models are rebuilt, not unpickled: retraining on the restored
        # component/workflow data is deterministic, so the resumed
        # session continues bit-identically.
        self._build_low_fidelity(session)
        self.high_fidelity = problem.make_surrogate()
        if state["high_fitted"]:
            measured = session.collector.measured
            self.high_fidelity.fit(
                list(measured), np.array(list(measured.values()))
            )
        self.detector = ModelSwitchDetector()
        self.detector.switched = state["detector_switched"]


@dataclass
class Ceal(TuningAlgorithm):
    """The paper's auto-tuning algorithm."""

    settings: CealSettings = CealSettings()
    name: str = "CEAL"

    def make_strategy(self) -> CealStrategy:
        return CealStrategy(self.settings)
