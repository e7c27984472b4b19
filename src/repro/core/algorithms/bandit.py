"""RL-flavoured region-bandit tuner (paper §9 future work).

The paper's future work proposes reinforcement learning that
"dynamically update[s] the sample pool containing higher-performing
configurations according to measured configurations".  The minimal
rigorous instance of that idea is a multi-armed bandit over *regions*
of the candidate pool:

1. cluster the pool in normalised parameter space (k-means),
2. treat each cluster as an arm whose reward is the (negated,
   normalised) measured objective of configurations sampled from it,
3. select arms by UCB1 — exploration bonuses shrink for regions that
   keep disappointing, so sampling concentrates on well-performing
   regions exactly as the paper envisions, and
4. inside the chosen region, pick the surrogate's best unmeasured
   configuration once enough data exists (random before that).

The final surrogate is the same boosted-tree model the other
algorithms train, so all §7.2 metrics are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.algorithms.base import TuningAlgorithm
from repro.core.driver import TuningSession

__all__ = ["RegionBandit"]


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
            iterations: int = 20) -> np.ndarray:
    """Plain k-means labels on normalised points (numpy only)."""
    n = points.shape[0]
    k = min(k, n)
    centers = points[rng.choice(n, size=k, replace=False)]
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
    return labels


@dataclass
class RegionBandit(TuningAlgorithm):
    """UCB1 over pool regions with a surrogate-guided inner pick.

    Parameters
    ----------
    n_regions:
        Number of pool clusters (arms).
    exploration:
        UCB exploration coefficient ``c`` in
        ``mean_reward + c·sqrt(ln N / n_arm)``.
    warmup_per_region:
        Random configurations measured per region before UCB starts.
    """

    n_regions: int = 8
    exploration: float = 0.7
    warmup_per_region: int = 1
    name: str = "Bandit"

    _warm_index = 0
    _warm_count = 0
    _warmup_done = False
    _last_region = None

    def __post_init__(self) -> None:
        if self.n_regions < 2:
            raise ValueError("n_regions must be >= 2")
        if self.exploration < 0:
            raise ValueError("exploration must be non-negative")

    def prepare(self, session: TuningSession) -> None:
        problem = session.problem
        points = problem.workflow.space.normalize(list(problem.pool_configs))
        self._labels = _kmeans(points, self.n_regions, problem.rng)
        self._build_regions(session)
        self._rewards: dict[int, list] = {r: [] for r in self._regions}
        self._model = session.problem.make_surrogate()
        session.annotate(regions=len(self._regions))

    def _build_regions(self, session: TuningSession) -> None:
        self._regions: dict[int, list] = {}
        for config, region in zip(session.problem.pool_configs, self._labels):
            self._regions.setdefault(int(region), []).append(tuple(config))
        self._warm_order = sorted(self._regions)

    def _remaining_in(self, region: int, session: TuningSession) -> list:
        available = set(session.tracker.remaining)
        return [c for c in self._regions[region] if c in available]

    def ask(self, session: TuningSession):
        collector = session.collector
        tracker = session.tracker
        # -- warm-up: seed every region, one pick per cycle -------------------
        if not self._warmup_done:
            while self._warm_index < len(self._warm_order):
                if self._warm_count >= self.warmup_per_region:
                    self._warm_index += 1
                    self._warm_count = 0
                    continue
                if collector.runs_remaining <= 0:
                    return []
                region = self._warm_order[self._warm_index]
                candidates = self._remaining_in(region, session)
                if not candidates:
                    self._warm_index += 1
                    self._warm_count = 0
                    continue
                self._warm_count += 1
                pick = session.problem.sample_unmeasured(candidates, 1)
                tracker.mark(pick)
                self._last_region = region
                session.annotate(kind="warmup", region=region)
                return pick
            self._warmup_done = True
        # -- UCB loop ----------------------------------------------------------
        if collector.runs_remaining <= 0:
            return []
        measured_all = collector.measured
        if not measured_all:
            return []
        scale = float(np.median(list(measured_all.values())))
        total_pulls = sum(len(v) for v in self._rewards.values())
        best_region, best_ucb = None, -math.inf
        for region in self._regions:
            if not self._remaining_in(region, session):
                continue
            pulls = self._rewards[region]
            if not pulls:
                ucb = math.inf
            else:
                mean_reward = float(np.mean([-v / scale for v in pulls]))
                ucb = mean_reward + self.exploration * math.sqrt(
                    math.log(max(total_pulls, 2)) / len(pulls)
                )
            if ucb > best_ucb:
                best_region, best_ucb = region, ucb
        if best_region is None:
            return []
        candidates = self._remaining_in(best_region, session)
        if len(measured_all) >= 5:
            session.fit_measured(self._model)
            scores = self._model.predict(candidates)
            pick = [candidates[int(np.argmin(scores))]]
        else:
            pick = session.problem.sample_unmeasured(candidates, 1)
        tracker.mark(pick)
        self._last_region = best_region
        session.annotate(region=best_region, ucb=best_ucb, picked=pick[0])
        return pick

    def tell(self, session: TuningSession, batch, results: dict) -> None:
        for value in results.values():
            self._rewards[self._last_region].append(value)

    def finalize(self, session: TuningSession):
        if session.collector.n_measured < 2:
            raise RuntimeError("bandit obtained fewer than 2 samples")
        session.fit_measured(self._model)
        return self._model

    def summary(self, session: TuningSession) -> dict:
        return {"pulls": {r: len(v) for r, v in self._rewards.items()}}

    def state_dict(self) -> dict:
        return {
            "labels": self._labels,
            "rewards": {r: list(v) for r, v in self._rewards.items()},
            "warm_index": self._warm_index,
            "warm_count": self._warm_count,
            "warmup_done": self._warmup_done,
            "last_region": self._last_region,
        }

    def load_state(self, state: dict, session: TuningSession) -> None:
        self._labels = state["labels"]
        self._build_regions(session)
        self._rewards = {r: list(v) for r, v in state["rewards"].items()}
        self._warm_index = state["warm_index"]
        self._warm_count = state["warm_count"]
        self._warmup_done = state["warmup_done"]
        self._last_region = state["last_region"]
        # The surrogate refits from scratch on every guided pick, so a
        # fresh instance continues bit-identically.
        self._model = session.problem.make_surrogate()
