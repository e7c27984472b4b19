"""GEIST: graph-informed semi-supervised sampling (Thiagarajan et al., ICS '18).

GEIST builds a *parameter graph* over the candidate pool (configurations
are neighbours when close in normalised parameter space), labels
measured configurations good/bad (good = within the top ``top_fraction``
of measured values), spreads the labels over the graph, and measures the
unmeasured configurations most likely to be good — plus an exploration
share of random picks.  A boosted-tree surrogate trained on all measured
samples provides the final model, making its reports comparable with the
other algorithms (Fig. 6 plots GEIST's model MdAPE).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.algorithms.base import PlannedBatches
from repro.core.driver import TuningSession

__all__ = ["Geist"]


def _knn_graph(points: np.ndarray, k: int) -> sp.csr_matrix:
    """Symmetric k-nearest-neighbour affinity graph with RBF weights."""
    from scipy.spatial import cKDTree

    n = points.shape[0]
    k = min(k + 1, n)  # +1: the query point itself
    tree = cKDTree(points)
    dists, idx = tree.query(points, k=k)
    dists, idx = dists[:, 1:], idx[:, 1:]  # drop self
    sigma = np.median(dists[dists > 0]) if np.any(dists > 0) else 1.0
    weights = np.exp(-(dists**2) / (2.0 * sigma**2))
    rows = np.repeat(np.arange(n), idx.shape[1])
    graph = sp.csr_matrix(
        (weights.ravel(), (rows, idx.ravel())), shape=(n, n)
    )
    graph = graph.maximum(graph.T)  # symmetrise
    return graph


def _normalized(graph: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetric normalisation ``D^-1/2 W D^-1/2`` for label spreading."""
    degree = np.asarray(graph.sum(axis=1)).ravel()
    degree[degree == 0] = 1.0
    inv_sqrt = sp.diags(1.0 / np.sqrt(degree))
    return inv_sqrt @ graph @ inv_sqrt


@dataclass
class Geist(PlannedBatches):
    """Parameter-graph label spreading guides the sampling.

    Parameters
    ----------
    top_fraction:
        Measured configurations within this quantile are seeded "good"
        (the ICS '18 paper targets the top 5 %).
    k_neighbors:
        Graph degree.
    alpha:
        Label-spreading mixing weight.
    spread_iterations:
        Fixed-point iterations of the spreading operator.
    explore_fraction:
        Share of each batch drawn at random (exploration).
    iterations:
        Number of graph-guided batches after the seed batch.
    initial_fraction:
        Share of the budget spent on the random seed batch.
    """

    top_fraction: float = 0.05
    k_neighbors: int = 10
    alpha: float = 0.85
    spread_iterations: int = 30
    explore_fraction: float = 0.2
    iterations: int = 5
    initial_fraction: float = 0.3
    name: str = "GEIST"

    def prepare(self, session: TuningSession) -> None:
        problem = session.problem
        self.plan_budget(session.budget)
        # The graph is a deterministic function of the pool (no RNG), so
        # it is recomputed rather than checkpointed.
        self._configs = list(problem.pool_configs)
        self._index_of = {c: i for i, c in enumerate(self._configs)}
        points = problem.workflow.space.normalize(self._configs)
        self._spread_op = _normalized(_knn_graph(points, self.k_neighbors))

    def guided_batch(self, session: TuningSession, n: int):
        tracker = session.tracker
        goodness = self._spread_labels(session)
        candidates = tracker.remaining
        if not candidates:
            return []
        n_explore = min(n, max(0, round(self.explore_fraction * n)))
        cand_scores = np.array(
            [-goodness[self._index_of[c]] for c in candidates]
        )  # negate: take_top takes lowest
        batch = tracker.take_top(cand_scores, candidates, n - n_explore)
        tracker.mark(batch)
        if n_explore:
            batch = batch + self.seed_batch(session, n_explore)
        session.annotate(explore=n_explore)
        return batch

    def finalize(self, session: TuningSession):
        if session.collector.n_measured < 2:
            raise RuntimeError("GEIST obtained fewer than 2 samples")
        model = session.problem.make_surrogate()
        session.fit_measured(model)
        return model

    def load_state(self, state: dict, session: TuningSession) -> None:
        self.prepare(session)
        super().load_state(state, session)

    def _spread_labels(self, session: TuningSession) -> np.ndarray:
        """Label-spread goodness score per pool configuration."""
        measured = session.collector.measured
        seeds = np.zeros(len(self._configs))
        if measured:
            values = np.array(list(measured.values()))
            threshold = np.quantile(values, self.top_fraction)
            for config, value in measured.items():
                seeds[self._index_of[config]] = (
                    1.0 if value <= threshold else -1.0
                )
        scores = seeds.copy()
        for _ in range(self.spread_iterations):
            scores = self.alpha * (self._spread_op @ scores) + (
                1 - self.alpha
            ) * seeds
        return scores
