"""Comparison auto-tuning algorithms (paper §7.3).

All consume a :class:`~repro.core.problem.TuningProblem` and return an
:class:`~repro.core.problem.AutotuneResult`; CEAL itself lives in
:mod:`repro.core.ceal`.  Each algorithm is one dataclass that is also
its own search strategy (:mod:`repro.core.algorithms.base`).
"""

from repro.core.algorithms.active_learning import ActiveLearning
from repro.core.algorithms.alph import Alph
from repro.core.algorithms.bandit import RegionBandit
from repro.core.algorithms.base import (
    CandidateTracker,
    PlannedBatches,
    SearchStrategy,
    TuningAlgorithm,
    split_batches,
)
from repro.core.algorithms.bayesian import BayesianOptimization
from repro.core.algorithms.geist import Geist
from repro.core.algorithms.low_fidelity_only import LowFidelityOnly
from repro.core.algorithms.random_sampling import RandomSampling

__all__ = [
    "ActiveLearning",
    "Alph",
    "BayesianOptimization",
    "CandidateTracker",
    "Geist",
    "LowFidelityOnly",
    "PlannedBatches",
    "RandomSampling",
    "RegionBandit",
    "SearchStrategy",
    "TuningAlgorithm",
    "split_batches",
]
