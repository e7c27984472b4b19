"""Model registry: fitted models keyed by training-set hash.

Every model fit in this codebase is a deterministic function of
``(training matrix, targets, hyper-parameters, random_state)``, so a
fitted model can be cached by a content hash of exactly those inputs
and reused cost-free — a warm-started session skips the boosted-tree
fits it already paid for, and a served session rehydrated in the same
process gets the very object it fitted before eviction.  A registry
miss (or a blob pickled by an incompatible code version) falls back to
*refitting*, which by determinism produces the identical model: the
registry can never change results, only save time.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.lru import LruCache
from repro.store.db import MeasurementStore
from repro.store.signatures import signature

__all__ = ["ModelRegistry", "training_key"]


def training_key(
    kind: str,
    label: str,
    objective: str,
    X: np.ndarray,
    y: np.ndarray,
    params: str,
) -> str:
    """Content hash of one fit's complete inputs.

    ``params`` is the repr of the *unfitted* estimator, which covers
    every hyper-parameter including ``random_state``; the raw array
    bytes (plus shapes — bytes alone do not fix the row split) cover
    the training set.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    return signature(
        "fit",
        kind,
        label,
        objective,
        params,
        X.shape,
        X.tobytes(),
        y.tobytes(),
    )


class ModelRegistry:
    """Fitted-model cache: an in-process memo over a persistent store.

    ``fit_or_load`` is the whole contract: return the model trained on
    the inputs hashed into ``key``.  It looks in ``memo`` (a
    :class:`~repro.lru.LruCache` shared by every session of a process),
    then in ``store`` (a :class:`MeasurementStore` shared across
    sessions and processes), then runs the supplied deterministic
    ``fit``.  Whatever a lower layer produces is promoted upward, so a
    model is fitted or unpickled at most once per process and later
    sessions get the already-packed ensemble by reference.  Fitted
    ensembles are treated as immutable everywhere (refits clone before
    fitting), which is what makes reference sharing safe.  Either layer
    may be ``None``.
    """

    def __init__(
        self,
        store: MeasurementStore | None = None,
        memo: LruCache | None = None,
    ) -> None:
        self.store = store
        self.memo = memo
        #: Loads (memo or store) and fits since construction.
        self.hits = 0
        self.misses = 0

    def fit_or_load(self, key: str, fit: Callable[[], object], kind: str = "model"):
        model = None if self.memo is None else self.memo.get(key)
        if model is not None:
            self.hits += 1
            return model
        model = self._load(key)
        if model is not None:
            self.hits += 1
        else:
            self.misses += 1
            model = fit()
            if self.store is not None:
                self.store.put_model(key, model, kind=kind)
        if self.memo is not None:
            self.memo.put(key, model)
        return model

    def _load(self, key: str):
        """The stored model under ``key`` (``None`` on a miss or no store)."""
        if self.store is None:
            return None
        from repro import telemetry

        model = self.store.get_model(key)
        outcome = "misses" if model is None else "hits"
        telemetry.get().counter(f"store.registry.{outcome}").inc()
        return model
