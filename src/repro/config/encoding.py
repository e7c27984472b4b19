"""Feature encodings of configurations for ML models.

Tree ensembles split on feature thresholds, so raw parameter values are
already usable features.  Derived features (node counts, total process
counts, per-node densities) make resource-driven structure in the tuning
landscape *axis-aligned*, which markedly helps small-sample tree models —
the regime the paper operates in (tens of training samples).

Workflow definitions register :class:`DerivedFeature` column functions;
the :class:`ConfigEncoder` assembles the full feature matrix.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.config.space import Configuration, ParameterSpace
from repro.config.table import ConfigRows

__all__ = ["DerivedFeature", "ConfigEncoder"]


@dataclass(frozen=True)
class DerivedFeature:
    """A named derived feature column computed from raw parameter values.

    Parameters
    ----------
    name:
        Feature column name (reported by :meth:`ConfigEncoder.feature_names`).
    func:
        Maps ``(space, X)`` to one float per row, where ``X`` is the
        ``(n, d)`` float64 matrix of raw parameter values in space order.
    """

    name: str
    func: Callable[[ParameterSpace, np.ndarray], np.ndarray]

    def __call__(self, space: ParameterSpace, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(space, X), dtype=np.float64)


@dataclass(frozen=True)
class ConfigEncoder:
    """Encode configurations into dense float feature matrices.

    The encoding is the concatenation of all raw parameter values (in space
    order) with any registered derived features, each computed for the
    whole batch from the raw matrix.
    """

    space: ParameterSpace
    derived: tuple[DerivedFeature, ...] = ()

    def feature_names(self) -> tuple[str, ...]:
        """Column names of the encoded matrix."""
        return self.space.names + tuple(d.name for d in self.derived)

    @property
    def n_features(self) -> int:
        return self.space.dimension + len(self.derived)

    def encode_one(self, config: Configuration) -> np.ndarray:
        """Encode a single configuration to a 1-D feature vector."""
        return self.encode([config])[0]

    def encode(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Encode configurations into a fresh ``(n, n_features)`` matrix.

        A :class:`~repro.config.table.ConfigRows` view contributes its
        rows of the table's value matrix; any other sequence (and a
        view of a table without one) is converted from its tuples.
        """
        if len(configs) == 0:
            return np.empty((0, self.n_features))
        raw = configs.values if isinstance(configs, ConfigRows) else None
        if raw is None:
            raw = np.array(list(configs), dtype=np.float64)
        return self.encode_values(raw)

    def encode_values(self, raw: np.ndarray) -> np.ndarray:
        """Add the derived columns to an ``(n, dimension)`` float64 value
        matrix (``raw`` itself when there are none)."""
        if not self.derived:
            return raw
        return np.column_stack(
            [raw] + [d(self.space, raw) for d in self.derived]
        )

    def with_derived(self, *features: DerivedFeature) -> "ConfigEncoder":
        """Return a new encoder with extra derived features appended."""
        return ConfigEncoder(self.space, self.derived + tuple(features))


def component_footprint_features(
    label: str,
    procs_names: Sequence[str],
    ppn_name: str | None,
    threads_name: str | None = None,
) -> tuple[DerivedFeature, ...]:
    """Standard derived features for one component's placement.

    Produces ``<label>.nodes`` (node footprint), ``<label>.total_procs``
    and, when a thread count exists, ``<label>.cores_used`` (per-node core
    occupancy ``ppn * threads``).
    """
    procs_names = tuple(procs_names)

    def column(space: ParameterSpace, X: np.ndarray, name: str) -> np.ndarray:
        return X[:, space.position(name)]

    def total_procs(space: ParameterSpace, X: np.ndarray) -> np.ndarray:
        procs = column(space, X, procs_names[0])
        for name in procs_names[1:]:
            procs = procs * column(space, X, name)
        return procs

    def nodes(space: ParameterSpace, X: np.ndarray) -> np.ndarray:
        ppn = column(space, X, ppn_name) if ppn_name else 1.0
        return np.ceil(total_procs(space, X) / np.maximum(ppn, 1.0))

    feats = [
        DerivedFeature(f"{label}.total_procs", total_procs),
        DerivedFeature(f"{label}.nodes", nodes),
    ]
    if threads_name is not None and ppn_name is not None:
        def cores_used(space: ParameterSpace, X: np.ndarray) -> np.ndarray:
            return column(space, X, ppn_name) * column(space, X, threads_name)

        feats.append(DerivedFeature(f"{label}.cores_used", cores_used))
    return tuple(feats)
