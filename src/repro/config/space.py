"""Discrete parameter spaces.

The paper tunes purely discrete parameters (process counts, processes per
node, thread counts, buffer sizes, output counts — Table 1).  A
:class:`Parameter` is an ordered tuple of admissible values; a
:class:`ParameterSpace` is an ordered collection of parameters together
with sampling, enumeration, and neighbourhood helpers.

Configurations are represented as plain tuples of values, ordered like the
space's parameters.  Tuples are hashable (they key ground-truth caches and
measured-sample sets) and cheap, which matters because auto-tuning
experiments score pools of thousands of configurations repeatedly.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

#: A configuration is a tuple of parameter values, aligned with the
#: owning :class:`ParameterSpace`'s parameter order.
Configuration = tuple

#: Largest rejection-sampling chunk (rows), which bounds its memory.
_MAX_CHUNK = 1 << 14

__all__ = [
    "Configuration",
    "Parameter",
    "ParameterSpace",
    "choice",
    "geometric_range",
    "int_range",
    "join_spaces",
]


@dataclass(frozen=True)
class Parameter:
    """One discrete tunable parameter.

    Parameters
    ----------
    name:
        Identifier, unique within its space.  Joined workflow spaces use
        dotted names such as ``"lammps.procs"``.
    values:
        Ordered tuple of admissible values.  Order defines the parameter's
        one-step neighbourhood (used by GEIST's parameter graph).
    """

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"parameter {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"parameter {self.name!r} has duplicate values")

    @property
    def n_options(self) -> int:
        """Number of admissible values."""
        return len(self.values)

    def index_of(self, value) -> int:
        """Return the position of ``value`` in :attr:`values`.

        Raises
        ------
        ValueError
            If ``value`` is not admissible for this parameter.
        """
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueError(
                f"{value!r} is not an admissible value of parameter {self.name!r}"
            ) from None

    def clip_index(self, index: int) -> int:
        """Clamp an index into the valid range ``[0, n_options)``."""
        return min(max(index, 0), self.n_options - 1)


def int_range(name: str, low: int, high: int, step: int = 1) -> Parameter:
    """Build an integer parameter covering ``low, low+step, ..., high``.

    Mirrors Table 1 rows such as ``# processes: 2, 3, ..., 1085``.
    """
    if high < low:
        raise ValueError(f"empty range for {name!r}: [{low}, {high}]")
    return Parameter(name, tuple(range(low, high + 1, step)))


def choice(name: str, values: Iterable) -> Parameter:
    """Build a parameter from an explicit iterable of options."""
    return Parameter(name, tuple(values))


def geometric_range(name: str, low: int, high: int, factor: int = 2) -> Parameter:
    """Build a parameter whose options grow geometrically (e.g. 4, 8, 16, 32)."""
    if factor < 2:
        raise ValueError("factor must be >= 2")
    values = []
    v = low
    while v <= high:
        values.append(v)
        v *= factor
    return Parameter(name, tuple(values))


@dataclass(frozen=True)
class ParameterSpace:
    """An ordered collection of discrete parameters.

    The space deliberately knows nothing about feasibility: a constraint
    is applied at sampling time (a workflow's comes from its components'
    placements, :class:`~repro.insitu.workflow.PlacementRule`) because
    workflow-level feasibility couples parameters *across* components
    (e.g. the total node count of all components must fit the allocation).
    """

    parameters: tuple[Parameter, ...]
    _index: dict = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        object.__setattr__(
            self, "_index", {p.name: i for i, p in enumerate(self.parameters)}
        )

    # -- basic introspection -------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Parameter names in order."""
        return tuple(p.name for p in self.parameters)

    @property
    def dimension(self) -> int:
        """Number of parameters."""
        return len(self.parameters)

    def __len__(self) -> int:
        return len(self.parameters)

    def __getitem__(self, name: str) -> Parameter:
        return self.parameters[self._index[name]]

    def position(self, name: str) -> int:
        """Return the index of parameter ``name`` in configuration tuples."""
        return self._index[name]

    def size(self) -> int:
        """Total number of raw configurations (ignoring constraints).

        This is the multiplicative count the paper quotes, e.g.
        2.9 × 10⁹ for LV.
        """
        return math.prod(p.n_options for p in self.parameters)

    # -- configuration handling ----------------------------------------------

    def contains(self, config: Configuration) -> bool:
        """True when every entry of ``config`` is admissible."""
        if len(config) != self.dimension:
            return False
        return all(v in p.values for v, p in zip(config, self.parameters))

    def validate(self, config: Configuration) -> Configuration:
        """Return ``config`` unchanged, raising ``ValueError`` if invalid."""
        if len(config) != self.dimension:
            raise ValueError(
                f"configuration has {len(config)} entries, space has "
                f"{self.dimension} parameters"
            )
        for v, p in zip(config, self.parameters):
            if v not in p.values:
                raise ValueError(
                    f"{v!r} is not admissible for parameter {p.name!r}"
                )
        return tuple(config)

    def value_matrix(self, configs: Sequence[Configuration]) -> np.ndarray:
        """``configs`` as an ``(n, dimension)`` array, one row per configuration.

        Numeric values keep a numeric dtype; any other value (a string
        choice, a bool) makes it an object array, whose ``tolist()``
        gives back the very values.  Raises ``ValueError`` when a row
        does not have one entry per parameter.
        """
        if not configs:
            return np.empty((0, self.dimension), dtype=np.int64)
        values = np.array(configs)
        if values.dtype.kind not in "iuf":
            values = np.array(configs, dtype=object)
        if values.shape != (len(configs), self.dimension):
            raise ValueError(
                f"configurations must have {self.dimension} entries each"
            )
        return values

    def contains_batch(self, values: np.ndarray) -> np.ndarray:
        """:meth:`contains` of every row of a numeric ``(n, dimension)`` matrix.

        A parameter with non-numeric values leaves every row unconfirmed
        (false) for the caller's scalar check.
        """
        member = np.ones(len(values), dtype=bool)
        for j, parameter in enumerate(self.parameters):
            table = np.asarray(parameter.values)
            if table.dtype.kind not in "iuf":
                member[:] = False
                continue
            table = np.sort(table)
            pos = np.minimum(np.searchsorted(table, values[:, j]), len(table) - 1)
            member &= table[pos] == values[:, j]
        return member

    def value(self, config: Configuration, name: str):
        """Extract the value of parameter ``name`` from a configuration."""
        return config[self._index[name]]

    def as_dict(self, config: Configuration) -> dict:
        """Render a configuration as a ``{name: value}`` mapping."""
        return dict(zip(self.names, config))

    def from_dict(self, mapping: dict) -> Configuration:
        """Build a configuration tuple from a ``{name: value}`` mapping."""
        missing = set(self.names) - set(mapping)
        if missing:
            raise ValueError(f"missing parameters: {sorted(missing)}")
        return self.validate(tuple(mapping[n] for n in self.names))

    # -- sampling and enumeration ----------------------------------------------

    def sample(
        self,
        rng: np.random.Generator,
        n: int = 1,
        constraint: Callable[[Configuration], bool] | None = None,
        unique: bool = False,
        max_tries_factor: int = 1000,
    ) -> list[Configuration]:
        """Draw ``n`` uniformly random (feasible) configurations.

        Parameters
        ----------
        rng:
            Source of randomness; passing it explicitly keeps every
            experiment reproducible.
        constraint:
            Optional feasibility predicate; infeasible draws are rejected
            and re-drawn.
        unique:
            When true, returned configurations are pairwise distinct.
        max_tries_factor:
            Rejection-sampling guard: give up after
            ``max_tries_factor * n`` draws so that an unsatisfiable
            constraint fails loudly instead of spinning forever.
        """
        # Chunked rejection sampling.  ``Generator.integers`` consumes
        # the bit stream element-wise in order, so one tiled array call
        # per chunk draws the exact same index sequence as the former
        # per-parameter scalar calls, whatever the chunk sizes — the
        # result is the first ``n`` accepted rows of one long stream.
        # Only the generator's position after an over-drawn final chunk
        # depends on them, and every caller uses a fresh single-purpose
        # generator.  After the first chunk, the next is sized from the
        # acceptance rate so far (LV's allocation rules accept under 2%
        # of draws), capped at ``_MAX_CHUNK`` rows and at the draws left
        # under the limit.  A chunk's draws are one compiled call
        # (:func:`repro.ml._native.bounded_rows`, the same values and
        # generator state as the tiled ``integers`` call, which stays
        # the fallback).  A constraint exposing ``feasible_batch`` (a
        # workflow's placement rule) is evaluated vectorized over the
        # chunk, and the accepted rows are decoded column by column
        # into tuples of each parameter's own value objects.
        from repro.ml import _native

        out: list[Configuration] = []
        seen: set[Configuration] = set()
        tries = 0
        limit = max_tries_factor * max(n, 1)
        highs = np.fromiter(
            (p.n_options for p in self.parameters),
            dtype=np.int64,
            count=len(self.parameters),
        )
        tables = [
            np.fromiter(p.values, dtype=object, count=p.n_options)
            for p in self.parameters
        ]
        batch_eval = getattr(constraint, "feasible_batch", None)
        check = constraint if batch_eval is None else None
        while len(out) < n:
            if tries >= limit:
                raise RuntimeError(
                    f"rejection sampling exceeded {limit} draws; the "
                    "constraint is too tight for this space"
                )
            remaining = n - len(out)
            if tries == 0:
                chunk = max(64, 2 * remaining)
            else:
                rate = max(len(out), 1) / tries
                chunk = max(64, math.ceil(1.25 * remaining / rate))
            chunk = min(limit - tries, _MAX_CHUNK, chunk)
            idx = _native.bounded_rows(rng, highs, chunk)
            if idx is None:
                idx = rng.integers(np.tile(highs, chunk)).reshape(chunk, -1)
            tries += chunk
            if batch_eval is not None:
                idx = idx[np.asarray(batch_eval(self, idx), dtype=bool)]
            columns = [table[idx[:, j]].tolist() for j, table in enumerate(tables)]
            for config in zip(*columns):
                if check is not None and not check(config):
                    continue
                if unique:
                    if config in seen:
                        continue
                    seen.add(config)
                out.append(config)
                if len(out) == n:
                    break
        return out

    def enumerate(self) -> Iterator[Configuration]:
        """Yield every raw configuration (use only for small spaces)."""
        def rec(prefix: tuple, remaining: Sequence[Parameter]):
            if not remaining:
                yield prefix
                return
            head, *tail = remaining
            for v in head.values:
                yield from rec(prefix + (v,), tail)

        yield from rec((), self.parameters)

    # -- geometry helpers (GEIST parameter graph, normalisation) ---------------

    def to_indices(self, config: Configuration) -> np.ndarray:
        """Map a configuration to its per-parameter option indices."""
        return np.array(
            [p.index_of(v) for v, p in zip(config, self.parameters)], dtype=np.int64
        )

    def from_indices(self, indices: Sequence[int]) -> Configuration:
        """Inverse of :meth:`to_indices`."""
        return tuple(
            p.values[p.clip_index(int(i))] for i, p in zip(indices, self.parameters)
        )

    def normalize(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Map configurations to ``[0, 1]^d`` by option index.

        Used to build distance-based parameter graphs (GEIST) where raw
        magnitudes (2..1085 processes vs 1..4 threads) would otherwise
        dominate.
        """
        if not configs:
            return np.empty((0, self.dimension))
        idx = np.array([self.to_indices(c) for c in configs], dtype=np.float64)
        denom = np.array(
            [max(p.n_options - 1, 1) for p in self.parameters], dtype=np.float64
        )
        return idx / denom

    def neighbors(self, config: Configuration) -> list[Configuration]:
        """One-step neighbours: each parameter moved one option up or down."""
        idx = self.to_indices(config)
        out: list[Configuration] = []
        for j, p in enumerate(self.parameters):
            for delta in (-1, 1):
                k = idx[j] + delta
                if 0 <= k < p.n_options:
                    new = list(config)
                    new[j] = p.values[k]
                    out.append(tuple(new))
        return out


def join_spaces(prefixed: Sequence[tuple[str, ParameterSpace]]) -> ParameterSpace:
    """Join component spaces into one workflow space.

    Each component's parameter names are prefixed with ``"<label>."`` so the
    joint space keeps track of which slice belongs to which component —
    exactly the structure CEAL's analytical coupling model exploits when it
    extracts the per-component sub-configuration ``c_j`` from a workflow
    configuration ``c`` (paper Eqns. 1–2).
    """
    params: list[Parameter] = []
    labels = [label for label, _ in prefixed]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate component labels: {labels}")
    for label, space in prefixed:
        for p in space.parameters:
            params.append(Parameter(f"{label}.{p.name}", p.values))
    return ParameterSpace(tuple(params))
