"""Workflow definitions: components + streaming couplings + joint space.

A workflow is a DAG (paper §2.3) whose nodes are
:class:`~repro.apps.ComponentApp` models and whose edges are
:class:`Coupling` streams.  The joint configuration space is the product
of the component spaces with dotted name prefixes
(:func:`repro.config.join_spaces`).  Feasibility comes from each app's
own ``placement``: a configuration is feasible when the components'
placements fit the machine side by side
(:func:`~repro.cluster.allocation.allocation_ok`).
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.apps.base import ComponentApp, SoloRunResult
from repro.cluster.allocation import Placement, allocation_ok
from repro.cluster.machine import Machine
from repro.config.encoding import (
    ConfigEncoder,
    DerivedFeature,
    component_footprint_features,
)
from repro.config.space import Configuration, ParameterSpace, join_spaces

__all__ = ["Coupling", "PlacementRule", "WorkflowDefinition"]


@dataclass(frozen=True)
class Coupling:
    """One streaming edge of the workflow DAG.

    Parameters
    ----------
    producer, consumer:
        Component labels.
    buffer_messages:
        Default staging-buffer depth in whole messages (double buffering
        unless a tuned buffer parameter overrides it via the workflow's
        ``buffer_hook``).
    """

    producer: str
    consumer: str
    buffer_messages: int = 2

    def __post_init__(self) -> None:
        if self.producer == self.consumer:
            raise ValueError("a component cannot stream to itself")
        if self.buffer_messages < 1:
            raise ValueError("buffer_messages must be >= 1")


@dataclass
class WorkflowDefinition:
    """A coupled in-situ workflow.

    Parameters
    ----------
    name:
        Short identifier (``"LV"``, ``"HS"``, ``"GP"``).
    components:
        Ordered ``(label, app)`` pairs; order fixes the layout of joint
        configurations (paper Table 2 tuples).
    couplings:
        Streaming edges between labels.
    n_steps:
        Either a fixed int or a callable ``f(workflow, config) -> int``
        (HS derives steps from Heat Transfer's ``outputs`` parameter).
    machine:
        Machine the workflow runs on.
    buffer_hook:
        Optional ``f(workflow, coupling, config) -> int`` overriding a
        coupling's buffer depth from configuration parameters.
    extra_features:
        Additional derived features for the ML encoder.

    A callable ``n_steps`` or ``buffer_hook`` may carry a ``batch``
    attribute: the same function over an ``(n, dimension)`` value
    matrix (one row per configuration) returning an integer array.
    Without one, :meth:`steps_batch` and :meth:`buffer_messages_batch`
    call the hook row by row.
    """

    name: str
    components: tuple[tuple[str, ComponentApp], ...]
    couplings: tuple[Coupling, ...]
    n_steps: int | Callable = 20
    machine: Machine = field(default_factory=Machine)
    buffer_hook: Callable | None = None
    extra_features: tuple[DerivedFeature, ...] = ()

    _apps: dict = field(init=False, repr=False)
    _space: ParameterSpace = field(init=False, repr=False)
    _slices: dict = field(init=False, repr=False)
    _graph: nx.DiGraph = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.components]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate component labels: {labels}")
        self._apps = dict(self.components)
        for coupling in self.couplings:
            for end in (coupling.producer, coupling.consumer):
                if end not in self._apps:
                    raise ValueError(f"coupling references unknown component {end!r}")
        self._graph = nx.DiGraph()
        self._graph.add_nodes_from(labels)
        self._graph.add_edges_from(
            (c.producer, c.consumer) for c in self.couplings
        )
        if not nx.is_directed_acyclic_graph(self._graph):
            raise ValueError(f"workflow {self.name!r} couplings form a cycle")

        self._space = join_spaces(
            [(label, app.space) for label, app in self.components]
        )
        # Record where each component's parameters live in the joint tuple.
        self._slices = {}
        offset = 0
        for label, app in self.components:
            d = app.space.dimension
            self._slices[label] = slice(offset, offset + d)
            offset += d

    # -- structure --------------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """Component labels in definition order."""
        return tuple(label for label, _ in self.components)

    @property
    def graph(self) -> nx.DiGraph:
        """The workflow DAG (labels as nodes)."""
        return self._graph

    def app(self, label: str) -> ComponentApp:
        """The component model behind ``label``."""
        return self._apps[label]

    def inputs_of(self, label: str) -> tuple[Coupling, ...]:
        """Couplings feeding ``label``."""
        return tuple(c for c in self.couplings if c.consumer == label)

    def outputs_of(self, label: str) -> tuple[Coupling, ...]:
        """Couplings fed by ``label``."""
        return tuple(c for c in self.couplings if c.producer == label)

    # -- configurations ------------------------------------------------------------

    @property
    def space(self) -> ParameterSpace:
        """Joint configuration space (the multiplicative blow-up of §2.3)."""
        return self._space

    @functools.cached_property
    def constraint(self) -> PlacementRule:
        """Machine-level feasibility of joint configurations."""
        return PlacementRule(
            self._space,
            tuple((app, self._slices[label]) for label, app in self.components),
            self.machine,
        )

    def component_constraint(self, label: str) -> PlacementRule:
        """The placement rule of component ``label`` alone, over its own space.

        A standalone run occupies the whole allocation by itself, so
        the rule is the joint one restricted to one component.
        """
        app = self.app(label)
        return PlacementRule(
            app.space, ((app, slice(0, app.space.dimension)),), self.machine
        )

    def placements(self, config: Configuration) -> dict[str, Placement]:
        """Validated component placements of ``config``.

        The one validation of a coupled run: raises ``ValueError`` when
        ``config`` is outside the joint space or its placements do not
        fit the machine.
        """
        self._space.validate(config)
        placements = {
            label: self.app(label).placement(self.component_config(label, config))
            for label in self.labels
        }
        if not allocation_ok(placements.values(), self.machine):
            nodes = sum(p.nodes for p in placements.values())
            raise ValueError(
                f"configuration {config!r} is infeasible on {self.name} "
                f"(needs {nodes} nodes, cap {self.machine.max_nodes}; "
                "or oversubscribed cores)"
            )
        return placements

    def component_slice(self, label: str) -> slice:
        """Where component ``label``'s parameters sit in a joint configuration."""
        return self._slices[label]

    def component_config(self, label: str, config: Configuration) -> Configuration:
        """Extract component ``label``'s sub-configuration ``c_j`` from ``c``."""
        return tuple(config[self._slices[label]])

    def component_columns(self, label: str, values: np.ndarray) -> tuple:
        """Component ``label``'s columns of an ``(n, dimension)`` value matrix."""
        return tuple(values[:, self._slices[label]].T)

    def steps(self, config: Configuration) -> int:
        """Number of coupled streaming steps for this configuration."""
        if callable(self.n_steps):
            return int(self.n_steps(self, config))
        return int(self.n_steps)

    def steps_batch(self, values: np.ndarray) -> np.ndarray:
        """:meth:`steps` of every row of an ``(n, dimension)`` value matrix."""
        if not callable(self.n_steps):
            return np.full(len(values), int(self.n_steps), dtype=np.int64)
        batch = getattr(self.n_steps, "batch", None)
        if batch is not None:
            return np.asarray(batch(self, values)).astype(np.int64)
        return np.array(
            [self.steps(tuple(row)) for row in values.tolist()], dtype=np.int64
        )

    def buffer_messages(self, coupling: Coupling, config: Configuration) -> int:
        """Staging depth of ``coupling`` under ``config``."""
        if self.buffer_hook is not None:
            depth = self.buffer_hook(self, coupling, config)
            if depth is not None:
                return max(1, int(depth))
        return coupling.buffer_messages

    def buffer_messages_batch(
        self, coupling: Coupling, values: np.ndarray
    ) -> np.ndarray:
        """:meth:`buffer_messages` of every row of a value matrix."""
        if self.buffer_hook is None:
            return np.full(len(values), coupling.buffer_messages, dtype=np.int64)
        batch = getattr(self.buffer_hook, "batch", None)
        if batch is not None:
            depth = np.asarray(batch(self, coupling, values)).astype(np.int64)
            return np.maximum(1, depth)
        return np.array(
            [self.buffer_messages(coupling, tuple(row)) for row in values.tolist()],
            dtype=np.int64,
        )

    def total_nodes(self, config: Configuration) -> int:
        """Node footprint of the whole workflow."""
        return sum(
            self.app(label).placement(self.component_config(label, config)).nodes
            for label in self.labels
        )

    def encoder(self) -> ConfigEncoder:
        """ML feature encoder: raw joint values + per-component footprints.

        Footprint features read the conventional placement names
        (``px``·``py`` or ``procs``, ``ppn``, ``threads``); a component
        without a process count and a ``ppn`` gets none.
        """
        derived: list[DerivedFeature] = []
        for label, app in self.components:
            names = set(app.space.names)
            procs = ("px", "py") if {"px", "py"} <= names else ("procs",)
            if "ppn" in names and set(procs) <= names:
                derived.extend(
                    component_footprint_features(
                        label,
                        [f"{label}.{name}" for name in procs],
                        f"{label}.ppn",
                        f"{label}.threads" if "threads" in names else None,
                    )
                )
        return ConfigEncoder(self._space, tuple(derived) + self.extra_features)

    # -- standalone component runs ------------------------------------------------

    def solo_steps(self, label: str, comp_config: Configuration) -> int:
        """Streaming steps a standalone run of ``label`` would perform."""
        app = self.app(label)
        if hasattr(app, "outputs"):
            return int(app.outputs(comp_config))
        if callable(self.n_steps):
            # Config-dependent step counts derive from producers with an
            # ``outputs`` knob; other components fall back to the typical
            # mid-range value.
            return 16
        return int(self.n_steps)

    def solo_run(self, label: str, comp_config: Configuration) -> SoloRunResult:
        """Run component ``label`` standalone (trains component models)."""
        app = self.app(label)
        return app.solo_run(
            self.machine, comp_config, self.solo_steps(label, comp_config)
        )


class PlacementRule:
    """Feasibility of configurations of ``space``, from the apps' placements.

    ``parts`` pairs each component app with the slice of ``space``
    holding its parameters.  A configuration is feasible when the
    components' own placements fit ``machine`` side by side
    (:func:`~repro.cluster.allocation.allocation_ok`).  Calling the rule
    judges one configuration through ``app.placement``;
    :meth:`feasible_batch` judges a matrix of value indices through
    ``app.placement_batch``, for :meth:`ParameterSpace.sample
    <repro.config.space.ParameterSpace.sample>`.
    """

    def __init__(self, space: ParameterSpace, parts, machine: Machine):
        self.machine = machine
        self._parts = tuple(parts)
        # Built once, so a batch only looks values up: each parameter's
        # index -> value map, and the one placement of a component with
        # a single configuration (GP's plotters).
        self._values = [_index_to_value(p.values) for p in space.parameters]
        self._fixed = [
            app.placement(next(app.space.enumerate()))
            if app.space.size() == 1
            else None
            for app, _ in self._parts
        ]

    def __call__(self, config: Configuration) -> bool:
        return bool(
            allocation_ok(
                (app.placement(tuple(config[part])) for app, part in self._parts),
                self.machine,
            )
        )

    def feasible_batch(self, space: ParameterSpace, idx: np.ndarray) -> np.ndarray:
        """The rule over the rows of ``idx``, value indices into ``space``.

        ``space`` is the rule's own space (what the sampler draws from);
        ``mask[r]`` equals the rule called on row ``r``'s configuration.
        """
        idx = np.asarray(idx)
        placements = [
            fixed
            if fixed is not None
            else app.placement_batch(
                tuple(
                    self._values[j](idx[:, j]) for j in range(part.start, part.stop)
                )
            )
            for (app, part), fixed in zip(self._parts, self._fixed)
        ]
        # All-fixed components give one bool: broadcast it to the rows.
        return np.broadcast_to(allocation_ok(placements, self.machine), len(idx))


def _index_to_value(values: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """Map value indices of one parameter to its values, as an array.

    Consecutive integers (every ``int_range``) take one addition, other
    values a table lookup; non-numeric values stay Python objects.
    """
    low = values[0]
    if type(low) is int and values == tuple(range(low, low + len(values))):
        return lambda index: index + low
    table = np.asarray(values)
    if table.dtype.kind not in "iuf":
        table = np.array(values, dtype=object)
    return table.__getitem__
