"""Component-application interface.

A :class:`ComponentApp` is everything the rest of the system needs to
know about one application:

* its tunable :class:`~repro.config.ParameterSpace` (one row block of
  paper Table 1),
* how a configuration maps to a node :class:`~repro.cluster.Placement`,
* per-step behaviour — compute seconds, output bytes, persistent-storage
  writes — via :meth:`ComponentApp.step_profile`, and
* startup cost.

The in-situ runner (:mod:`repro.insitu`) drives these per-step profiles
through the DES engine; :meth:`ComponentApp.solo_run` produces the
closed-form standalone execution used to train CEAL's component models.

Placement, step profile and start-up cost each have an array form
(``placement_batch``, ``step_profile_batch``, ``startup_seconds_batch``)
over *columns*: one array per parameter of the app's space, one row
per configuration.  Pool builds and histories evaluate a whole batch
through them (:mod:`repro.insitu.fast`, :meth:`ComponentApp.
solo_run_batch`); every row must equal the scalar method bit for bit,
and the scalar methods stay the reference.  The catalog apps implement
the array forms with numpy.  By default an array form calls its scalar
method row by row, and a subclass that overrides a scalar method
without its array form gets that row loop back, so the two never
disagree.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.cluster.allocation import Placement, allocation_ok
from repro.cluster.machine import Machine
from repro.config.space import Configuration, ParameterSpace

__all__ = ["AppModelError", "StepProfile", "SoloRunResult", "ComponentApp"]

#: Parallel-filesystem bandwidth visible to one allocation (GB/s).  The
#: paper's motivation (§2.1) is precisely that this resource is scarce.
PFS_BANDWIDTH_GBPS = 8.0


class AppModelError(ValueError):
    """Raised when a configuration cannot be interpreted by an app model."""


@dataclass(frozen=True)
class StepProfile:
    """Per-step behaviour of a component under a given configuration.

    Attributes
    ----------
    compute_seconds:
        Local computation for one coupled step (excludes data exchange
        with other components, which the in-situ runner adds).
    output_bytes:
        Data streamed to downstream components per step (0 for sinks).
    write_bytes:
        Data written to persistent storage per step (Stage Write, plot
        files).  Informational: apps that write include the write time
        in ``compute_seconds`` themselves, since their whole purpose is
        writing; the field feeds I/O accounting and tests.
    """

    compute_seconds: float
    output_bytes: float = 0.0
    write_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.compute_seconds < 0 or self.output_bytes < 0 or self.write_bytes < 0:
            raise ValueError("step profile entries must be non-negative")


@dataclass(frozen=True)
class SoloRunResult:
    """Outcome of running a component standalone (paper §4).

    ``execution_seconds`` is wall-clock; ``computer_core_hours`` follows
    the paper's definition (wall-clock × nodes × cores per node).
    """

    execution_seconds: float
    computer_core_hours: float
    nodes: int


def _rows(columns) -> list[Configuration]:
    return list(zip(*(np.asarray(c).tolist() for c in columns)))


def _placement_rows(self, columns) -> Placement:
    placements = [self.placement(config) for config in _rows(columns)]
    return Placement(
        *(
            np.array([getattr(p, name) for p in placements], dtype=np.int64)
            for name in ("procs", "procs_per_node", "threads_per_proc", "nodes")
        )
    )


def _step_profile_rows(self, machine, columns, input_bytes):
    profiles = [
        self.step_profile(machine, config, b)
        for config, b in zip(_rows(columns), input_bytes.tolist())
    ]
    return (
        np.array([p.compute_seconds for p in profiles], dtype=np.float64),
        np.array([p.output_bytes for p in profiles], dtype=np.float64),
    )


def _startup_seconds_rows(self, machine, columns):
    return np.array(
        [self.startup_seconds(machine, config) for config in _rows(columns)],
        dtype=np.float64,
    )


#: Scalar method -> (its array form, the row loop that stands in for it).
_ARRAY_FORMS = {
    "placement": ("placement_batch", _placement_rows),
    "step_profile": ("step_profile_batch", _step_profile_rows),
    "startup_seconds": ("startup_seconds_batch", _startup_seconds_rows),
}


class ComponentApp(abc.ABC):
    """Abstract base of all component application models."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for scalar, (array, rows) in _ARRAY_FORMS.items():
            if scalar in vars(cls) and array not in vars(cls):
                setattr(cls, array, rows)

    #: Application name; also the label prefix in joint workflow spaces.
    name: str = "app"

    #: Whether :meth:`step_profile` is a pure function of
    #: ``(machine, config, input_bytes)`` — i.e. every coupled step costs
    #: the same.  All catalog apps are stationary; an app holding
    #: per-step state must set this False, which disengages the
    #: closed-form sweep of :mod:`repro.insitu.fast` and routes its
    #: workflows through the DES oracle instead.
    stationary_steps: bool = True

    #: Input size per step assumed for standalone runs of consumers.
    #: Solo component models are built from standalone behaviour, so a
    #: mismatch between this nominal size and the producer's actual
    #: output is one source of the low-fidelity model's error.
    nominal_input_bytes: float = 0.0

    @property
    @abc.abstractmethod
    def space(self) -> ParameterSpace:
        """The component's tunable parameter space."""

    @abc.abstractmethod
    def placement(self, config: Configuration) -> Placement:
        """Node placement implied by a configuration."""

    @abc.abstractmethod
    def step_profile(
        self, machine: Machine, config: Configuration, input_bytes: float
    ) -> StepProfile:
        """Per-step behaviour given ``input_bytes`` of upstream data."""

    def startup_seconds(self, machine: Machine, config: Configuration) -> float:
        """Launch overhead; default MPI bring-up model."""
        from repro.apps.scaling import startup_seconds

        return startup_seconds(self.placement(config))

    # -- array forms (one row per configuration; see the module docstring) ----------

    #: ``placement_batch(columns)``: a :class:`Placement` of integer arrays.
    placement_batch = _placement_rows

    #: ``step_profile_batch(machine, columns, input_bytes)``: the arrays
    #: ``(compute_seconds, output_bytes)``; ``input_bytes`` is an array.
    step_profile_batch = _step_profile_rows

    def startup_seconds_batch(self, machine: Machine, columns) -> np.ndarray:
        """Array form of :meth:`startup_seconds` (the MPI bring-up model)."""
        from repro.apps.scaling import startup_seconds_batch

        return startup_seconds_batch(self.placement_batch(columns))

    # -- standalone execution -------------------------------------------------------

    def solo_run(
        self, machine: Machine, config: Configuration, n_steps: int
    ) -> SoloRunResult:
        """Closed-form standalone run (trains CEAL's component models).

        Producers write their stream to the parallel filesystem (the
        post-hoc pattern of Fig. 2a); consumers read their nominal input
        from it.  Per-step time is therefore compute plus a filesystem
        transfer at the allocation's PFS bandwidth.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        placement = self.placement(config)
        placement.validate(machine)
        profile = self.step_profile(machine, config, self.nominal_input_bytes)
        # Standalone producers dump their stream to the filesystem;
        # standalone consumers read their nominal input back from it.
        # (write_bytes is already accounted inside compute_seconds.)
        pfs_seconds = (self.nominal_input_bytes + profile.output_bytes) / (
            PFS_BANDWIDTH_GBPS * 1e9
        )
        exec_seconds = self.startup_seconds(machine, config) + n_steps * (
            profile.compute_seconds + pfs_seconds
        )
        return SoloRunResult(
            execution_seconds=exec_seconds,
            computer_core_hours=machine.core_hours(exec_seconds, placement.nodes),
            nodes=placement.nodes,
        )

    def solo_run_batch(self, machine: Machine, columns, n_steps) -> tuple:
        """Array form of :meth:`solo_run`: ``(execution_seconds,
        computer_core_hours)`` arrays, ``n_steps`` an integer array."""
        n_steps = np.asarray(n_steps)
        if np.any(n_steps < 1):
            raise ValueError("n_steps must be >= 1")
        placement = self.placement_batch(columns)
        bad = np.flatnonzero(~allocation_ok((placement,), machine))
        if bad.size:  # the scalar run raises this row's error
            row = bad[0]
            self.solo_run(machine, _rows(columns)[row], int(n_steps[row]))
        compute, output = self.step_profile_batch(
            machine, columns, np.full(len(n_steps), self.nominal_input_bytes)
        )
        pfs_seconds = (self.nominal_input_bytes + output) / (
            PFS_BANDWIDTH_GBPS * 1e9
        )
        exec_seconds = self.startup_seconds_batch(machine, columns) + n_steps * (
            compute + pfs_seconds
        )
        return exec_seconds, machine.core_hours(exec_seconds, placement.nodes)

    # -- conveniences ---------------------------------------------------------------

    def validate_config(self, machine: Machine, config: Configuration) -> None:
        """Raise when ``config`` is outside the space or unplaceable."""
        if not self.space.contains(config):
            raise AppModelError(
                f"{self.name}: configuration {config!r} is outside the space"
            )
        self.placement(config).validate(machine)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
