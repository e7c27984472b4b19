"""Serial plotters of workflow GP: G-Plot and P-Plot.

Both are *unconfigurable* (Table 1: one process each).  G-Plot renders
the full Gray-Scott field each step and — as the paper notes in §7.1 —
is the bottleneck of GP: many GP configurations share an execution time
close to G-Plot's standalone ≈97 s.  P-Plot renders the tiny PDF
histogram and is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import ComponentApp, StepProfile
from repro.cluster.allocation import Placement, place_component, place_component_batch
from repro.cluster.machine import Machine
from repro.config.space import Configuration, ParameterSpace, choice

__all__ = ["GPlot", "PPlot"]


@dataclass
class _SerialPlotter(ComponentApp):
    """Common machinery of the fixed one-process plotters."""

    render_seconds_per_step: float = 1.0
    read_gbps: float = 1.2
    write_bytes_per_step: float = 2e6
    name: str = "plotter"
    _space: ParameterSpace = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # A single degenerate parameter keeps the joint-space plumbing
        # uniform: the plotters appear in Table 1 with "# processes: 1".
        self._space = ParameterSpace((choice("procs", (1,)),))

    @property
    def space(self) -> ParameterSpace:
        return self._space

    def placement(self, config: Configuration) -> Placement:
        (procs,) = config
        return place_component(procs, 1, 1)

    def placement_batch(self, columns) -> Placement:
        (procs,) = columns
        return place_component_batch(procs, 1, 1)

    def startup_seconds(self, machine: Machine, config: Configuration) -> float:
        return 0.8  # serial tool, no MPI wire-up

    def startup_seconds_batch(self, machine: Machine, columns) -> np.ndarray:
        return np.full(len(columns[0]), 0.8)

    def step_profile(
        self, machine: Machine, config: Configuration, input_bytes: float
    ) -> StepProfile:
        read = input_bytes / (self.read_gbps * 1e9)
        return StepProfile(
            compute_seconds=self.render_seconds_per_step + read,
            output_bytes=0.0,
            write_bytes=self.write_bytes_per_step,
        )

    def step_profile_batch(self, machine: Machine, columns, input_bytes):
        read = input_bytes / (self.read_gbps * 1e9)
        return self.render_seconds_per_step + read, np.zeros(len(read))


@dataclass
class GPlot(_SerialPlotter):
    """G-Plot: renders the Gray-Scott field; the serial bottleneck of GP."""

    render_seconds_per_step: float = 3.7
    read_gbps: float = 1.2
    write_bytes_per_step: float = 4e6
    name: str = "gplot"
    nominal_input_bytes: float = 256.0**3 * 8.0


@dataclass
class PPlot(_SerialPlotter):
    """P-Plot: renders the PDF histogram; cheap."""

    render_seconds_per_step: float = 0.15
    read_gbps: float = 1.2
    write_bytes_per_step: float = 2e5
    name: str = "pplot"
    nominal_input_bytes: float = 16_000.0
