"""Gray-Scott reaction-diffusion model (producer of workflow GP).

Simulates the two-species Gray-Scott system on a 3-D grid and streams
the concentration field every output step to the PDF calculator and to
the (serial) G-Plot visualiser.  Tunables (Table 1): process count
2–1085, processes per node 1–35.

Behavioural ingredients: a 3-D stencil with two fields (moderately
memory-bound), 3-D halo exchange, and periodic global reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import ComponentApp, StepProfile
from repro.apps.scaling import (
    amdahl_compute_seconds,
    amdahl_compute_seconds_batch,
    collective_seconds,
    collective_seconds_batch,
    exchange_seconds,
    exchange_seconds_batch,
    halo_bytes_3d,
    halo_bytes_3d_batch,
)
from repro.cluster.allocation import Placement, place_component, place_component_batch
from repro.cluster.machine import Machine
from repro.config.space import Configuration, ParameterSpace, int_range

__all__ = ["GrayScott"]


@dataclass
class GrayScott(ComponentApp):
    """Performance model of the Gray-Scott simulator.

    Parameters
    ----------
    grid_side:
        Cells per dimension of the cubic grid.
    sweeps_per_step:
        Reaction-diffusion sweeps between consecutive output steps.
    """

    grid_side: int = 256
    sweeps_per_step: int = 64
    flops_per_cell: float = 30.0
    serial_fraction: float = 0.0012
    bytes_per_flop: float = 0.6
    imbalance_per_doubling: float = 0.06
    name: str = "gray_scott"
    _space: ParameterSpace = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._space = ParameterSpace(
            (
                int_range("procs", 2, 1085),
                int_range("ppn", 1, 35),
            )
        )

    @property
    def space(self) -> ParameterSpace:
        return self._space

    def placement(self, config: Configuration) -> Placement:
        procs, ppn = config
        return place_component(procs, ppn, 1)

    def placement_batch(self, columns) -> Placement:
        procs, ppn = columns
        return place_component_batch(procs, ppn, 1)

    @property
    def field_bytes(self) -> float:
        """One concentration field dump (u field, 8-byte doubles)."""
        return float(self.grid_side) ** 3 * 8.0

    def step_profile(
        self, machine: Machine, config: Configuration, input_bytes: float
    ) -> StepProfile:
        placement = self.placement(config)
        cells = float(self.grid_side) ** 3
        work_gflop = (
            cells * 2.0 * self.flops_per_cell * 1e-9 * self.sweeps_per_step
        )  # two species
        compute = amdahl_compute_seconds(
            machine,
            placement,
            work_gflop,
            self.serial_fraction,
            thread_efficiency=0.0,
            bytes_per_flop=self.bytes_per_flop,
            imbalance_per_doubling=self.imbalance_per_doubling,
        )
        halo = self.sweeps_per_step * exchange_seconds(
            machine,
            placement,
            halo_bytes_3d(2.0 * self.field_bytes, placement.procs),
            messages_per_proc=6.0,
        )
        reductions = 4.0 * collective_seconds(machine, placement.procs)
        return StepProfile(
            compute_seconds=compute + halo + reductions,
            output_bytes=self.field_bytes,
        )

    def step_profile_batch(self, machine: Machine, columns, input_bytes):
        placement = self.placement_batch(columns)
        cells = float(self.grid_side) ** 3
        work_gflop = (
            cells * 2.0 * self.flops_per_cell * 1e-9 * self.sweeps_per_step
        )
        compute = amdahl_compute_seconds_batch(
            machine,
            placement,
            work_gflop,
            self.serial_fraction,
            thread_efficiency=0.0,
            bytes_per_flop=self.bytes_per_flop,
            imbalance_per_doubling=self.imbalance_per_doubling,
        )
        halo = self.sweeps_per_step * exchange_seconds_batch(
            machine,
            placement,
            halo_bytes_3d_batch(2.0 * self.field_bytes, placement.procs),
            messages_per_proc=6.0,
        )
        reductions = 4.0 * collective_seconds_batch(machine, placement.procs)
        return (
            compute + halo + reductions,
            np.full(len(compute), self.field_bytes),
        )
