"""Voro++ Voronoi-tessellation model (consumer of workflow LV).

Voro++ tessellates the particle positions streamed by LAMMPS each step
and emits analysis/visualisation summaries.  Tunables (Table 1): process
count 2–1085, processes per node 1–35, threads per process 1–4.

Behavioural ingredients: tessellation work scales with the particle
count (and hence with the incoming stream size), load imbalance grows
faster than in the simulation (Voronoi cell complexity is uneven), a
noticeable serial merge phase limits scaling, and threading helps only
marginally — making Voro++ most efficient at *modest* process counts,
which is exactly why tuning LV's two components jointly is non-trivial.
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

__all__ = ["VoroPlusPlus"]


@dataclass
class VoroPlusPlus(ComponentApp):
    """Performance model of the Voro++ tessellator.

    ``work_gflop_per_step`` corresponds to :attr:`nominal_input_bytes` of
    particle data; actual work scales linearly with the received stream.
    """

    work_gflop_per_step: float = 1500.0
    serial_fraction: float = 0.004
    thread_efficiency: float = 0.15
    bytes_per_flop: float = 0.45
    imbalance_per_doubling: float = 0.035
    name: str = "voro"
    nominal_input_bytes: float = 16_000 * 6 * 8.0
    _space: ParameterSpace = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._space = ParameterSpace(
            (
                int_range("procs", 2, 1085),
                int_range("ppn", 1, 35),
                int_range("threads", 1, 4),
            )
        )

    @property
    def space(self) -> ParameterSpace:
        return self._space

    def placement(self, config: Configuration) -> Placement:
        procs, ppn, threads = config
        return place_component(procs, ppn, threads)

    def placement_batch(self, columns) -> Placement:
        procs, ppn, threads = columns
        return place_component_batch(procs, ppn, threads)

    def step_profile(
        self, machine: Machine, config: Configuration, input_bytes: float
    ) -> StepProfile:
        placement = self.placement(config)
        scale = (
            input_bytes / self.nominal_input_bytes
            if input_bytes > 0
            else 1.0
        )
        compute = amdahl_compute_seconds(
            machine,
            placement,
            self.work_gflop_per_step * scale,
            self.serial_fraction,
            self.thread_efficiency,
            self.bytes_per_flop,
            self.imbalance_per_doubling,
        )
        # Ghost-particle exchange so cells at partition boundaries close.
        ghost = exchange_seconds(
            machine,
            placement,
            halo_bytes_3d(max(input_bytes, self.nominal_input_bytes), placement.procs),
            messages_per_proc=26.0,
        )
        # Serial-ish gather of per-cell statistics for visualisation.
        merge = 6.0 * collective_seconds(machine, placement.procs, per_stage_us=20.0)
        return StepProfile(
            compute_seconds=compute + ghost + merge,
            output_bytes=0.0,
            write_bytes=4e6,  # tessellation summary / viz frame to storage
        )

    def step_profile_batch(self, machine: Machine, columns, input_bytes):
        placement = self.placement_batch(columns)
        scale = np.where(
            input_bytes > 0, input_bytes / self.nominal_input_bytes, 1.0
        )
        compute = amdahl_compute_seconds_batch(
            machine,
            placement,
            self.work_gflop_per_step * scale,
            self.serial_fraction,
            self.thread_efficiency,
            self.bytes_per_flop,
            self.imbalance_per_doubling,
        )
        ghost = exchange_seconds_batch(
            machine,
            placement,
            halo_bytes_3d_batch(
                np.maximum(input_bytes, self.nominal_input_bytes), placement.procs
            ),
            messages_per_proc=26.0,
        )
        merge = 6.0 * collective_seconds_batch(
            machine, placement.procs, per_stage_us=20.0
        )
        return compute + ghost + merge, np.zeros(len(compute))
