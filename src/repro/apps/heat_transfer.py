"""Heat Transfer mini-app model (producer of workflow HS).

Runs the 2-D heat equation on a fixed grid, decomposed over a
``px × py`` process grid, and forwards the field to Stage Write every
output interval.  Tunables (Table 1): processes in X 2–32, processes in
Y 2–32, processes per node 1–35, number of outputs {4, 8, 16, 32}, ADIOS
buffer size 1–40 MB.

Behavioural ingredients: a memory-bandwidth-bound stencil (dense node
packing hurts sharply), 2-D halo exchange minimised by square-ish
decompositions, latency-bound sweeps at high process counts, and an
ADIOS buffer that forces extra drain round-trips per output when sized
below the per-process output share.
"""

from __future__ import annotations

import math
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
    halo_bytes_2d,
    halo_bytes_2d_batch,
    per_distinct,
)
from repro.cluster.allocation import Placement, place_component, place_component_batch
from repro.cluster.machine import Machine
from repro.config.space import (
    Configuration,
    ParameterSpace,
    choice,
    int_range,
)

__all__ = ["HeatTransfer"]


@dataclass
class HeatTransfer(ComponentApp):
    """Performance model of the Heat Transfer mini-app.

    Parameters
    ----------
    grid_side:
        Cells per dimension of the square grid.
    total_sweeps:
        Total time-step sweeps over the whole run; each output step
        performs ``total_sweeps / outputs`` sweeps.
    flops_per_cell:
        Stencil arithmetic per cell per sweep.
    """

    grid_side: int = 8192
    total_sweeps: int = 16384
    flops_per_cell: float = 6.0
    serial_fraction: float = 0.002
    bytes_per_flop: float = 1.0
    cache_penalty_per_doubling: float = 0.08
    llc_bytes: float = 45e6
    name: str = "heat"
    _space: ParameterSpace = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._space = ParameterSpace(
            (
                int_range("px", 2, 32),
                int_range("py", 2, 32),
                int_range("ppn", 1, 35),
                choice("outputs", (4, 8, 16, 32)),
                int_range("buffer_mb", 1, 40),
            )
        )

    @property
    def space(self) -> ParameterSpace:
        return self._space

    def placement(self, config: Configuration) -> Placement:
        px, py, ppn, _outputs, _buffer = config
        return place_component(px * py, ppn, 1)

    def placement_batch(self, columns) -> Placement:
        px, py, ppn, _outputs, _buffer = columns
        return place_component_batch(px * py, ppn, 1)

    @property
    def grid_bytes(self) -> float:
        """One full field dump (8-byte doubles)."""
        return float(self.grid_side) * self.grid_side * 8.0

    def outputs(self, config: Configuration) -> int:
        """Number of coupled output steps for this configuration."""
        return int(self.space.value(config, "outputs"))

    def buffer_bytes(self, config: Configuration) -> float:
        """Per-process ADIOS buffer size."""
        return self.space.value(config, "buffer_mb") * 1e6

    def step_profile(
        self, machine: Machine, config: Configuration, input_bytes: float
    ) -> StepProfile:
        px, py, ppn, outputs, buffer_mb = config
        placement = self.placement(config)
        sweeps = self.total_sweeps / outputs
        work_gflop = (
            self.grid_side * self.grid_side * self.flops_per_cell * 1e-9 * sweeps
        )
        compute = amdahl_compute_seconds(
            machine,
            placement,
            work_gflop,
            self.serial_fraction,
            thread_efficiency=0.0,
            bytes_per_flop=self.bytes_per_flop,
            imbalance_per_doubling=0.005,
        )
        # Cache pressure: a process whose subdomain (three arrays: old,
        # new, coefficients) overflows its share of the last-level cache
        # re-streams from DRAM every sweep; small dense placements pay.
        workset = 3.0 * self.grid_bytes / placement.procs
        cache_share = self.llc_bytes / max(placement.procs_per_node, 1)
        if workset > cache_share:
            compute *= 1.0 + self.cache_penalty_per_doubling * math.log2(
                workset / cache_share
            )
        halo_per_sweep = exchange_seconds(
            machine,
            placement,
            halo_bytes_2d(self.grid_bytes, px, py),
            messages_per_proc=4.0,
        )
        # Convergence/energy reduction once per sweep.
        reduction = collective_seconds(machine, placement.procs)
        # Undersized ADIOS buffers force extra drain round-trips when the
        # per-process output share exceeds the buffer.
        per_proc_output = self.grid_bytes / placement.procs
        drains = max(1, math.ceil(per_proc_output / self.buffer_bytes(config)))
        drain_overhead = (drains - 1) * 0.03  # extra staging round-trips
        return StepProfile(
            compute_seconds=compute
            + sweeps * (halo_per_sweep + reduction)
            + drain_overhead,
            output_bytes=self.grid_bytes,
        )

    def step_profile_batch(self, machine: Machine, columns, input_bytes):
        px, py, ppn, outputs, buffer_mb = columns
        placement = self.placement_batch(columns)
        sweeps = self.total_sweeps / outputs
        work_gflop = (
            self.grid_side * self.grid_side * self.flops_per_cell * 1e-9 * sweeps
        )
        compute = amdahl_compute_seconds_batch(
            machine,
            placement,
            work_gflop,
            self.serial_fraction,
            thread_efficiency=0.0,
            bytes_per_flop=self.bytes_per_flop,
            imbalance_per_doubling=0.005,
        )
        workset = 3.0 * self.grid_bytes / placement.procs
        cache_share = self.llc_bytes / np.maximum(placement.procs_per_node, 1)
        penalty = 1.0 + self.cache_penalty_per_doubling * per_distinct(
            math.log2, workset / cache_share
        )
        compute = np.where(workset > cache_share, compute * penalty, compute)
        halo_per_sweep = exchange_seconds_batch(
            machine,
            placement,
            halo_bytes_2d_batch(self.grid_bytes, px, py),
            messages_per_proc=4.0,
        )
        reduction = collective_seconds_batch(machine, placement.procs)
        per_proc_output = self.grid_bytes / placement.procs
        drains = np.maximum(1, np.ceil(per_proc_output / (buffer_mb * 1e6)))
        drain_overhead = (drains - 1) * 0.03
        return (
            compute + sweeps * (halo_per_sweep + reduction) + drain_overhead,
            np.full(len(compute), self.grid_bytes),
        )
