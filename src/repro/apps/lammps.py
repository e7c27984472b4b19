"""LAMMPS molecular-dynamics simulator model (producer of workflow LV).

The paper's LV run simulates 16 000 atoms and streams positions and
velocities each coupling step (§7.1).  Tunables (Table 1): process count
2–1085, processes per node 1–35, threads per process 1–4.

Behavioural ingredients: good strong scaling with a small serial
fraction, sub-linear OpenMP speedup, 3-D halo exchange on the
spatially-decomposed domain, neighbour-list collectives, and moderate
memory-bandwidth intensity (dense packings of a node slow down mildly).
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

__all__ = ["Lammps"]


@dataclass
class Lammps(ComponentApp):
    """Performance model of the LAMMPS MD simulator.

    Parameters
    ----------
    atoms:
        Number of simulated atoms (paper sample run: 16 000).
    work_gflop_per_step:
        Aggregate computation of one coupled step (force evaluation and
        time integration across all output intervals folded together).
    serial_fraction:
        Amdahl serial fraction (I/O setup, global bookkeeping).
    thread_efficiency:
        Marginal speedup of each extra OpenMP thread.
    bytes_per_flop:
        Memory intensity driving per-node bandwidth contention.
    imbalance_per_doubling:
        Load-imbalance growth per doubling of the process count.
    """

    atoms: int = 16_000
    work_gflop_per_step: float = 4000.0
    serial_fraction: float = 0.0008
    thread_efficiency: float = 0.55
    bytes_per_flop: float = 0.25
    imbalance_per_doubling: float = 0.015
    name: str = "lammps"
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

    @property
    def stream_bytes_per_step(self) -> float:
        """Positions + velocities: 6 doubles per atom."""
        return self.atoms * 6 * 8.0

    def step_profile(
        self, machine: Machine, config: Configuration, input_bytes: float
    ) -> StepProfile:
        placement = self.placement(config)
        compute = amdahl_compute_seconds(
            machine,
            placement,
            self.work_gflop_per_step,
            self.serial_fraction,
            self.thread_efficiency,
            self.bytes_per_flop,
            self.imbalance_per_doubling,
        )
        domain_bytes = self.stream_bytes_per_step
        halo = exchange_seconds(
            machine,
            placement,
            halo_bytes_3d(domain_bytes, placement.procs),
            messages_per_proc=26.0,  # 26-neighbour stencil of a 3-D domain
        )
        # Neighbour-list rebuild and thermo output collectives, several per
        # coupling step.
        collectives = 12.0 * collective_seconds(machine, placement.procs)
        return StepProfile(
            compute_seconds=compute + halo + collectives,
            output_bytes=self.stream_bytes_per_step,
        )

    def step_profile_batch(self, machine: Machine, columns, input_bytes):
        placement = self.placement_batch(columns)
        compute = amdahl_compute_seconds_batch(
            machine,
            placement,
            self.work_gflop_per_step,
            self.serial_fraction,
            self.thread_efficiency,
            self.bytes_per_flop,
            self.imbalance_per_doubling,
        )
        halo = exchange_seconds_batch(
            machine,
            placement,
            halo_bytes_3d_batch(self.stream_bytes_per_step, placement.procs),
            messages_per_proc=26.0,
        )
        collectives = 12.0 * collective_seconds_batch(machine, placement.procs)
        return (
            compute + halo + collectives,
            np.full(len(compute), self.stream_bytes_per_step),
        )
