"""PDF-calculator model (transform stage of workflow GP).

Computes, each step, the probability density function (a histogram) of
the Gray-Scott concentration field and streams the small result to
P-Plot.  Tunables (Table 1): process count 1–512, processes per node
1–35.

Behavioural ingredients: embarrassingly-parallel binning over the
received slab plus a latency-bound histogram reduction whose cost grows
with the process count — so very large PDF placements waste both time
and nodes.
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
)
from repro.cluster.allocation import Placement, place_component, place_component_batch
from repro.cluster.machine import Machine
from repro.config.space import Configuration, ParameterSpace, int_range

__all__ = ["PdfCalculator"]


@dataclass
class PdfCalculator(ComponentApp):
    """Performance model of the PDF calculator.

    ``gflop_per_gb`` converts received bytes to binning work.
    """

    gflop_per_gb: float = 36.0
    n_bins: int = 1000
    serial_fraction: float = 0.01
    imbalance_per_doubling: float = 0.05
    name: str = "pdf_calc"
    nominal_input_bytes: float = 256.0**3 * 8.0
    _space: ParameterSpace = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._space = ParameterSpace(
            (
                int_range("procs", 1, 512),
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
    def output_bytes_per_step(self) -> float:
        """Histogram bins (value + count per bin)."""
        return self.n_bins * 16.0

    def step_profile(
        self, machine: Machine, config: Configuration, input_bytes: float
    ) -> StepProfile:
        placement = self.placement(config)
        bytes_in = input_bytes if input_bytes > 0 else self.nominal_input_bytes
        work_gflop = self.gflop_per_gb * bytes_in / 1e9
        compute = amdahl_compute_seconds(
            machine,
            placement,
            work_gflop,
            self.serial_fraction,
            thread_efficiency=0.0,
            bytes_per_flop=0.8,  # streaming pass over the slab
            imbalance_per_doubling=self.imbalance_per_doubling,
        )
        # Histogram merge: a heavier-than-usual reduction (n_bins values).
        merge = 3.0 * collective_seconds(machine, placement.procs, per_stage_us=25.0)
        return StepProfile(
            compute_seconds=compute + merge,
            output_bytes=self.output_bytes_per_step,
        )

    def step_profile_batch(self, machine: Machine, columns, input_bytes):
        placement = self.placement_batch(columns)
        bytes_in = np.where(input_bytes > 0, input_bytes, self.nominal_input_bytes)
        compute = amdahl_compute_seconds_batch(
            machine,
            placement,
            self.gflop_per_gb * bytes_in / 1e9,
            self.serial_fraction,
            thread_efficiency=0.0,
            bytes_per_flop=0.8,
            imbalance_per_doubling=self.imbalance_per_doubling,
        )
        merge = 3.0 * collective_seconds_batch(
            machine, placement.procs, per_stage_us=25.0
        )
        return (
            compute + merge,
            np.full(len(compute), self.output_bytes_per_step),
        )
