"""Stage Write I/O forwarder model (consumer of workflow HS).

Stage Write receives the simulation field over the staging transport and
writes it to the parallel filesystem.  Tunables (Table 1): process count
2–1085, processes per node 1–35.

Behavioural ingredients: aggregate write bandwidth saturates at the
filesystem's limit (more writers stop helping), per-output metadata
costs grow with the writer count (file-per-process pressure), and each
writer's stream is bounded by its NIC share — so a handful of
well-placed writers beats both extremes, concentrating good
configurations in a small region as the paper's method assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import PFS_BANDWIDTH_GBPS, ComponentApp, StepProfile
from repro.apps.scaling import (
    collective_seconds,
    collective_seconds_batch,
    per_distinct,
)
from repro.cluster.allocation import Placement, place_component, place_component_batch
from repro.cluster.contention import nic_share, nic_share_batch
from repro.cluster.machine import Machine
from repro.config.space import Configuration, ParameterSpace, int_range

__all__ = ["StageWrite"]


@dataclass
class StageWrite(ComponentApp):
    """Performance model of the Stage Write forwarder.

    Parameters
    ----------
    per_writer_gbps:
        Sustained stream one writer process achieves into the filesystem
        before any sharing effects.
    metadata_seconds_per_doubling:
        Per-output metadata/collective cost per doubling of writers.
    """

    per_writer_gbps: float = 0.35
    metadata_seconds_per_doubling: float = 0.012
    name: str = "stage_write"
    nominal_input_bytes: float = 8192.0 * 8192.0 * 8.0
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

    def aggregate_write_gbps(self, machine: Machine, config: Configuration) -> float:
        """Achievable write bandwidth of the whole writer set."""
        placement = self.placement(config)
        per_node_nic = nic_share(machine, placement)
        streams = min(
            placement.procs * self.per_writer_gbps,
            placement.nodes * per_node_nic,
        )
        # Saturating filesystem: approaches PFS_BANDWIDTH_GBPS smoothly and
        # degrades slightly under extreme writer counts (lock contention).
        fs = PFS_BANDWIDTH_GBPS * streams / (streams + 0.5 * PFS_BANDWIDTH_GBPS)
        crowding = 1.0 + 0.002 * max(0, placement.procs - 64)
        return min(streams, fs) / crowding

    def step_profile(
        self, machine: Machine, config: Configuration, input_bytes: float
    ) -> StepProfile:
        placement = self.placement(config)
        bytes_in = input_bytes if input_bytes > 0 else self.nominal_input_bytes
        write_seconds = bytes_in / (self.aggregate_write_gbps(machine, config) * 1e9)
        metadata = self.metadata_seconds_per_doubling * math.log2(
            max(placement.procs, 2)
        )
        sync = 2.0 * collective_seconds(machine, placement.procs)
        return StepProfile(
            compute_seconds=write_seconds + metadata + sync,
            output_bytes=0.0,
            write_bytes=bytes_in,
        )

    def step_profile_batch(self, machine: Machine, columns, input_bytes):
        placement = self.placement_batch(columns)
        streams = np.minimum(
            placement.procs * self.per_writer_gbps,
            placement.nodes * nic_share_batch(machine, placement),
        )
        fs = PFS_BANDWIDTH_GBPS * streams / (streams + 0.5 * PFS_BANDWIDTH_GBPS)
        crowding = 1.0 + 0.002 * np.maximum(0, placement.procs - 64)
        aggregate_gbps = np.minimum(streams, fs) / crowding
        bytes_in = np.where(input_bytes > 0, input_bytes, self.nominal_input_bytes)
        write_seconds = bytes_in / (aggregate_gbps * 1e9)
        metadata = self.metadata_seconds_per_doubling * per_distinct(
            math.log2, np.maximum(placement.procs, 2)
        )
        sync = 2.0 * collective_seconds_batch(machine, placement.procs)
        return write_seconds + metadata + sync, np.zeros(len(write_seconds))
