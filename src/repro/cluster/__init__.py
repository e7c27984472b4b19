"""Simulated HPC machine: nodes, cores, bandwidths, placement, contention.

The paper ran on a 600-node cluster (two 18-core Broadwell sockets per
node, 128 GB DDR4, Omni-Path fabric) with exclusive allocations of up to
32 nodes.  No such machine is available here, so this package provides a
parametric machine model with the pieces the tuning landscape actually
depends on:

* :class:`~repro.cluster.machine.NodeSpec` / :class:`~repro.cluster.machine.Machine`
  — static hardware description (cores, memory bandwidth, NIC bandwidth,
  fabric latency) with the paper's testbed as the default,
* :mod:`~repro.cluster.allocation` — placement of a component's processes
  onto nodes, the resulting footprint, and the one feasibility rule
  (components placed side by side fit the machine), and
* :mod:`~repro.cluster.contention` — closed-form slowdown models for
  shared-resource contention (per-node memory bandwidth, per-node NIC,
  shared fabric).
"""

from repro.cluster.allocation import Placement, place_component
from repro.cluster.contention import (
    fabric_share,
    memory_bandwidth_slowdown,
    nic_share,
)
from repro.cluster.machine import BROADWELL_NODE, Machine, NodeSpec, default_machine

__all__ = [
    "BROADWELL_NODE",
    "Machine",
    "NodeSpec",
    "Placement",
    "default_machine",
    "fabric_share",
    "memory_bandwidth_slowdown",
    "nic_share",
    "place_component",
]
