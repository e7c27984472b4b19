"""Closed-form contention models for shared node and fabric resources.

These functions translate placement densities into slowdown factors.  They
are deliberately smooth and monotone: the auto-tuning landscape needs
realistic *shape* (memory-bandwidth walls as ``ppn × threads`` approaches
the core count, NIC saturation for communication-heavy placements, fabric
sharing between concurrent couplings) rather than cycle accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.allocation import Placement
from repro.cluster.machine import Machine

__all__ = [
    "fabric_share",
    "memory_bandwidth_slowdown",
    "memory_bandwidth_slowdown_batch",
    "nic_share",
    "nic_share_batch",
]


def memory_bandwidth_slowdown(
    machine: Machine, placement: Placement, bytes_per_flop: float
) -> float:
    """Slowdown (≥ 1) of compute due to per-node memory-bandwidth sharing.

    A worker (process × thread) running alone draws
    ``memory_bw_per_core_gbps``; the node caps the aggregate at
    ``memory_bandwidth_gbps``.  Demand scales with the application's
    bytes-per-flop intensity: a compute-bound code (small
    ``bytes_per_flop``) barely notices dense packing, while a
    bandwidth-bound stencil slows down sharply once the node's bandwidth
    is oversubscribed.

    Returns the multiplicative factor to apply to single-worker compute
    time.
    """
    if bytes_per_flop < 0:
        raise ValueError("bytes_per_flop must be non-negative")
    node = machine.node
    workers = placement.busy_cores_per_node
    demand = workers * node.memory_bw_per_core_gbps * min(bytes_per_flop, 1.0)
    if demand <= node.memory_bandwidth_gbps or workers == 0:
        return 1.0
    oversubscription = demand / node.memory_bandwidth_gbps
    # Only the bandwidth-bound share of the work stretches.
    bound_fraction = min(bytes_per_flop, 1.0)
    return 1.0 + bound_fraction * (oversubscription - 1.0)


def memory_bandwidth_slowdown_batch(
    machine: Machine, placement: Placement, bytes_per_flop: float
) -> np.ndarray:
    """Array form of :func:`memory_bandwidth_slowdown` (array placement)."""
    if bytes_per_flop < 0:
        raise ValueError("bytes_per_flop must be non-negative")
    node = machine.node
    workers = placement.busy_cores_per_node
    demand = workers * node.memory_bw_per_core_gbps * min(bytes_per_flop, 1.0)
    oversubscription = demand / node.memory_bandwidth_gbps
    bound_fraction = min(bytes_per_flop, 1.0)
    return np.where(
        (demand <= node.memory_bandwidth_gbps) | (workers == 0),
        1.0,
        1.0 + bound_fraction * (oversubscription - 1.0),
    )


def nic_share(machine: Machine, placement: Placement) -> float:
    """Effective per-node NIC bandwidth (GB/s) available to the component.

    All processes of a node share one NIC; a single process cannot always
    saturate it, so effective bandwidth first rises with density, then
    flattens at the NIC's line rate.
    """
    node = machine.node
    single_stream = node.nic_bandwidth_gbps * 0.45
    return min(node.nic_bandwidth_gbps, single_stream * placement.procs_per_node)


def nic_share_batch(machine: Machine, placement: Placement) -> np.ndarray:
    """Array form of :func:`nic_share` (array placement)."""
    node = machine.node
    single_stream = node.nic_bandwidth_gbps * 0.45
    return np.minimum(
        node.nic_bandwidth_gbps, single_stream * placement.procs_per_node
    )


def fabric_share(machine: Machine, concurrent_streams: int) -> float:
    """Fabric bandwidth (GB/s) available to one of ``concurrent_streams``.

    Concurrent couplings (e.g. Gray-Scott feeding both the PDF calculator
    and G-Plot) share the allocation's fabric slice.  Sharing is modelled
    as proportional with a mild arbitration overhead.
    """
    if concurrent_streams < 1:
        raise ValueError("concurrent_streams must be >= 1")
    if concurrent_streams == 1:
        return machine.fabric_bandwidth_gbps
    overhead = 1.0 + 0.05 * (concurrent_streams - 1)
    return machine.fabric_bandwidth_gbps / (concurrent_streams * overhead)
