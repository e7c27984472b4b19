"""Static machine description.

The defaults mirror the paper's testbed (§7.1): dual 18-core 2.10 GHz
Broadwell Xeon E5-2695 v4 nodes (hyper-threading off ⇒ 36 cores), 128 GB
DDR4, Intel Omni-Path (100 Gb/s ≈ 12.5 GB/s per node), allocations of at
most 32 nodes used exclusively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NodeSpec", "Machine", "BROADWELL_NODE", "default_machine"]


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one compute node.

    Parameters
    ----------
    cores:
        Physical cores available to application processes.
    core_gflops:
        Sustained per-core throughput used to convert work units to time.
    memory_gb:
        DRAM capacity; placements exceeding it are infeasible.
    memory_bandwidth_gbps:
        Aggregate DRAM bandwidth per node; the contention model saturates
        it as processes per node grow.
    memory_bw_per_core_gbps:
        Bandwidth one core can draw on its own; with few processes per
        node, memory traffic is core-limited rather than node-limited.
    nic_bandwidth_gbps:
        Injection bandwidth of the node's fabric interface (GB/s).
    nic_latency_us:
        Per-message injection latency (microseconds).
    """

    cores: int = 36
    core_gflops: float = 16.8
    memory_gb: float = 128.0
    memory_bandwidth_gbps: float = 76.8
    memory_bw_per_core_gbps: float = 6.0
    nic_bandwidth_gbps: float = 12.5
    nic_latency_us: float = 1.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        for name in (
            "core_gflops",
            "memory_gb",
            "memory_bandwidth_gbps",
            "memory_bw_per_core_gbps",
            "nic_bandwidth_gbps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


#: The paper's node type.
BROADWELL_NODE = NodeSpec()


@dataclass(frozen=True)
class Machine:
    """A homogeneous allocation of identical nodes on a shared fabric.

    Parameters
    ----------
    node:
        Per-node hardware description.
    max_nodes:
        Allocation cap (the paper runs with at most 32 nodes).
    fabric_bandwidth_gbps:
        Bisection-ish bandwidth of the fabric slice serving the
        allocation; concurrent streaming couplings share it.
    fabric_latency_us:
        Base one-way fabric latency between two nodes.
    """

    node: NodeSpec = BROADWELL_NODE
    max_nodes: int = 32
    fabric_bandwidth_gbps: float = 100.0
    fabric_latency_us: float = 2.0

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.fabric_bandwidth_gbps <= 0:
            raise ValueError("fabric_bandwidth_gbps must be positive")

    @property
    def total_cores(self) -> int:
        """Cores across the whole allocation."""
        return self.max_nodes * self.node.cores

    def core_hours(self, seconds, nodes):
        """Computer time of runs: wall-clock × nodes × cores per node.

        This is exactly the paper's §7.1 definition, expressed in
        core-hours.  ``seconds`` and ``nodes`` are scalars or arrays that
        broadcast; one operation order serves both, so a batch equals
        the scalar calls row for row.
        """
        if np.any(np.asarray(nodes) <= 0):
            raise ValueError("nodes must be positive")
        return seconds * nodes * self.node.cores / 3600.0


def default_machine() -> Machine:
    """The paper-equivalent machine: 32 Broadwell nodes on Omni-Path."""
    return Machine()
