"""Shared parallel-scaling ingredients for the application models.

These helpers encode textbook parallel-performance behaviour; every
component application composes them with its own constants.  All times
are seconds, all sizes bytes, all rates GB/s.

Each helper a step cost uses also has an array form (``*_batch``) over
a :class:`~repro.cluster.Placement` of arrays, one row per
configuration.  The array forms repeat the scalar arithmetic operation
for operation, so every row is bit-identical to the scalar call:
numpy's float64 ``+ - * /``, ``sqrt``, ``min`` and ``max`` are the
scalar IEEE operations.  ``math.log2`` and ``**`` are not: ``np.log2``
and ``np.power`` round differently on some arguments, so those terms go
through :func:`per_distinct`, one scalar call per distinct argument.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.allocation import Placement
from repro.cluster.contention import (
    memory_bandwidth_slowdown,
    memory_bandwidth_slowdown_batch,
    nic_share,
    nic_share_batch,
)
from repro.cluster.machine import Machine

__all__ = [
    "thread_speedup",
    "amdahl_compute_seconds",
    "amdahl_compute_seconds_batch",
    "internode_fraction",
    "halo_bytes_3d",
    "halo_bytes_3d_batch",
    "halo_bytes_2d",
    "halo_bytes_2d_batch",
    "exchange_seconds",
    "exchange_seconds_batch",
    "collective_seconds",
    "collective_seconds_batch",
    "per_distinct",
    "startup_seconds",
    "startup_seconds_batch",
]

GB = 1e9


def thread_speedup(threads: int, efficiency: float) -> float:
    """Speedup from ``threads`` threads with marginal efficiency ``efficiency``.

    ``1 + efficiency * (threads - 1)`` — each extra thread contributes a
    fixed fraction of a core, modelling OpenMP regions that do not cover
    the whole step.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if not 0 <= efficiency <= 1:
        raise ValueError("efficiency must be in [0, 1]")
    return 1.0 + efficiency * (threads - 1)


def amdahl_compute_seconds(
    machine: Machine,
    placement: Placement,
    work_gflop: float,
    serial_fraction: float,
    thread_efficiency: float,
    bytes_per_flop: float,
    imbalance_per_doubling: float = 0.0,
) -> float:
    """Per-step compute time of a data-parallel kernel.

    Combines Amdahl's law, sub-linear thread speedup, a mild load-imbalance
    penalty growing with ``log2(procs)``, and per-node memory-bandwidth
    contention for dense placements.
    """
    if work_gflop <= 0:
        raise ValueError("work_gflop must be positive")
    if not 0 <= serial_fraction < 1:
        raise ValueError("serial_fraction must be in [0, 1)")
    rate = machine.node.core_gflops
    workers = placement.procs * thread_speedup(
        placement.threads_per_proc, thread_efficiency
    )
    imbalance = 1.0 + imbalance_per_doubling * math.log2(max(placement.procs, 1))
    serial = serial_fraction * work_gflop / rate
    parallel = (1.0 - serial_fraction) * work_gflop * imbalance / (workers * rate)
    slowdown = memory_bandwidth_slowdown(machine, placement, bytes_per_flop)
    return serial + parallel * slowdown


def internode_fraction(placement: Placement) -> float:
    """Fraction of neighbour traffic that crosses node boundaries.

    Zero when the component fits on one node; approaches one as processes
    spread thinly (``ppn → 1``).
    """
    p = placement.procs
    if placement.nodes <= 1 or p <= 1:
        return 0.0
    return max(0.0, 1.0 - (placement.procs_per_node - 1) / (p - 1))


def halo_bytes_3d(domain_bytes: float, procs: int) -> float:
    """Per-process halo traffic of a 3-D domain decomposition.

    Surface-to-volume: each process owns ``domain/p`` and exchanges a
    shell proportional to its ``(2/3)`` power (6 faces folded into the
    constant).
    """
    if domain_bytes <= 0 or procs < 1:
        raise ValueError("domain_bytes must be positive and procs >= 1")
    if procs == 1:
        return 0.0
    return 6.0 * (domain_bytes / procs) ** (2.0 / 3.0)


def halo_bytes_2d(
    domain_bytes: float, procs_x: int, procs_y: int, element_bytes: float = 8.0
) -> float:
    """Per-process halo traffic of a 2-D ``px × py`` grid decomposition.

    Minimised when the decomposition is square — exactly the structure
    that makes Heat Transfer's ``(px, py)`` tuning non-trivial.
    """
    if domain_bytes <= 0 or procs_x < 1 or procs_y < 1:
        raise ValueError("invalid 2-D decomposition")
    if procs_x * procs_y == 1:
        return 0.0
    cells = domain_bytes / element_bytes
    side = math.sqrt(cells)
    # Two edges in each direction per interior process.
    edge_cells = 2.0 * (side / procs_x + side / procs_y)
    return edge_cells * element_bytes


def exchange_seconds(
    machine: Machine,
    placement: Placement,
    per_proc_bytes: float,
    messages_per_proc: float = 6.0,
) -> float:
    """Time of one neighbour-exchange phase.

    Intra-node traffic moves at memory-copy speed; inter-node traffic
    shares the node's NIC among the processes of that node.
    """
    if per_proc_bytes < 0:
        raise ValueError("per_proc_bytes must be non-negative")
    if per_proc_bytes == 0:
        return 0.0
    node = machine.node
    inter = internode_fraction(placement)
    intra_bw = node.memory_bandwidth_gbps / 2.0  # copy in + out
    nic_per_proc = nic_share(machine, placement) / placement.procs_per_node
    latency = messages_per_proc * node.nic_latency_us * 1e-6
    intra_time = (1.0 - inter) * per_proc_bytes / (intra_bw * GB)
    inter_time = inter * per_proc_bytes / (nic_per_proc * GB)
    return latency + intra_time + inter_time


def collective_seconds(machine: Machine, procs: int, per_stage_us: float = 8.0) -> float:
    """Time of a small collective (allreduce-style): log₂(p) stages."""
    if procs < 1:
        raise ValueError("procs must be >= 1")
    if procs == 1:
        return 0.0
    return math.log2(procs) * per_stage_us * 1e-6


def startup_seconds(
    placement: Placement,
    base: float = 1.5,
    per_node: float = 0.04,
    per_doubling: float = 0.25,
) -> float:
    """Launch/initialisation overhead of an MPI application.

    A constant runtime-bringup cost plus node-count and ``log2(procs)``
    terms (wire-up collectives).
    """
    return (
        base
        + per_node * placement.nodes
        + per_doubling * math.log2(max(placement.procs, 1) + 1)
    )


# -- array forms -----------------------------------------------------------------


def per_distinct(fn, values) -> np.ndarray:
    """``fn`` over an array, called once per distinct value.

    ``tolist()`` hands ``fn`` the Python ``int``/``float`` the scalar
    code path would see, so the gathered results are its exact floats.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()], dtype=np.float64)[
        inverse
    ]


def _pow_two_thirds(x: float) -> float:
    return x ** (2.0 / 3.0)


def amdahl_compute_seconds_batch(
    machine: Machine,
    placement: Placement,
    work_gflop,
    serial_fraction: float,
    thread_efficiency: float,
    bytes_per_flop: float,
    imbalance_per_doubling: float = 0.0,
) -> np.ndarray:
    """Array form of :func:`amdahl_compute_seconds`."""
    if np.any(np.asarray(work_gflop) <= 0):
        raise ValueError("work_gflop must be positive")
    if not 0 <= serial_fraction < 1:
        raise ValueError("serial_fraction must be in [0, 1)")
    rate = machine.node.core_gflops
    # thread_speedup, inlined: its argument checks are scalar-only.
    workers = placement.procs * (
        1.0 + thread_efficiency * (placement.threads_per_proc - 1)
    )
    imbalance = 1.0 + imbalance_per_doubling * per_distinct(
        math.log2, np.maximum(placement.procs, 1)
    )
    serial = serial_fraction * work_gflop / rate
    parallel = (1.0 - serial_fraction) * work_gflop * imbalance / (workers * rate)
    slowdown = memory_bandwidth_slowdown_batch(machine, placement, bytes_per_flop)
    return serial + parallel * slowdown


def _internode_fraction_batch(placement: Placement) -> np.ndarray:
    p = placement.procs
    fraction = 1.0 - (placement.procs_per_node - 1) / np.maximum(p - 1, 1)
    return np.where(
        (placement.nodes <= 1) | (p <= 1),
        0.0,
        np.where(fraction > 0.0, fraction, 0.0),
    )


def halo_bytes_3d_batch(domain_bytes, procs) -> np.ndarray:
    """Array form of :func:`halo_bytes_3d`."""
    if np.any(np.asarray(domain_bytes) <= 0) or np.any(procs < 1):
        raise ValueError("domain_bytes must be positive and procs >= 1")
    shell = 6.0 * per_distinct(_pow_two_thirds, domain_bytes / procs)
    return np.where(procs == 1, 0.0, shell)


def halo_bytes_2d_batch(
    domain_bytes: float, procs_x, procs_y, element_bytes: float = 8.0
) -> np.ndarray:
    """Array form of :func:`halo_bytes_2d`."""
    if domain_bytes <= 0 or np.any(procs_x < 1) or np.any(procs_y < 1):
        raise ValueError("invalid 2-D decomposition")
    side = math.sqrt(domain_bytes / element_bytes)
    edge_cells = 2.0 * (side / procs_x + side / procs_y)
    return np.where(procs_x * procs_y == 1, 0.0, edge_cells * element_bytes)


def exchange_seconds_batch(
    machine: Machine,
    placement: Placement,
    per_proc_bytes,
    messages_per_proc: float = 6.0,
) -> np.ndarray:
    """Array form of :func:`exchange_seconds`."""
    if np.any(per_proc_bytes < 0):
        raise ValueError("per_proc_bytes must be non-negative")
    node = machine.node
    inter = _internode_fraction_batch(placement)
    intra_bw = node.memory_bandwidth_gbps / 2.0
    nic_per_proc = nic_share_batch(machine, placement) / placement.procs_per_node
    latency = messages_per_proc * node.nic_latency_us * 1e-6
    intra_time = (1.0 - inter) * per_proc_bytes / (intra_bw * GB)
    inter_time = inter * per_proc_bytes / (nic_per_proc * GB)
    return np.where(per_proc_bytes == 0, 0.0, latency + intra_time + inter_time)


def collective_seconds_batch(
    machine: Machine, procs, per_stage_us: float = 8.0
) -> np.ndarray:
    """Array form of :func:`collective_seconds`."""
    if np.any(procs < 1):
        raise ValueError("procs must be >= 1")
    stages = per_distinct(math.log2, procs)
    return np.where(procs == 1, 0.0, stages * per_stage_us * 1e-6)


def startup_seconds_batch(
    placement: Placement,
    base: float = 1.5,
    per_node: float = 0.04,
    per_doubling: float = 0.25,
) -> np.ndarray:
    """Array form of :func:`startup_seconds`."""
    return (
        base
        + per_node * placement.nodes
        + per_doubling
        * per_distinct(math.log2, np.maximum(placement.procs, 1) + 1)
    )
