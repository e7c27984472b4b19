"""Placement of component processes onto nodes.

The paper launches all workflow components at once on an exclusive
allocation, each component occupying its own block of nodes
(``ceil(procs / ppn)``).  A :class:`Placement` captures the resulting
footprint plus the densities that drive contention: processes per node and
busy cores per node.  :func:`allocation_ok` is the one feasibility rule:
components placed side by side fit the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import Machine

__all__ = [
    "Placement",
    "allocation_ok",
    "place_component",
    "place_component_batch",
]


@dataclass(frozen=True)
class Placement:
    """Where and how densely one component runs.

    Attributes
    ----------
    procs:
        Total MPI processes of the component.
    procs_per_node:
        Requested process density (the tuned ``ppn`` parameter).
    threads_per_proc:
        OpenMP-style threads per process (1 when untuned).
    nodes:
        Node footprint, ``ceil(procs / procs_per_node)``.
    """

    procs: int
    procs_per_node: int
    threads_per_proc: int
    nodes: int

    @property
    def busy_cores_per_node(self) -> int:
        """Cores kept busy on a fully packed node."""
        return self.procs_per_node * self.threads_per_proc

    @property
    def total_workers(self) -> int:
        """Total concurrent execution streams (processes × threads)."""
        return self.procs * self.threads_per_proc

    def core_utilisation(self, machine: Machine) -> float:
        """Fraction of a node's cores kept busy (may exceed 1 if oversubscribed)."""
        return self.busy_cores_per_node / machine.node.cores

    def validate(self, machine: Machine) -> None:
        """Raise ``ValueError`` when the placement cannot run on ``machine``."""
        if self.procs < 1:
            raise ValueError("component needs at least one process")
        if self.procs_per_node < 1:
            raise ValueError("procs_per_node must be >= 1")
        if self.threads_per_proc < 1:
            raise ValueError("threads_per_proc must be >= 1")
        if self.procs < self.procs_per_node:
            raise ValueError(
                f"{self.procs} processes cannot fill {self.procs_per_node} "
                "per node"
            )
        if self.busy_cores_per_node > machine.node.cores:
            raise ValueError(
                f"{self.busy_cores_per_node} busy cores exceed the node's "
                f"{machine.node.cores} cores"
            )
        if self.nodes > machine.max_nodes:
            raise ValueError(
                f"{self.nodes} nodes exceed the {machine.max_nodes}-node allocation"
            )


def place_component(
    procs: int, procs_per_node: int, threads_per_proc: int = 1
) -> Placement:
    """Build the canonical block placement for a component."""
    if procs < 1 or procs_per_node < 1 or threads_per_proc < 1:
        raise ValueError("procs, procs_per_node and threads_per_proc must be >= 1")
    return Placement(
        procs=procs,
        procs_per_node=procs_per_node,
        threads_per_proc=threads_per_proc,
        nodes=math.ceil(procs / procs_per_node),
    )


def place_component_batch(procs, procs_per_node, threads_per_proc=1) -> Placement:
    """Array form of :func:`place_component`: one placement per row.

    Returns a :class:`Placement` whose fields are integer arrays.  Its
    density properties work elementwise; :meth:`Placement.validate`
    does not (use :func:`allocation_ok`).  ``nodes`` is the same
    float division and ceiling as the scalar form.
    """
    procs, procs_per_node, threads_per_proc = np.broadcast_arrays(
        procs, procs_per_node, threads_per_proc
    )
    return Placement(
        procs=procs,
        procs_per_node=procs_per_node,
        threads_per_proc=threads_per_proc,
        nodes=np.ceil(procs / procs_per_node).astype(np.int64),
    )


def allocation_ok(placements, machine: Machine):
    """Whether components placed side by side fit ``machine``.

    The one feasibility rule of a configuration, for coupled runs, solo
    runs (one placement) and sampling alike, and the mask form of
    :meth:`Placement.validate`: each component fills its nodes
    (``procs >= procs_per_node >= 1``, at least one thread each)
    without oversubscribing their cores, and the components' disjoint
    node blocks add up to at most ``machine.max_nodes`` (so each block
    fits too).  Scalar placements give a bool, array placements a row
    mask.
    """
    ok = True
    nodes = 0
    for placement in placements:
        ok = ok & (
            (np.minimum(placement.procs_per_node, placement.threads_per_proc) >= 1)
            & (placement.procs >= placement.procs_per_node)
            & (placement.busy_cores_per_node <= machine.node.cores)
        )
        nodes = nodes + placement.nodes
    return ok & (nodes <= machine.max_nodes)
