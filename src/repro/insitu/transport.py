"""ADIOS-like staging transport cost model.

Per coupling and configuration, three quantities drive the DES run:

* ``publish_seconds`` — producer-side cost of staging one message
  (serialisation + copy into the staging buffer + metadata
  synchronisation with readers, which grows with both endpoints'
  process counts; this is the coupling overhead that solo component
  models cannot see),
* ``drain_seconds`` — consumer-side cost of pulling one message across
  the fabric (bounded by producer NIC aggregate, consumer NIC
  aggregate, and the fabric share left after other concurrent
  couplings), and
* buffer depth in messages (bounded staging memory ⇒ back-pressure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.apps.scaling import per_distinct
from repro.cluster.allocation import Placement
from repro.cluster.contention import fabric_share, nic_share, nic_share_batch
from repro.cluster.machine import Machine

__all__ = ["StagingChannelModel", "channel_costs_batch"]

GB = 1e9


@dataclass(frozen=True)
class StagingChannelModel:
    """Cost model of one staging channel between two placed components.

    Parameters
    ----------
    machine:
        The machine both endpoints run on.
    producer, consumer:
        Endpoint placements.
    message_bytes:
        Aggregate payload of one step's message.
    concurrent_streams:
        Number of couplings sharing the fabric during the run.
    metadata_us_per_proc:
        Metadata/rendezvous cost per endpoint process — ADIOS-style
        global metadata aggregation grows with the number of writers and
        readers, a cost that exists *only* in the coupled mode and is
        therefore invisible to solo-trained component models.
    """

    machine: Machine
    producer: Placement
    consumer: Placement
    message_bytes: float
    concurrent_streams: int = 1
    metadata_us_per_proc: float = 40.0

    def __post_init__(self) -> None:
        if self.message_bytes < 0:
            raise ValueError("message_bytes must be non-negative")

    # -- producer side -------------------------------------------------------------

    def publish_seconds(self) -> float:
        """Producer-side staging cost per message."""
        node = self.machine.node
        copy_bw = (node.memory_bandwidth_gbps / 2.0) * self.producer.nodes
        copy = self.message_bytes / (copy_bw * GB)
        return copy + self._metadata_seconds()

    # -- consumer side -------------------------------------------------------------

    def channel_gbps(self) -> float:
        """End-to-end bandwidth of the stream (GB/s)."""
        prod_agg = nic_share(self.machine, self.producer) * self.producer.nodes
        cons_agg = nic_share(self.machine, self.consumer) * self.consumer.nodes
        fabric = fabric_share(self.machine, self.concurrent_streams)
        return min(prod_agg, cons_agg, fabric)

    def drain_seconds(self) -> float:
        """Consumer-side cost of pulling one message."""
        latency = self.machine.fabric_latency_us * 1e-6
        transfer = self.message_bytes / (self.channel_gbps() * GB)
        # Reader-side redistribution: the slab arrives partitioned by the
        # producer's decomposition and is re-partitioned for the
        # consumer's; cost grows with the decomposition mismatch.
        redistribution = 0.2 * transfer * math.log2(self._mismatch() + 1.0)
        return latency + transfer + redistribution + self._metadata_seconds()

    # -- shared ----------------------------------------------------------------------

    def _metadata_seconds(self) -> float:
        procs = self.producer.procs + self.consumer.procs
        return self.metadata_us_per_proc * 1e-6 * procs

    def _mismatch(self) -> float:
        """Decomposition mismatch: how far from 1 the proc ratio is."""
        a, b = self.producer.procs, self.consumer.procs
        return max(a, b) / max(min(a, b), 1) - 1.0


def channel_costs_batch(
    machine: Machine,
    producer: Placement,
    consumer: Placement,
    message_bytes,
    concurrent_streams: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``(publish_seconds(), drain_seconds())``.

    One channel per row of the array placements ``producer`` and
    ``consumer``; every row equals the :class:`StagingChannelModel`
    of that row bit for bit.
    """
    if np.any(message_bytes < 0):
        raise ValueError("message_bytes must be non-negative")
    node = machine.node
    metadata = (
        StagingChannelModel.metadata_us_per_proc
        * 1e-6
        * (producer.procs + consumer.procs)
    )
    copy_bw = (node.memory_bandwidth_gbps / 2.0) * producer.nodes
    publish = message_bytes / (copy_bw * GB) + metadata

    prod_agg = nic_share_batch(machine, producer) * producer.nodes
    cons_agg = nic_share_batch(machine, consumer) * consumer.nodes
    fabric = fabric_share(machine, concurrent_streams)
    channel_gbps = np.minimum(np.minimum(prod_agg, cons_agg), fabric)
    latency = machine.fabric_latency_us * 1e-6
    transfer = message_bytes / (channel_gbps * GB)
    a, b = producer.procs, consumer.procs
    mismatch = np.maximum(a, b) / np.maximum(np.minimum(a, b), 1) - 1.0
    redistribution = 0.2 * transfer * per_distinct(math.log2, mismatch + 1.0)
    drain = latency + transfer + redistribution + metadata
    return publish, drain
