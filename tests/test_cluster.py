"""Unit tests for the simulated cluster substrate."""

import pytest

from repro.cluster.allocation import (
    allocation_ok,
    place_component,
    place_component_batch,
)
from repro.cluster.contention import (
    fabric_share,
    memory_bandwidth_slowdown,
    nic_share,
)
from repro.cluster.machine import Machine, NodeSpec, default_machine


class TestMachine:
    def test_paper_defaults(self):
        m = default_machine()
        assert m.node.cores == 36
        assert m.max_nodes == 32
        assert m.total_cores == 32 * 36

    def test_core_hours_definition(self):
        # 1 hour on 1 node of 36 cores = 36 core-hours
        m = Machine()
        assert m.core_hours(3600.0, 1) == pytest.approx(36.0)
        assert m.core_hours(1800.0, 2) == pytest.approx(36.0)

    def test_core_hours_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            Machine().core_hours(10.0, 0)

    def test_invalid_node_spec(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=0)
        with pytest.raises(ValueError):
            NodeSpec(memory_gb=-1)


class TestPlacement:
    def test_nodes_ceil(self):
        p = place_component(70, 35)
        assert p.nodes == 2
        assert p.busy_cores_per_node == 35

    def test_threads_count_in_busy_cores(self):
        p = place_component(36, 18, 2)
        assert p.busy_cores_per_node == 36
        assert p.total_workers == 72

    def test_validate_rejects_oversubscription(self):
        m = Machine()
        with pytest.raises(ValueError, match="busy cores"):
            place_component(36, 18, 3).validate(m)

    def test_validate_rejects_sparse_fill(self):
        # 2 processes cannot fill 35 per node: ppn overstates the density.
        m = Machine()
        with pytest.raises(ValueError, match="per node"):
            place_component(2, 35).validate(m)
        assert allocation_ok((place_component_batch([2, 35], 35),), m).tolist() == [
            False,
            True,
        ]

    def test_validate_rejects_too_many_nodes(self):
        m = Machine(max_nodes=2)
        with pytest.raises(ValueError, match="allocation"):
            place_component(108, 1).validate(m)

    def test_core_utilisation(self):
        p = place_component(36, 36, 1)
        assert p.core_utilisation(Machine()) == pytest.approx(1.0)

    def test_invalid_placement_args(self):
        with pytest.raises(ValueError):
            place_component(0, 1)


class TestContention:
    def test_memory_slowdown_one_when_sparse(self):
        m = Machine()
        p = place_component(4, 2)  # 2 busy cores/node
        assert memory_bandwidth_slowdown(m, p, 1.0) == 1.0

    def test_memory_slowdown_grows_with_density(self):
        m = Machine()
        sparse = place_component(70, 10)
        dense = place_component(70, 35)
        assert memory_bandwidth_slowdown(m, dense, 1.0) > memory_bandwidth_slowdown(
            m, sparse, 1.0
        )

    def test_compute_bound_immune(self):
        m = Machine()
        dense = place_component(70, 35)
        assert memory_bandwidth_slowdown(m, dense, 0.0) == 1.0

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            memory_bandwidth_slowdown(Machine(), place_component(2, 1), -0.1)

    def test_nic_share_saturates(self):
        m = Machine()
        one = nic_share(m, place_component(2, 1))
        many = nic_share(m, place_component(70, 35))
        assert one < many
        assert many <= m.node.nic_bandwidth_gbps

    def test_fabric_share_splits(self):
        m = Machine()
        assert fabric_share(m, 1) == m.fabric_bandwidth_gbps
        assert fabric_share(m, 2) < m.fabric_bandwidth_gbps / 2 * 1.01
        with pytest.raises(ValueError):
            fabric_share(m, 0)
